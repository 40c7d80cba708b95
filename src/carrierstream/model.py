"""Decoder-only transformer core with an explicit, taggable KV cache.

The model is deliberately small and fully explicit: pre-norm residual
blocks, multi-head attention, a GELU feed-forward, learned absolute
positions, and a linear unembedding. Positions are baked into cache
entries at prefill time; evicting an entry later leaves a gap in the
position sequence, which is never re-packed.

`forward_step` is the single entry point for both incremental decoding
(nonempty cache) and batched full-sequence evaluation (fresh cache,
full semantic mask). Every new token sees the whole cache, so masks
cover only the new tokens, and the cache keeps every forwarded token
except raw frame rows.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .config import ModelConfig
from .errors import (
    CapacityError,
    DegenerateInputError,
    FormatError,
    OrderingError,
    PayloadLengthError,
    ShapeError,
)
from .masking import CACHEABLE_TAGS
from .numerics import gelu, layer_norm, softmax_rows

ADAPTED_PROJECTIONS = ("wq", "wk", "wv", "wo")

CHECKPOINT_MAGIC = b"VSWT"
CHECKPOINT_VERSION = 1


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    # adapters[name] = (a, b); contribution is x @ a @ b, with b zero-initialized
    adapters: dict[str, tuple[np.ndarray, np.ndarray]] | None = None


@dataclass
class Weights:
    config: ModelConfig
    layers: list[LayerWeights]
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    unembed: np.ndarray

    def astype(self, dtype) -> "Weights":
        layers = []
        for lw in self.layers:
            adapters = None
            if lw.adapters is not None:
                adapters = {
                    k: (a.astype(dtype), b.astype(dtype)) for k, (a, b) in lw.adapters.items()
                }
            layers.append(
                LayerWeights(
                    *(getattr(lw, f).astype(dtype) for f in (
                        "wq", "wk", "wv", "wo", "w1", "w2",
                        "ln1_g", "ln1_b", "ln2_g", "ln2_b",
                    )),
                    adapters=adapters,
                )
            )
        return Weights(
            config=self.config,
            layers=layers,
            tok_emb=self.tok_emb.astype(dtype),
            pos_emb=self.pos_emb.astype(dtype),
            unembed=self.unembed.astype(dtype),
        )


def _matrix_order(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Declaration order of all weight arrays, shared by init and checkpoint IO."""
    d, ff, r = config.d_model, config.ff_dim, config.adapter_rank
    order: list[tuple[str, tuple[int, ...]]] = []
    for layer in range(config.layers):
        p = f"layers.{layer}."
        order += [
            (p + "wq", (d, d)), (p + "wk", (d, d)), (p + "wv", (d, d)), (p + "wo", (d, d)),
            (p + "w1", (d, ff)), (p + "w2", (ff, d)),
            (p + "ln1_g", (d,)), (p + "ln1_b", (d,)),
            (p + "ln2_g", (d,)), (p + "ln2_b", (d,)),
        ]
        if r > 0:
            for name in ADAPTED_PROJECTIONS:
                order += [(p + f"adapters.{name}.a", (d, r)), (p + f"adapters.{name}.b", (r, d))]
    order += [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_positions, d)),
        ("unembed", (d, config.vocab_size)),
    ]
    return order


def _weights_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> Weights:
    """Assemble `Weights` from arrays keyed by their `_matrix_order` paths."""
    layers = []
    for layer in range(config.layers):
        p = f"layers.{layer}."
        adapters = None
        if config.adapter_rank > 0:
            adapters = {
                name: (arrays[p + f"adapters.{name}.a"], arrays[p + f"adapters.{name}.b"])
                for name in ADAPTED_PROJECTIONS
            }
        layers.append(
            LayerWeights(
                wq=arrays[p + "wq"], wk=arrays[p + "wk"], wv=arrays[p + "wv"], wo=arrays[p + "wo"],
                w1=arrays[p + "w1"], w2=arrays[p + "w2"],
                ln1_g=arrays[p + "ln1_g"], ln1_b=arrays[p + "ln1_b"],
                ln2_g=arrays[p + "ln2_g"], ln2_b=arrays[p + "ln2_b"],
                adapters=adapters,
            )
        )
    return Weights(
        config=config,
        layers=layers,
        tok_emb=arrays["tok_emb"],
        pos_emb=arrays["pos_emb"],
        unembed=arrays["unembed"],
    )


def iter_params(weights: Weights) -> Iterable[tuple[str, np.ndarray]]:
    """Yield (path, array) for every parameter, in declaration order."""
    for layer, lw in enumerate(weights.layers):
        p = f"layers.{layer}."
        for f in ("wq", "wk", "wv", "wo", "w1", "w2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
            yield p + f, getattr(lw, f)
        if lw.adapters is not None:
            for name in ADAPTED_PROJECTIONS:
                a, b = lw.adapters[name]
                yield p + f"adapters.{name}.a", a
                yield p + f"adapters.{name}.b", b
    yield "tok_emb", weights.tok_emb
    yield "pos_emb", weights.pos_emb
    yield "unembed", weights.unembed


def get_param(weights: Weights, path: str) -> np.ndarray:
    for name, arr in iter_params(weights):
        if name == path:
            return arr
    raise KeyError(path)


def set_param(weights: Weights, path: str, value: np.ndarray) -> None:
    parts = path.split(".")
    if parts[0] == "layers":
        lw = weights.layers[int(parts[1])]
        if parts[2] == "adapters":
            assert lw.adapters is not None
            a, b = lw.adapters[parts[3]]
            lw.adapters[parts[3]] = (value, b) if parts[4] == "a" else (a, value)
        else:
            setattr(lw, parts[2], value)
    else:
        setattr(weights, parts[0], value)


def init_model(config: ModelConfig, seed: int) -> Weights:
    """Initialize weights with U(-1/sqrt(d), 1/sqrt(d)) entries.

    Layer-norm gains start at 1 and biases at 0. Adapter `b` factors start
    at zero so freshly attached adapters leave the forward pass bit-identical.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.d_model)

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        return rng.uniform(-scale, scale, size=shape).astype(np.float32)

    arrays: dict[str, np.ndarray] = {}
    for name, shape in _matrix_order(config):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("ln1_g", "ln2_g"):
            arrays[name] = np.ones(shape, dtype=np.float32)
        elif leaf in ("ln1_b", "ln2_b"):
            arrays[name] = np.zeros(shape, dtype=np.float32)
        elif leaf == "b" and ".adapters." in name:
            arrays[name] = np.zeros(shape, dtype=np.float32)
        else:
            arrays[name] = draw(shape)

    return _weights_from_arrays(config, arrays)


# ---------------------------------------------------------------------------
# checkpoint format: magic "VSWT", version u32 LE, config-JSON length u32 LE,
# config JSON (utf-8), then every matrix in declaration order as float32 LE.
# An optional trailing per-symbol frame table rides after the model matrices
# when the config JSON carries {"stub_alphabet": A > 0}.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    weights: Weights
    stub: np.ndarray | None = None  # (alphabet, d_model) frame-symbol table


def save_checkpoint(path: str, weights: Weights, stub: np.ndarray | None = None) -> None:
    cfg = weights.config.to_dict()
    cfg["stub_alphabet"] = 0 if stub is None else int(stub.shape[0])
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        arrays = dict(iter_params(weights))
        for name, shape in _matrix_order(weights.config):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            if arr.shape != shape:
                raise ShapeError(f"{name}: expected shape {shape}, found {arr.shape}")
            fh.write(arr.tobytes())
        if stub is not None:
            fh.write(np.ascontiguousarray(stub, dtype="<f4").tobytes())


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise PayloadLengthError(f"truncated checkpoint: {what} needs {n} bytes, found {len(data)}")
    return data


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg_dict = json.loads(_read_exact(fh, blob_len, "config").decode("utf-8"))
        stub_alphabet = int(cfg_dict.pop("stub_alphabet", 0))
        config = ModelConfig.from_dict(cfg_dict)

        arrays: dict[str, np.ndarray] = {}
        for name, shape in _matrix_order(config):
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 4 * count, name)
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

        stub = None
        if stub_alphabet > 0:
            raw = _read_exact(fh, 4 * stub_alphabet * config.d_model, "frame-symbol table")
            stub = np.frombuffer(raw, dtype="<f4").reshape(stub_alphabet, config.d_model).copy()
        trailing = fh.read(1)
        if trailing:
            raise PayloadLengthError("checkpoint has trailing bytes past the declared payload")

    return Checkpoint(weights=_weights_from_arrays(config, arrays), stub=stub)


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------


class KvCache:
    """Per-layer key/value store with shared entry metadata.

    Every layer holds the same entries in the same order, so tags,
    positions, and origin frame indices are stored once. Entries carry
    the position they were computed at; deletes leave position gaps.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        h, dk = config.heads, config.head_dim
        self.k = [np.zeros((0, h, dk), dtype=np.float32) for _ in range(config.layers)]
        self.v = [np.zeros((0, h, dk), dtype=np.float32) for _ in range(config.layers)]
        self.tags: list[str] = []
        self.positions = np.zeros(0, dtype=np.int64)
        self.origins = np.zeros(0, dtype=np.int64)  # frame index, -1 for non-frame entries

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def max_position(self) -> int:
        return -1 if len(self.positions) == 0 else int(self.positions.max())

    def append(
        self,
        k_new: list[np.ndarray],
        v_new: list[np.ndarray],
        keep: np.ndarray,
        tags: Sequence[str],
        positions: np.ndarray,
        origins: np.ndarray,
    ) -> None:
        kept = int(keep.sum())
        if kept == 0:
            return
        for layer in range(self.config.layers):
            self.k[layer] = np.concatenate([self.k[layer], k_new[layer][keep]], axis=0)
            self.v[layer] = np.concatenate([self.v[layer], v_new[layer][keep]], axis=0)
        for i, flag in enumerate(keep):
            if flag:
                self.tags.append(tags[i])
        self.positions = np.concatenate([self.positions, positions[keep]])
        self.origins = np.concatenate([self.origins, origins[keep]])

    def delete_origin(self, frame_index: int) -> int:
        """Drop every entry that originated from the given frame."""
        return self._drop(self.origins == frame_index)

    def delete_tag(self, tag: str) -> int:
        """Drop every entry with the given segment tag."""
        return self._drop(np.array([t == tag for t in self.tags], dtype=bool))

    def _drop(self, drop: np.ndarray) -> int:
        """Remove the entries flagged in `drop`; returns how many went."""
        n = int(drop.sum())
        if n == 0:
            return 0
        keep = ~drop
        for layer in range(self.config.layers):
            self.k[layer] = self.k[layer][keep]
            self.v[layer] = self.v[layer][keep]
        self.tags = [t for t, f in zip(self.tags, keep) if f]
        self.positions = self.positions[keep]
        self.origins = self.origins[keep]
        return n

    def entry_kv(self, index: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (k, v) copies for one cache entry."""
        ks = [self.k[layer][index].copy() for layer in range(self.config.layers)]
        vs = [self.v[layer][index].copy() for layer in range(self.config.layers)]
        return ks, vs


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def embed_positions(x: np.ndarray, pos_emb: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Add learned absolute position rows to the input embeddings."""
    positions = np.asarray(positions)
    if x.ndim != 2 or x.shape[0] != positions.shape[0]:
        raise ShapeError(f"embeddings {x.shape} do not line up with {positions.shape[0]} positions")
    if positions.size and (positions.min() < 0 or positions.max() >= pos_emb.shape[0]):
        raise CapacityError(
            f"position {int(positions.max())} outside table of {pos_emb.shape[0]} rows"
        )
    return x + pos_emb[positions]


def _project(x: np.ndarray, w: np.ndarray, lw: LayerWeights, name: str) -> np.ndarray:
    y = x @ w
    if lw.adapters is not None and name in lw.adapters:
        a, b = lw.adapters[name]
        y = y + (x @ a) @ b
    return y


def attention_forward(
    q: np.ndarray,
    cached_k: np.ndarray,
    cached_v: np.ndarray,
    new_k: np.ndarray,
    new_v: np.ndarray,
    mask: np.ndarray,
    heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention over cached + new keys.

    q: (m, d); cached/new k, v: (n_cached, h, dk) and (n_new, h, dk);
    mask: (m, n_new) boolean allow-matrix over the new keys only. Cached
    keys are always visible. Returns (output (m, d), probs (h, m, n)).
    """
    m, d = q.shape
    dk = d // heads
    q3 = q.reshape(m, heads, dk)
    n_cached, n_new = cached_k.shape[0], new_k.shape[0]
    if mask.shape != (m, n_new):
        raise ShapeError(f"mask {mask.shape} does not cover ({m}, {n_new})")
    if n_cached == 0 and not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise DegenerateInputError(f"query {bad} has no allowed key")
    keys = np.concatenate([cached_k, new_k], axis=0)
    values = np.concatenate([cached_v, new_v], axis=0)
    n = n_cached + n_new

    scores = np.einsum("mhd,nhd->hmn", q3, keys) / np.sqrt(dk).astype(q.dtype)
    scores[:, :, n_cached:][:, ~mask] = -np.inf  # exp(-inf) gives masked keys exactly 0
    probs = softmax_rows(scores.reshape(heads * m, n)).reshape(heads, m, n)
    out = np.einsum("hmn,nhd->mhd", probs, values).reshape(m, d)
    return out, probs


def forward_step(
    weights: Weights,
    cache: KvCache,
    new_embeddings: np.ndarray,
    positions: np.ndarray,
    mask: np.ndarray,
    new_tags: Sequence[str],
    new_origins: Sequence[int] | None = None,
    capture=None,
    flops=None,
) -> np.ndarray:
    """Run new tokens through every layer against the live cache.

    Position embeddings are added here. `mask` is the (m, m) block over
    the new tokens; every cached entry is visible to every new token.
    After the pass, K/V of the new tokens whose tag is in `CACHEABLE_TAGS`
    (all but raw frame rows) are appended to the cache. Returns logits
    of shape (m, vocab). `capture` (attention observer) and `flops`
    (step counter) are optional instrumentation hooks; neither affects
    any computed value.
    """
    config = weights.config
    m = new_embeddings.shape[0]
    if new_embeddings.shape != (m, config.d_model):
        raise ShapeError(f"embeddings {new_embeddings.shape}, expected ({m}, {config.d_model})")
    if len(new_tags) != m:
        raise ShapeError(f"{len(new_tags)} tags for {m} tokens")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape != (m,):
        raise ShapeError(f"positions {positions.shape}, expected ({m},)")
    if m > 1 and not (np.diff(positions) > 0).all():
        raise OrderingError("new positions must be strictly increasing")
    if m and positions[0] <= cache.max_position:
        raise OrderingError(
            f"position {int(positions[0])} not after cached maximum {cache.max_position}"
        )
    if mask.shape != (m, m):
        raise ShapeError(f"mask {mask.shape}, expected ({m}, {m})")

    x = embed_positions(new_embeddings, weights.pos_emb, positions)
    heads, dk = config.heads, config.head_dim
    k_stash: list[np.ndarray] = []
    v_stash: list[np.ndarray] = []

    for layer, lw in enumerate(weights.layers):
        a_in = layer_norm(x, lw.ln1_g, lw.ln1_b)
        q = _project(a_in, lw.wq, lw, "wq")
        k_new = _project(a_in, lw.wk, lw, "wk").reshape(m, heads, dk)
        v_new = _project(a_in, lw.wv, lw, "wv").reshape(m, heads, dk)
        attn, probs = attention_forward(q, cache.k[layer], cache.v[layer], k_new, v_new, mask, heads)
        if capture is not None:
            capture.observe(
                layer=layer,
                probs=probs,
                key_positions=np.concatenate([cache.positions, positions]),
                key_tags=tuple(cache.tags) + tuple(new_tags),
                query_positions=positions,
                query_tags=tuple(new_tags),
            )
        x = x + _project(attn, lw.wo, lw, "wo")
        f_in = layer_norm(x, lw.ln2_g, lw.ln2_b)
        x = x + gelu(f_in @ lw.w1) @ lw.w2
        k_stash.append(k_new)
        v_stash.append(v_new)

    logits = x @ weights.unembed
    if flops is not None:
        flops.add_step(m, len(cache) + m)

    keep = np.array([t in CACHEABLE_TAGS for t in new_tags], dtype=bool)
    origins = np.asarray(
        new_origins if new_origins is not None else [-1] * m, dtype=np.int64
    )
    cache.append(k_stash, v_stash, keep, new_tags, positions, origins)
    return logits
