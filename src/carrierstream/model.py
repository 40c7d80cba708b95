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

A step computes only the rows someone reads. The caller names the rows
whose logits it reads; each layer then runs the query path for the
rows the layer above reads and K/V for the cached rows plus the keys
those queries see. An ingest reads no logits: its last layer computes
only the carrier's K/V, and the layer below runs only the carrier's
query. A step that reads every row runs every row through every layer.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable, NamedTuple, Sequence

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


_LAYER_ARRAYS = tuple(f.name for f in fields(LayerWeights) if f.name != "adapters")


@dataclass
class Weights:
    config: ModelConfig
    layers: list[LayerWeights]
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    unembed: np.ndarray

    def astype(self, dtype) -> "Weights":
        return _weights_from_arrays(self.config, {p: a.astype(dtype) for p, a in iter_params(self)})


def _matrix_order(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The one declaration of the weight layout: (path, shape) of every
    array, in checkpoint order. A layer's arrays sit at `layers.<i>.<field>`
    and its adapter factors at `layers.<i>.adapters.<projection>.<a|b>`."""
    d, ff, r = config.d_model, config.ff_dim, config.adapter_rank
    layer = [
        ("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)),
        ("w1", (d, ff)), ("w2", (ff, d)),
        ("ln1_g", (d,)), ("ln1_b", (d,)), ("ln2_g", (d,)), ("ln2_b", (d,)),
    ]
    if r > 0:
        for name in ADAPTED_PROJECTIONS:
            layer += [(f"adapters.{name}.a", (d, r)), (f"adapters.{name}.b", (r, d))]
    order = []
    for i in range(config.layers):
        p = f"layers.{i}."
        order += [(p + name, shape) for name, shape in layer]
    return order + [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_positions, d)),
        ("unembed", (d, config.vocab_size)),
    ]


def _weights_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> Weights:
    """Assemble `Weights` from arrays keyed by their `_matrix_order` paths."""

    def layer(p: str) -> LayerWeights:
        adapters = None
        if config.adapter_rank > 0:
            adapters = {
                name: (arrays[f"{p}adapters.{name}.a"], arrays[f"{p}adapters.{name}.b"])
                for name in ADAPTED_PROJECTIONS
            }
        return LayerWeights(**{f: arrays[p + f] for f in _LAYER_ARRAYS}, adapters=adapters)

    layers = [layer(f"layers.{i}.") for i in range(config.layers)]
    return Weights(config, layers, **{path: a for path, a in arrays.items() if "." not in path})


def iter_params(weights: Weights) -> Iterable[tuple[str, np.ndarray]]:
    """Yield (path, array) for every parameter, in `_matrix_order`."""
    for path, _ in _matrix_order(weights.config):
        yield path, get_param(weights, path)


_PARAM_PATH = re.compile(r"(?:layers\.(0|[1-9][0-9]*)\.)?(?:adapters\.(\w+)\.([ab])|(\w+))")


def get_param(weights: Weights, path: str) -> np.ndarray:
    """The array at a `_matrix_order` path; any other path raises KeyError."""
    match = _PARAM_PATH.fullmatch(path)
    try:
        layer, projection, factor, field = match.groups()
        owner = weights if layer is None else weights.layers[int(layer)]
        arr = owner.adapters[projection]["ab".index(factor)] if projection else getattr(owner, field)
    except (AttributeError, IndexError, KeyError, TypeError):
        raise KeyError(path) from None
    if not isinstance(arr, np.ndarray):
        raise KeyError(path)
    return arr


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
        for name, shape in _matrix_order(weights.config):
            arr = np.ascontiguousarray(get_param(weights, name), dtype="<f4")
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
        tags: Sequence[str],
        positions: np.ndarray,
        origins: np.ndarray,
    ) -> None:
        """Append entries: per-layer (n, h, dk) K and V, with their tags,
        positions and origin frame indices."""
        if len(tags) == 0:
            return
        for layer in range(self.config.layers):
            self.k[layer] = np.concatenate([self.k[layer], k_new[layer]], axis=0)
            self.v[layer] = np.concatenate([self.v[layer], v_new[layer]], axis=0)
        self.tags.extend(tags)
        self.positions = np.concatenate([self.positions, positions])
        self.origins = np.concatenate([self.origins, origins])

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
    """Add learned absolute position rows to (s, d) or batched (b, s, d) embeddings."""
    positions = np.asarray(positions)
    if x.ndim not in (2, 3) or x.shape[-2] != positions.shape[0]:
        raise ShapeError(f"embeddings {x.shape} do not line up with {positions.shape[0]} positions")
    if positions.size and (positions.min() < 0 or positions.max() >= pos_emb.shape[0]):
        raise CapacityError(
            f"position {int(positions.max())} outside table of {pos_emb.shape[0]} rows"
        )
    return x + pos_emb[positions]


def _project(x: np.ndarray, lw: LayerWeights, name: str) -> np.ndarray:
    """`x` times the layer's projection `name`, plus its adapter if attached."""
    y = x @ getattr(lw, name)
    if lw.adapters is not None and name in lw.adapters:
        a, b = lw.adapters[name]
        y += (x @ a) @ b
    return y


def attention_core(
    qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over any leading batch axes; the engine,
    the dense oracle and the trainer all run it.

    qh: (..., h, m, dk); kh, vh: (..., h, n, dk); mask: (m, n_mask) boolean
    allow-matrix over the last n_mask keys (earlier keys are visible). A
    masked key's probability is exactly 0. Returns (out, probs (..., h, m, n)).
    """
    dk, n = qh.shape[-1], kh.shape[-2]
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores /= np.sqrt(dk).astype(qh.dtype)
    scores[..., n - mask.shape[-1] :][..., ~mask] = -np.inf
    probs = softmax_rows(scores.reshape(-1, n)).reshape(scores.shape)
    return probs @ vh, probs


def attention_forward(
    q: np.ndarray,
    cached_k: np.ndarray,
    cached_v: np.ndarray,
    new_k: np.ndarray,
    new_v: np.ndarray,
    mask: np.ndarray,
    heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention of new queries over cached + new keys.

    q: (m, d); cached/new k, v: (n_cached, h, dk) and (n_new, h, dk);
    mask: (m, n_new) boolean allow-matrix over the new keys only. Cached
    keys are always visible. Returns (output (m, d), probs (h, m, n)).
    """
    m, d = q.shape
    n_cached, n_new = cached_k.shape[0], new_k.shape[0]
    if mask.shape != (m, n_new):
        raise ShapeError(f"mask {mask.shape} does not cover ({m}, {n_new})")
    if n_cached == 0 and not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise DegenerateInputError(f"query {bad} has no allowed key")
    keys = np.concatenate([cached_k, new_k], axis=0)
    values = np.concatenate([cached_v, new_v], axis=0)
    qh = q.reshape(m, heads, d // heads).transpose(1, 0, 2)
    out, probs = attention_core(qh, keys.transpose(1, 0, 2), values.transpose(1, 0, 2), mask)
    return out.transpose(1, 0, 2).reshape(m, d), probs


class _LayerRows(NamedTuple):
    """The new rows one layer runs, as boolean (m,) masks over the step's
    rows, and where its key and query rows sit (None: all of them)."""

    inputs: np.ndarray
    queries: np.ndarray
    keys: np.ndarray
    key_in: np.ndarray | None  # key rows among the input rows
    query_in: np.ndarray | None  # query rows among the input rows
    kept: np.ndarray | None  # cacheable rows among the key rows
    mask: np.ndarray  # the step's mask, query rows by key rows


def _row_plan(
    mask: np.ndarray, cacheable: np.ndarray, read: np.ndarray, layers: int
) -> list[_LayerRows]:
    """Which new rows each layer runs, first layer first.

    One pass down from the top: a layer's query rows are the rows the
    layer above reads (at the last layer, the rows whose logits are
    read); its key rows are the cacheable rows plus every new key a
    query row may see; its input rows are the union of the two, and the
    layer below must produce them. When every row is read, every layer
    runs every row.
    """
    if read.all():
        return [_LayerRows(read, read, read, None, None, _within(cacheable, read), mask)] * layers
    plan = []
    queries = read
    for _ in range(layers):
        keys = cacheable | mask[queries].any(axis=0)
        inputs = queries | keys
        plan.append(_LayerRows(
            inputs, queries, keys, _within(keys, inputs), _within(queries, inputs),
            _within(cacheable, keys), mask[queries][:, keys],
        ))
        queries = inputs
    return plan[::-1]


def _within(sub: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """Index of the `sub` rows among the `rows` rows; None when they are all of them."""
    local = sub[rows]
    return None if local.all() else np.flatnonzero(local)


def _take(a: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    return a if index is None else a[index]


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
    *,
    logit_rows: slice | Sequence[int] = slice(None),
) -> np.ndarray:
    """Run new tokens through the layers against the live cache.

    Position embeddings are added here. `mask` is the (m, m) block over
    the new tokens; every cached entry is visible to every new token.
    After the pass, K/V of the new tokens whose tag is in `CACHEABLE_TAGS`
    (all but raw frame rows) are appended to the cache.

    `logit_rows` (a slice or row indices; default all) names the rows
    whose logits the caller reads, and the logits of those rows, in
    row order, are returned: shape (len(rows), vocab). Each layer runs
    only the rows someone reads (`_row_plan`): the cacheable rows' K/V,
    and the query path of the rows the layer above or the caller reads.
    An ingest reads no rows, so the last layer computes only the
    carrier's K/V and the layer below it runs only the carrier's query.
    When every row is read, every layer runs every row.

    `capture` (attention observer) and `flops` (step counter) are
    optional instrumentation hooks; neither affects any computed value.
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
    read = np.zeros(m, dtype=bool)
    try:
        read[logit_rows] = True
    except IndexError:
        raise ShapeError(f"logit rows {logit_rows!r} outside {m} new tokens") from None

    cacheable = np.array([t in CACHEABLE_TAGS for t in new_tags], dtype=bool)
    plan = _row_plan(mask, cacheable, read, config.layers)
    heads, dk = config.heads, config.head_dim
    first = plan[0].inputs
    x = embed_positions(new_embeddings[first], weights.pos_emb, positions[first])
    k_stash: list[np.ndarray] = []
    v_stash: list[np.ndarray] = []

    # x holds the layer's input rows; each layer leaves its query rows,
    # which are the next layer's input rows
    for layer, (lw, rows) in enumerate(zip(weights.layers, plan)):
        a_in = layer_norm(x, lw.ln1_g, lw.ln1_b)
        key_in = _take(a_in, rows.key_in)
        k_new = _project(key_in, lw, "wk").reshape(-1, heads, dk)
        v_new = _project(key_in, lw, "wv").reshape(-1, heads, dk)
        k_stash.append(_take(k_new, rows.kept))
        v_stash.append(_take(v_new, rows.kept))
        if rows.mask.shape[0] == 0:  # no query row: the layer ends at its K/V
            x = x[:0]
            continue
        q = _project(_take(a_in, rows.query_in), lw, "wq")
        attn, probs = attention_forward(q, cache.k[layer], cache.v[layer], k_new, v_new, rows.mask, heads)
        if capture is not None:
            capture.observe(
                layer=layer,
                probs=probs,
                key_positions=np.concatenate([cache.positions, positions[rows.keys]]),
                key_tags=tuple(cache.tags) + tuple(t for t, keyed in zip(new_tags, rows.keys) if keyed),
                query_positions=positions[rows.queries],
                query_tags=tuple(t for t, asks in zip(new_tags, rows.queries) if asks),
            )
        x = _take(x, rows.query_in) + _project(attn, lw, "wo")
        f_in = layer_norm(x, lw.ln2_g, lw.ln2_b)
        x = x + gelu(f_in @ lw.w1) @ lw.w2

    logits = x @ weights.unembed
    if flops is not None:
        counts = [(int(r.inputs.sum()), int(r.queries.sum()), int(r.keys.sum())) for r in plan]
        flops.add_step(m, len(cache) + m, counts)

    origins = np.asarray(
        new_origins if new_origins is not None else [-1] * m, dtype=np.int64
    )
    kept_tags = [t for t, c in zip(new_tags, cacheable) if c]
    cache.append(k_stash, v_stash, kept_tags, positions[cacheable], origins[cacheable])
    return logits
