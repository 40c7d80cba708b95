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
Which rows those are depends only on the step's mask, tags and rows
read, so `plan_step` works them out once into a `StepPlan` that a
caller running the same step shape again can pass back in.

The cache is an arena: each layer's K and V sit in preallocated slots
whose live prefix holds the entries in position order. An append fills
the next slots, a delete shifts the later entries down in place, and
neither reallocates until the arena runs out of slots.
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

# arena slots a fresh KvCache keeps beyond the M + 1 carriers, for system
# and text entries; a longer dialogue doubles the capacity
KV_OTHER_SLOTS = 64

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
    """Per-layer key/value arena with shared entry metadata.

    Every layer holds the same entries in the same order, so tags,
    positions, and origin frame indices are stored once. Entries carry
    the position they were computed at, in strictly increasing order;
    deletes leave position gaps.

    Each layer's K and V live in a preallocated (capacity, h, dk) slab,
    whose first `len(cache)` slots are the live entries, in order (one
    sequence of fixed-size slots, as in PagedAttention's block table,
    reduced to a single ordered block). All slabs share one array, so
    one copy moves an entry in every layer. `append` writes the next
    free slots and doubles the capacity when it runs out; a delete
    shifts the later entries down in place. `k`, `v`, `positions` and
    `origins` read as views of the live prefix, so they change with the
    cache. The capacity starts at M + 1 carriers plus `KV_OTHER_SLOTS`
    system and text entries, whatever `max_positions` is.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.tags: list[str] = []
        self._n = 0
        h, dk = config.heads, config.head_dim
        capacity = config.memory_capacity + 1 + KV_OTHER_SLOTS
        self._kv = np.empty((config.layers, 2, capacity, h, dk), dtype=np.float32)  # K, V
        self._meta = np.empty((2, capacity), dtype=np.int64)  # positions, origins (-1: no frame)

    def __len__(self) -> int:
        return self._n

    @property
    def k(self) -> list[np.ndarray]:
        return list(self._kv[:, 0, : self._n])

    @property
    def v(self) -> list[np.ndarray]:
        return list(self._kv[:, 1, : self._n])

    @property
    def positions(self) -> np.ndarray:
        return self._meta[0, : self._n]

    @property
    def origins(self) -> np.ndarray:
        return self._meta[1, : self._n]

    @property
    def max_position(self) -> int:
        return -1 if self._n == 0 else int(self._meta[0, self._n - 1])

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
        count = len(tags)
        if count == 0:
            return
        n, capacity = self._n, self._meta.shape[1]
        if n + count > capacity:
            self._reserve(max(2 * capacity, n + count))
        end = n + count
        for layer in range(self.config.layers):
            self._kv[layer, 0, n:end] = k_new[layer]
            self._kv[layer, 1, n:end] = v_new[layer]
        self._meta[0, n:end] = positions
        self._meta[1, n:end] = origins
        self.tags.extend(tags)
        self._n = end

    def _reserve(self, capacity: int) -> None:
        """Move the live entries into an arena of `capacity` slots."""
        n = self._n
        kv = np.empty(self._kv.shape[:2] + (capacity,) + self._kv.shape[3:], dtype=np.float32)
        kv[:, :, :n] = self._kv[:, :, :n]
        meta = np.empty((2, capacity), dtype=np.int64)
        meta[:, :n] = self._meta[:, :n]
        self._kv, self._meta = kv, meta

    def delete_origin(self, frame_index: int) -> int:
        """Drop every entry that originated from the given frame."""
        return self._drop(self.origins == frame_index)

    def delete_tag(self, tag: str) -> int:
        """Drop every entry with the given segment tag."""
        return self._drop(np.array([t == tag for t in self.tags], dtype=bool))

    def _drop(self, drop: np.ndarray) -> int:
        """Remove the entries flagged in `drop` (one flag per live entry)
        by moving each run of survivors down over the gap before it;
        returns how many went."""
        gone = np.flatnonzero(drop).tolist()
        if not gone:
            return 0
        end = gone[0]
        for g, nxt in zip(gone, gone[1:] + [self._n]):  # survivors g+1 .. nxt-1 move to `end`
            count = nxt - g - 1
            if count:
                self._kv[:, :, end : end + count] = self._kv[:, :, g + 1 : nxt]
                self._meta[:, end : end + count] = self._meta[:, g + 1 : nxt]
                end += count
        for g in reversed(gone):
            del self.tags[g]
        self._n = end
        return len(gone)

    def entry_kv(self, index: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (k, v) copies for one cache entry."""
        ks = [k[index].copy() for k in self.k]
        vs = [v[index].copy() for v in self.v]
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


class StepPlan(NamedTuple):
    """What a step's mask, tags and rows read fix, worked out once: a
    step with the same three (and layer count) runs the same plan."""

    mask: np.ndarray  # (m, m) allow block over the new rows
    tags: tuple[str, ...]
    kept: np.ndarray | None  # the cacheable rows, whose K/V the cache keeps (None: all)
    kept_tags: tuple[str, ...]
    layers: tuple[_LayerRows, ...]  # `_row_plan`, first layer first
    counts: tuple[tuple[int, int, int], ...]  # per layer: input, query and key rows


def plan_step(
    mask: np.ndarray, tags: Sequence[str], logit_rows: slice | Sequence[int], layers: int
) -> StepPlan:
    """The plan of a step over `len(tags)` new rows under `mask` whose
    caller reads the logits of `logit_rows`."""
    m = len(tags)
    if mask.shape != (m, m):
        raise ShapeError(f"mask {mask.shape}, expected ({m}, {m})")
    read = np.zeros(m, dtype=bool)
    try:
        read[logit_rows] = True
    except IndexError:
        raise ShapeError(f"logit rows {logit_rows!r} outside {m} new tokens") from None
    cacheable = np.array([t in CACHEABLE_TAGS for t in tags], dtype=bool)
    rows = tuple(_row_plan(mask, cacheable, read, layers))
    return StepPlan(
        mask=mask,
        tags=tuple(tags),
        kept=None if cacheable.all() else np.flatnonzero(cacheable),
        kept_tags=tuple(t for t, c in zip(tags, cacheable) if c),
        layers=rows,
        counts=tuple((int(r.inputs.sum()), int(r.queries.sum()), int(r.keys.sum())) for r in rows),
    )


def forward_step(
    weights: Weights,
    cache: KvCache,
    new_embeddings: np.ndarray,
    positions: np.ndarray,
    mask: np.ndarray | StepPlan,
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

    In place of the block, `mask` may be the step's `StepPlan`
    (`plan_step`), which fixes the block, the tags and the rows read
    together; `new_tags` are then its tags and `logit_rows` is not
    used. A caller that runs one step shape many times plans it once.

    `capture` (attention observer) and `flops` (step counter) are
    optional instrumentation hooks; neither affects any computed value.
    """
    config = weights.config
    plan = mask if isinstance(mask, StepPlan) else plan_step(mask, new_tags, logit_rows, config.layers)
    m = new_embeddings.shape[0]
    if new_embeddings.shape != (m, config.d_model):
        raise ShapeError(f"embeddings {new_embeddings.shape}, expected ({m}, {config.d_model})")
    if len(plan.tags) != m:
        raise ShapeError(f"{len(plan.tags)} tags for {m} tokens")
    if len(plan.layers) != config.layers:
        raise ShapeError(f"a plan of {len(plan.layers)} layers for a {config.layers}-layer model")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape != (m,):
        raise ShapeError(f"positions {positions.shape}, expected ({m},)")
    if m > 1 and not (np.diff(positions) > 0).all():
        raise OrderingError("new positions must be strictly increasing")
    if m and positions[0] <= cache.max_position:
        raise OrderingError(
            f"position {int(positions[0])} not after cached maximum {cache.max_position}"
        )

    heads, dk = config.heads, config.head_dim
    first = plan.layers[0].inputs
    x = embed_positions(new_embeddings[first], weights.pos_emb, positions[first])
    cached_k, cached_v = cache.k, cache.v
    k_stash: list[np.ndarray] = []
    v_stash: list[np.ndarray] = []

    # x holds the layer's input rows; each layer leaves its query rows,
    # which are the next layer's input rows
    for layer, (lw, rows) in enumerate(zip(weights.layers, plan.layers)):
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
        attn, probs = attention_forward(q, cached_k[layer], cached_v[layer], k_new, v_new, rows.mask, heads)
        if capture is not None:
            capture.observe(
                layer=layer,
                probs=probs,
                key_positions=np.concatenate([cache.positions, positions[rows.keys]]),
                key_tags=tuple(cache.tags) + tuple(t for t, keyed in zip(plan.tags, rows.keys) if keyed),
                query_positions=positions[rows.queries],
                query_tags=tuple(t for t, asks in zip(plan.tags, rows.queries) if asks),
            )
        x = _take(x, rows.query_in) + _project(attn, lw, "wo")
        f_in = layer_norm(x, lw.ln2_g, lw.ln2_b)
        x = x + gelu(f_in @ lw.w1) @ lw.w2

    logits = x @ weights.unembed
    if flops is not None:
        flops.add_step(m, len(cache) + m, plan.counts)

    origins = np.asarray(
        new_origins if new_origins is not None else [-1] * m, dtype=np.int64
    )
    cache.append(k_stash, v_stash, plan.kept_tags, _take(positions, plan.kept), _take(origins, plan.kept))
    return logits
