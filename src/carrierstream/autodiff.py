"""Hand-written reverse-mode gradients for the training path.

Training and gradient checking run at float64 on batched full sequences
(no KV cache); the streaming engine stays float32. The forward has no
math of its own: it calls the engine's kernels (`embed_positions`,
`layer_norm`, `_project`, `attention_core`, `gelu`) over a batch axis,
and it runs the rows the engine's `_row_plan` picks for a step that
caches nothing and reads the loss rows. Each layer computes K/V on its
key rows and the query path on its query rows, and the forward returns
the logits of the read rows only, so on float64 weights they equal
`model.forward_step`'s for those rows bit for bit. The tape keeps only
each layer's rows, inputs and activations; the backward recomputes the
layer-norm statistics and adapter products it needs. It always carries
the input gradient down through every layer, and it computes a weight
gradient only for the parameter paths the caller wants: a training
stage asks for its own parameter group, the gradient check for every
path. A row no layer runs gets an input gradient of exactly 0.

Masked attention entries have probability exactly 0, so their score
gradients are exactly 0 as well; the leakage guarantees downstream rest
on that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .model import LayerWeights, Weights, _project, _row_plan, attention_core, embed_positions
from .numerics import LN_EPS, gelu, gelu_grad, layer_norm


@dataclass
class TrainBatch:
    """One batch of full sequences sharing a layout.

    embeds:   (b, s, d) input embeddings, position rows not yet added
    positions: (s,) absolute positions (shared)
    mask:     (s, s) boolean allow-matrix (shared)
    loss_pos: (b, q) columns where next-token loss applies
    targets:  (b, q) target token ids at those columns
    tok_map:  (b, s) source token id of each row, -1 if not from the
              token table (used to scatter input-row gradients back)
    stub_scatter: weighted links from embedding rows to frame-symbol
              stub rows, as (batch_idx, seq_idx, symbol, coeff) arrays;
              a mean-pooled carrier links to each of its N row symbols
              with coeff 1/N
    """

    embeds: np.ndarray
    positions: np.ndarray
    mask: np.ndarray
    loss_pos: np.ndarray
    targets: np.ndarray
    tok_map: np.ndarray | None = None
    stub_scatter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None


Wanted = Callable[[str], bool]


def _mean(a: np.ndarray) -> np.ndarray:
    """`a.mean(axis=-1, keepdims=True)`, bit for bit."""
    total = np.add.reduce(a, axis=-1, keepdims=True)
    total /= a.shape[-1]
    return total


def _loss_rows(batch: TrainBatch) -> tuple[np.ndarray, np.ndarray]:
    """The rows the loss reads, ascending, and where each loss column
    sits among them, as (r,) and (b, q) arrays."""
    rows, cols = np.unique(batch.loss_pos, return_inverse=True)
    s = batch.embeds.shape[1]
    if rows.size and (rows[0] < 0 or rows[-1] >= s):
        raise ShapeError(f"loss columns {rows[0]}..{rows[-1]} outside {s} rows")
    return rows, cols.reshape(batch.loss_pos.shape)


def _rows(a: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    """The `index` rows of a batched (b, n, ...) array; None: all of them."""
    return a if index is None else a[:, index]


def _spread(part: np.ndarray, index: np.ndarray | None, n: int) -> np.ndarray:
    """`part`, given on the `index` rows (indices or a mask) of n, as all
    n rows, 0 elsewhere; None: `part` is all n rows."""
    if index is None:
        return part
    out = np.zeros(part.shape[:1] + (n,) + part.shape[2:], dtype=part.dtype)
    out[:, index] = part
    return out


def _add_rows(a: np.ndarray, index: np.ndarray | None, part: np.ndarray) -> None:
    """Add `part` to the `index` rows of `a` in place; None: all rows."""
    if index is None:
        a += part
    else:
        a[:, index] += part


def _ln_backward(
    dy: np.ndarray, x: np.ndarray, g: np.ndarray, grads: dict, prefix: str, want: Wanted
) -> np.ndarray:
    """Gradients of `layer_norm(x, g, b)`, recomputing its statistics from x.

    Stores the gain and bias gradients at `prefix + "g"` and `prefix + "b"`
    when wanted and returns dx, computed in place in `dy`.
    """
    # x_hat and the products with it are the only fresh (b, s, d) arrays:
    # the einsum variance and the in-place updates allocate no other, and
    # each fresh one costs page faults. The means are `np.mean`'s own
    # steps (an add-reduce, then a divide by d) without its wrappers.
    d = dy.shape[-1]
    x_hat = x - _mean(x)
    var = np.einsum("...i,...i->...", x_hat, x_hat)[..., None] / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv_std
    if want(prefix + "g"):
        grads[prefix + "g"] = (dy * x_hat).reshape(-1, d).sum(axis=0)
    if want(prefix + "b"):
        grads[prefix + "b"] = dy.reshape(-1, d).sum(axis=0)
    # dx = inv_std * (dxh - mean(dxh) - x_hat * mean(dxh * x_hat)), dxh = dy * g
    dxh = dy
    dxh *= g
    x_hat *= _mean(dxh * x_hat)
    dxh -= _mean(dxh)
    dxh -= x_hat
    dxh *= inv_std
    return dxh


def _proj_backward(
    dy: np.ndarray, x: np.ndarray, lw: LayerWeights, name: str, grads: dict, prefix: str,
    want: Wanted,
) -> np.ndarray:
    """Gradients of `_project(x, lw, name)`; x is the saved projection input."""
    d = x.shape[-1]
    k = dy.shape[-1]
    if want(prefix + name):
        grads[prefix + name] = x.reshape(-1, d).T @ dy.reshape(-1, k)
    dx = dy @ getattr(lw, name).T
    if lw.adapters is not None and name in lw.adapters:
        a, b = lw.adapters[name]
        r = a.shape[1]
        path = prefix + f"adapters.{name}."
        if want(path + "b"):
            grads[path + "b"] = (x @ a).reshape(-1, r).T @ dy.reshape(-1, k)
        dxa = dy @ b.T
        if want(path + "a"):
            grads[path + "a"] = x.reshape(-1, d).T @ dxa.reshape(-1, r)
        dx += dxa @ a.T
    return dx


def forward_train(
    weights: Weights, batch: TrainBatch, want_tape: bool = True
) -> tuple[np.ndarray, list[dict] | None, np.ndarray]:
    """Batched float64 forward of the rows the loss reads.

    The rows are `_row_plan`'s for the batch's mask with no row cached
    and the loss columns of every stream read. Returns (logits (b, r, V)
    of those r rows in row order, tape, x0), where x0 holds the
    position-embedded rows the first layer runs.
    """
    config = weights.config
    b, s, d = batch.embeds.shape
    if d != config.d_model:
        raise ShapeError(f"embeddings have width {d}, model wants {config.d_model}")
    if batch.mask.shape != (s, s):
        raise ShapeError(f"mask {batch.mask.shape}, expected ({s}, {s})")
    if not batch.mask.any(axis=1).all():
        raise DegenerateInputError("mask has a query row with no allowed key")
    heads, dk = config.heads, config.head_dim
    read = np.zeros(s, dtype=bool)
    read[_loss_rows(batch)[0]] = True
    plan = _row_plan(batch.mask, np.zeros(s, dtype=bool), read, config.layers)

    def split_heads(y: np.ndarray) -> np.ndarray:
        return y.reshape(b, -1, heads, dk).transpose(0, 2, 1, 3)

    first = plan[0].inputs
    x = embed_positions(batch.embeds[:, first], weights.pos_emb, batch.positions[first])
    x0 = x
    tape: list[dict] | None = [] if want_tape else None

    # x holds the layer's input rows; each layer leaves its query rows,
    # which are the next layer's input rows
    for lw, rows in zip(weights.layers, plan):
        a_in = layer_norm(x, lw.ln1_g, lw.ln1_b)
        a_q, a_k = _rows(a_in, rows.query_in), _rows(a_in, rows.key_in)
        qh = split_heads(_project(a_q, lw, "wq"))
        kh = split_heads(_project(a_k, lw, "wk"))
        vh = split_heads(_project(a_k, lw, "wv"))
        oh, probs = attention_core(qh, kh, vh, rows.mask)
        o = oh.transpose(0, 2, 1, 3).reshape(b, -1, d)
        x1 = _project(o, lw, "wo")
        x1 += _rows(x, rows.query_in)
        f_in = layer_norm(x1, lw.ln2_g, lw.ln2_b)
        h_pre = f_in @ lw.w1
        h = gelu(h_pre)
        if want_tape:
            tape.append(
                dict(rows=rows, x_in=x, a_q=a_q, a_k=a_k, qh=qh, kh=kh, vh=vh, probs=probs,
                     o=o, x1=x1, f_in=f_in, h_pre=h_pre, h=h)
            )
        x = h @ lw.w2
        x += x1

    logits = x @ weights.unembed
    if want_tape:
        tape.append({"x_final": x})
    return logits, tape, x0


def backward(
    weights: Weights,
    batch: TrainBatch,
    tape: list[dict],
    dlogits: np.ndarray,
    *,
    wanted: Collection[str] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Reverse pass. Returns (grads by parameter path, d input-embeddings).

    `dlogits` is (b, r, V) over the read rows, as `forward_train` returns
    the logits. Each layer's K/V gradient lands on its key rows and its
    query and residual gradients on its query rows; the returned (b, s, d)
    d-embeddings are exactly 0 on the rows no layer ran.

    `wanted` names the parameter paths to compute gradients for; the
    default is every layer weight, adapter factor, pos_emb and unembed,
    and paths backward does not own (tok_emb, stub) are ignored. The
    input gradient always flows through every layer. The token-table
    gradient is the caller's scatter of the returned d-embeddings (the
    rows are the table rows).
    """
    config = weights.config
    b, s, d = batch.embeds.shape
    heads, dk = config.heads, config.head_dim
    scale = 1.0 / np.sqrt(dk)
    grads: dict[str, np.ndarray] = {}
    want: Wanted = (lambda path: True) if wanted is None else frozenset(wanted).__contains__

    if want("unembed"):
        x_final = tape[-1]["x_final"]
        grads["unembed"] = x_final.reshape(-1, d).T @ dlogits.reshape(-1, config.vocab_size)
    dx = dlogits @ weights.unembed.T  # the last layer's query rows

    # every (b, n, d) and (b, h, m, n) update below is in place: the same
    # operations in the same order as the out-of-place formulas, so the
    # bits match, without a fresh array per term. dx holds the gradient
    # of the layer's query rows, and it leaves with its input rows'.
    for layer in range(config.layers - 1, -1, -1):
        lw = weights.layers[layer]
        rec = tape[layer]
        prefix = f"layers.{layer}."

        # feed-forward block: x_out = x1 + gelu(f_in @ w1) @ w2
        dh = dx @ lw.w2.T
        if want(prefix + "w2"):
            grads[prefix + "w2"] = rec["h"].reshape(-1, config.ff_dim).T @ dx.reshape(-1, d)
        dh *= gelu_grad(rec["h_pre"])
        if want(prefix + "w1"):
            grads[prefix + "w1"] = rec["f_in"].reshape(-1, d).T @ dh.reshape(-1, config.ff_dim)
        dx1 = _ln_backward(dh @ lw.w1.T, rec["x1"], lw.ln2_g, grads, prefix + "ln2_", want)
        dx1 += dx

        # attention block: x1 = x_in[q] + proj_o(attn(ln1(x_in)[q], ln1(x_in)[k]))
        rows = rec["rows"]
        do = _proj_backward(dx1, rec["o"], lw, "wo", grads, prefix, want)
        doh = do.reshape(b, -1, heads, dk).transpose(0, 2, 1, 3)
        probs, qh, kh, vh = rec["probs"], rec["qh"], rec["kh"], rec["vh"]
        dvh = probs.transpose(0, 1, 3, 2) @ doh
        # softmax backward: dscores = probs * (dprobs - sum(dprobs * probs))
        dscores = doh @ vh.transpose(0, 1, 3, 2)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dqh = dscores @ kh
        dqh *= scale
        dkh = dscores.transpose(0, 1, 3, 2) @ qh
        dkh *= scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(b, -1, d)
        dk_ = dkh.transpose(0, 2, 1, 3).reshape(b, -1, d)
        dv = dvh.transpose(0, 2, 1, 3).reshape(b, -1, d)
        a_k = rec["a_k"]
        d_a_k = _proj_backward(dk_, a_k, lw, "wk", grads, prefix, want)
        d_a_k += _proj_backward(dv, a_k, lw, "wv", grads, prefix, want)
        n_in = rec["x_in"].shape[1]
        d_a_in = _spread(d_a_k, rows.key_in, n_in)
        d_a_q = _proj_backward(dq, rec["a_q"], lw, "wq", grads, prefix, want)
        _add_rows(d_a_in, rows.query_in, d_a_q)
        dx = _ln_backward(d_a_in, rec["x_in"], lw.ln1_g, grads, prefix + "ln1_", want)
        _add_rows(dx, rows.query_in, dx1)

    first = tape[0]["rows"].inputs
    if want("pos_emb"):
        d_pos = np.zeros_like(weights.pos_emb)
        np.add.at(d_pos, batch.positions[first], dx.sum(axis=0))
        grads["pos_emb"] = d_pos
    return grads, _spread(dx, first, s)


def cross_entropy(logits: np.ndarray, batch: TrainBatch) -> tuple[float, np.ndarray, float]:
    """Mean next-token CE over the loss positions.

    `logits` are (b, r, V) over the rows the loss reads, as `forward_train`
    returns them. Returns (loss, dlogits (b, r, V), accuracy at the loss
    positions).
    """
    b = logits.shape[0]
    at = (np.arange(b)[:, None], _loss_rows(batch)[1])
    rows = logits[at]  # (b, q, V)
    z = rows - rows.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    q = batch.loss_pos.shape[1]
    picked = logp[np.arange(b)[:, None], np.arange(q)[None, :], batch.targets]
    loss = float(-picked.mean())
    acc = float((rows.argmax(axis=-1) == batch.targets).mean())

    drows = np.exp(logp)
    drows[np.arange(b)[:, None], np.arange(q)[None, :], batch.targets] -= 1.0
    drows /= b * q
    dlogits = np.zeros_like(logits)
    np.add.at(dlogits, at, drows)  # a column a stream lists twice counts twice
    return loss, dlogits, acc


def batch_loss(weights: Weights, batch: TrainBatch) -> float:
    logits, _, _ = forward_train(weights, batch, want_tape=False)
    loss, _, _ = cross_entropy(logits, batch)
    return loss


def batch_loss_and_grads(
    weights: Weights, batch: TrainBatch, *, wanted: Collection[str] | None = None
) -> tuple[float, dict[str, np.ndarray], np.ndarray, float]:
    """Returns (loss, grads, d_embeds, accuracy); `wanted` as in `backward`."""
    logits, tape, _ = forward_train(weights, batch, want_tape=True)
    loss, dlogits, acc = cross_entropy(logits, batch)
    grads, d_embeds = backward(weights, batch, tape, dlogits, wanted=wanted)
    return loss, grads, d_embeds, acc
