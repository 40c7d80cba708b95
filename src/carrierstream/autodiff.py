"""Hand-written reverse-mode gradients for the training path.

Training and gradient checking run at float64 on batched full sequences
(no KV cache); the streaming engine stays float32. The forward has no
math of its own: it calls the engine's kernels (`embed_positions`,
`layer_norm`, `_project`, `attention_core`, `gelu`) over a batch axis,
so on float64 weights its logits equal `model.forward_step`'s bit for
bit. The tape keeps only layer inputs and activations; the backward
recomputes the layer-norm statistics and adapter products it needs. It
always carries the input gradient down through every layer, and it
computes a weight gradient only for the parameter paths the caller
wants: a training stage asks for its own parameter group, the gradient
check for every path.

Masked attention entries have probability exactly 0, so their score
gradients are exactly 0 as well; the leakage guarantees downstream rest
on that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .model import LayerWeights, Weights, _project, attention_core, embed_positions
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


def _ln_backward(
    dy: np.ndarray, x: np.ndarray, g: np.ndarray, grads: dict, prefix: str, want: Wanted
) -> np.ndarray:
    """Gradients of `layer_norm(x, g, b)`, recomputing its statistics from x.

    Stores the gain and bias gradients at `prefix + "g"` and `prefix + "b"`
    when wanted and returns dx, computed in place in `dy`.
    """
    # x_hat and the products with it are the only fresh (b, s, d) arrays:
    # the einsum variance and the in-place updates allocate no other, and
    # each fresh one costs page faults
    x_hat = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", x_hat, x_hat)[..., None] / x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv_std
    d = dy.shape[-1]
    if want(prefix + "g"):
        grads[prefix + "g"] = (dy * x_hat).reshape(-1, d).sum(axis=0)
    if want(prefix + "b"):
        grads[prefix + "b"] = dy.reshape(-1, d).sum(axis=0)
    # dx = inv_std * (dxh - mean(dxh) - x_hat * mean(dxh * x_hat)), dxh = dy * g
    dxh = dy
    dxh *= g
    x_hat *= (dxh * x_hat).mean(axis=-1, keepdims=True)
    dxh -= dxh.mean(axis=-1, keepdims=True)
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
    """Batched float64 forward. Returns (logits (b,s,V), tape, x0)."""
    config = weights.config
    b, s, d = batch.embeds.shape
    if d != config.d_model:
        raise ShapeError(f"embeddings have width {d}, model wants {config.d_model}")
    if batch.mask.shape != (s, s):
        raise ShapeError(f"mask {batch.mask.shape}, expected ({s}, {s})")
    if not batch.mask.any(axis=1).all():
        raise DegenerateInputError("mask has a query row with no allowed key")
    heads, dk = config.heads, config.head_dim

    def split_heads(y: np.ndarray) -> np.ndarray:
        return y.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)

    x = embed_positions(batch.embeds, weights.pos_emb, batch.positions)
    x0 = x
    tape: list[dict] | None = [] if want_tape else None

    for lw in weights.layers:
        a_in = layer_norm(x, lw.ln1_g, lw.ln1_b)
        qh = split_heads(_project(a_in, lw, "wq"))
        kh = split_heads(_project(a_in, lw, "wk"))
        vh = split_heads(_project(a_in, lw, "wv"))
        oh, probs = attention_core(qh, kh, vh, batch.mask)
        o = oh.transpose(0, 2, 1, 3).reshape(b, s, d)
        x1 = _project(o, lw, "wo")
        x1 += x
        f_in = layer_norm(x1, lw.ln2_g, lw.ln2_b)
        h_pre = f_in @ lw.w1
        h = gelu(h_pre)
        if want_tape:
            tape.append(
                dict(x_in=x, a_in=a_in, qh=qh, kh=kh, vh=vh, probs=probs, o=o,
                     x1=x1, f_in=f_in, h_pre=h_pre, h=h)
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
    dx = dlogits @ weights.unembed.T

    # every (b, s, d) and (b, h, s, s) update below is in place: the same
    # operations in the same order as the out-of-place formulas, so the
    # bits match, without a fresh array per term
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

        # attention block: x1 = x_in + proj_o(attn(ln1(x_in)))
        do = _proj_backward(dx1, rec["o"], lw, "wo", grads, prefix, want)
        doh = do.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
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
        dq = dqh.transpose(0, 2, 1, 3).reshape(b, s, d)
        dk_ = dkh.transpose(0, 2, 1, 3).reshape(b, s, d)
        dv = dvh.transpose(0, 2, 1, 3).reshape(b, s, d)
        a_in = rec["a_in"]
        d_a_in = _proj_backward(dq, a_in, lw, "wq", grads, prefix, want)
        d_a_in += _proj_backward(dk_, a_in, lw, "wk", grads, prefix, want)
        d_a_in += _proj_backward(dv, a_in, lw, "wv", grads, prefix, want)
        dx = _ln_backward(d_a_in, rec["x_in"], lw.ln1_g, grads, prefix + "ln1_", want)
        dx += dx1

    if want("pos_emb"):
        d_pos = np.zeros_like(weights.pos_emb)
        np.add.at(d_pos, batch.positions, dx.sum(axis=0))
        grads["pos_emb"] = d_pos
    return grads, dx


def cross_entropy(logits: np.ndarray, batch: TrainBatch) -> tuple[float, np.ndarray, float]:
    """Mean next-token CE over the loss positions.

    Returns (loss, dlogits (b,s,V), accuracy at the loss positions).
    """
    b, s, vocab = logits.shape
    rows = logits[np.arange(b)[:, None], batch.loss_pos]  # (b, q, V)
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
    dlogits[np.arange(b)[:, None], batch.loss_pos] = drows
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
