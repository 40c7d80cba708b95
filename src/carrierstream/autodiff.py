"""Hand-written reverse-mode gradients for the training path.

Training and gradient checking run at float64 on batched full sequences
(no KV cache); the streaming engine stays float32. The forward has no
math of its own: it calls the engine's kernels (`embed_positions`,
`layer_norm`, `_project`, `attention_core`, `gelu`) over a batch axis,
so on float64 weights its logits equal `model.forward_step`'s bit for
bit. The tape keeps only layer inputs and activations; the backward
recomputes the layer-norm statistics and adapter products it needs and
visits every weight, including adapter factors.

Masked attention entries have probability exactly 0, so their score
gradients are exactly 0 as well; the leakage guarantees downstream rest
on that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _ln_backward(
    dy: np.ndarray, x: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of `layer_norm(x, g, b)`, recomputing its statistics from x."""
    # x_hat is the only (b, s, d) temporary: the einsum variance and the
    # in-place scale allocate no other, and each fresh one costs page faults
    x_hat = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", x_hat, x_hat)[..., None] / x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv_std
    d_g = (dy * x_hat).reshape(-1, dy.shape[-1]).sum(axis=0)
    d_b = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxh = dy * g
    dx = inv_std * (
        dxh
        - dxh.mean(axis=-1, keepdims=True)
        - x_hat * (dxh * x_hat).mean(axis=-1, keepdims=True)
    )
    return dx, d_g, d_b


def _proj_backward(
    dy: np.ndarray, x: np.ndarray, lw: LayerWeights, name: str, grads: dict, prefix: str
) -> np.ndarray:
    """Gradients of `_project(x, lw, name)`; x is the saved projection input."""
    d = x.shape[-1]
    k = dy.shape[-1]
    grads[prefix + name] = x.reshape(-1, d).T @ dy.reshape(-1, k)
    dx = dy @ getattr(lw, name).T
    if lw.adapters is not None and name in lw.adapters:
        a, b = lw.adapters[name]
        r = a.shape[1]
        grads[prefix + f"adapters.{name}.b"] = (x @ a).reshape(-1, r).T @ dy.reshape(-1, k)
        dxa = dy @ b.T
        grads[prefix + f"adapters.{name}.a"] = x.reshape(-1, d).T @ dxa.reshape(-1, r)
        dx = dx + dxa @ a.T
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
        x1 = x + _project(o, lw, "wo")
        f_in = layer_norm(x1, lw.ln2_g, lw.ln2_b)
        h_pre = f_in @ lw.w1
        h = gelu(h_pre)
        if want_tape:
            tape.append(
                dict(x_in=x, a_in=a_in, qh=qh, kh=kh, vh=vh, probs=probs, o=o,
                     x1=x1, f_in=f_in, h_pre=h_pre, h=h)
            )
        x = x1 + h @ lw.w2

    logits = x @ weights.unembed
    if want_tape:
        tape.append({"x_final": x})
    return logits, tape, x0


def backward(
    weights: Weights, batch: TrainBatch, tape: list[dict], dlogits: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Reverse pass. Returns (grads by parameter path, d input-embeddings).

    Grads cover every layer weight, adapters, pos_emb, and unembed; the
    token-table gradient is the caller's scatter of the returned
    d-embeddings (the rows are the table rows).
    """
    config = weights.config
    b, s, d = batch.embeds.shape
    heads, dk = config.heads, config.head_dim
    scale = 1.0 / np.sqrt(dk)
    grads: dict[str, np.ndarray] = {}

    x_final = tape[-1]["x_final"]
    grads["unembed"] = x_final.reshape(-1, d).T @ dlogits.reshape(-1, config.vocab_size)
    dx = dlogits @ weights.unembed.T

    for layer in range(config.layers - 1, -1, -1):
        lw = weights.layers[layer]
        rec = tape[layer]
        prefix = f"layers.{layer}."

        # feed-forward block: x_out = x1 + gelu(f_in @ w1) @ w2
        dh = dx @ lw.w2.T
        grads[prefix + "w2"] = rec["h"].reshape(-1, config.ff_dim).T @ dx.reshape(-1, d)
        dh_pre = dh * gelu_grad(rec["h_pre"])
        grads[prefix + "w1"] = rec["f_in"].reshape(-1, d).T @ dh_pre.reshape(-1, config.ff_dim)
        d_f_in = dh_pre @ lw.w1.T
        d_x1_ln, d_g2, d_b2 = _ln_backward(d_f_in, rec["x1"], lw.ln2_g)
        grads[prefix + "ln2_g"] = d_g2
        grads[prefix + "ln2_b"] = d_b2
        dx1 = dx + d_x1_ln

        # attention block: x1 = x_in + proj_o(attn(ln1(x_in)))
        do = _proj_backward(dx1, rec["o"], lw, "wo", grads, prefix)
        doh = do.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
        probs, qh, kh, vh = rec["probs"], rec["qh"], rec["kh"], rec["vh"]
        dprobs = doh @ vh.transpose(0, 1, 3, 2)
        dvh = probs.transpose(0, 1, 3, 2) @ doh
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dqh = dscores @ kh * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(b, s, d)
        dk_ = dkh.transpose(0, 2, 1, 3).reshape(b, s, d)
        dv = dvh.transpose(0, 2, 1, 3).reshape(b, s, d)
        a_in = rec["a_in"]
        d_a_in = _proj_backward(dq, a_in, lw, "wq", grads, prefix)
        d_a_in += _proj_backward(dk_, a_in, lw, "wk", grads, prefix)
        d_a_in += _proj_backward(dv, a_in, lw, "wv", grads, prefix)
        d_x_ln, d_g1, d_b1 = _ln_backward(d_a_in, rec["x_in"], lw.ln1_g)
        grads[prefix + "ln1_g"] = d_g1
        grads[prefix + "ln1_b"] = d_b1
        dx = dx1 + d_x_ln

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
    weights: Weights, batch: TrainBatch
) -> tuple[float, dict[str, np.ndarray], np.ndarray, float]:
    """Returns (loss, grads, d_embeds, accuracy)."""
    logits, tape, _ = forward_train(weights, batch, want_tape=True)
    loss, dlogits, acc = cross_entropy(logits, batch)
    grads, d_embeds = backward(weights, batch, tape, dlogits)
    return loss, grads, d_embeds, acc
