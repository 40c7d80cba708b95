"""Dense floating-point kernels shared by every other module.

All kernels preserve the dtype of their inputs: the engine runs them on
float32 arrays, the trainer and gradient check call the same functions
on float64. They are single-threaded from numpy's point of view (no
reduction is split across kernel calls), so repeated calls on identical
inputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction.

    A -inf entry (a masked one) comes out exactly 0. A row whose entries
    are all -inf raises DegenerateInputError naming the row.
    """
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-d array, got {m.ndim}-d")
    top = m.max(axis=1, keepdims=True)
    if np.isneginf(top).any():
        bad = int(np.flatnonzero(np.isneginf(top))[0])
        raise DegenerateInputError(f"row {bad} has no unmasked entry")
    z = m - top
    if z.dtype == np.float64:
        # float64 exp takes a slow path on -inf (float32 has none), so
        # the masked slots take exp(0) and are zeroed after: same bits
        masked = z == -np.inf
        np.putmask(z, masked, 0.0)
        out = np.exp(z, out=z)
        np.putmask(out, masked, 0.0)
    else:
        out = np.exp(z, out=z)
    out /= out.sum(axis=1, keepdims=True)
    return out


LN_EPS = 1e-5  # the one layer-norm variance floor; the backward in autodiff uses it too


def layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    The means are `np.mean`'s own steps (an add-reduce in the input's
    dtype, then a divide by the count), without its per-call wrappers.
    """
    d = v.shape[-1]
    if d != gain.shape[-1] or gain.shape != bias.shape:
        raise ShapeError(
            f"layer_norm length mismatch: v[..., {d}], gain {gain.shape}, bias {bias.shape}"
        )
    mean = np.add.reduce(v, axis=-1, keepdims=True)
    mean /= d
    centered = v - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= d
    centered /= np.sqrt(var + np.asarray(LN_EPS, dtype=v.dtype))
    centered *= gain
    centered += bias
    return centered


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    Zero-norm inputs raise DegenerateInputError.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"cosine_similarity expects equal-length vectors, got {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine_similarity of a zero-norm vector")
    # max and min return their first argument unless the second wins, so NaN passes
    return min(max(float(a @ b) / (na * nb), -1.0), 1.0)


# tanh-form GELU; the same constants are used by the gradient path so
# analytic and finite-difference derivatives agree. Both kernels evaluate
# the textbook expressions (kept in tests/test_numerics.py) with the same
# operations in the same order, in place: the bits are the same, and
# each call allocates two or three arrays instead of a dozen.
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _tanh_inner(x: np.ndarray) -> np.ndarray:
    """A fresh array holding tanh(_GELU_C * (x + _GELU_A * x * x * x))."""
    t = np.multiply(_GELU_A, x, out=np.empty_like(x))  # out= keeps a 0-d input an array
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation): 0.5 * x * (1 + tanh(inner))."""
    y = _tanh_inner(x)
    y += 1.0
    y *= np.asarray(0.5, dtype=x.dtype) * x
    return y


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of `gelu` at x:
    0.5 * (1 + t) + 0.5 * x * (1 - t * t) * _GELU_C * (1 + 3 * _GELU_A * x * x)."""
    t = _tanh_inner(x)
    scratch = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, scratch, out=scratch)
    slope = 0.5 * x
    slope *= scratch
    slope *= _GELU_C
    np.multiply(3.0 * _GELU_A, x, out=scratch)
    scratch *= x
    scratch += 1.0
    slope *= scratch
    t += 1.0
    t *= 0.5
    t += slope
    return t
