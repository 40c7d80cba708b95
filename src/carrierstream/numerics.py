"""Dense floating-point kernels shared by every other module.

All kernels preserve the dtype of their inputs: the engine runs them on
float32 arrays, the gradient-check path runs the same code on float64.
They are single-threaded from numpy's point of view (no reduction is
split across kernel calls), so repeated calls on identical inputs are
bit-identical.
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
    out = np.exp(m - top)
    out /= out.sum(axis=1, keepdims=True)
    return out


def layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if v.shape[-1] != gain.shape[-1] or gain.shape != bias.shape:
        raise ShapeError(
            f"layer_norm length mismatch: v[..., {v.shape[-1]}], gain {gain.shape}, bias {bias.shape}"
        )
    if eps <= 0:
        raise ShapeError("eps must be positive")
    mean = v.mean(axis=-1, keepdims=True)
    centered = v - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + np.asarray(eps, dtype=v.dtype)) * gain + bias


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
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


# tanh-form GELU; the same constants are used by the gradient path so
# analytic and finite-difference derivatives agree.
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation)."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return np.asarray(0.5, dtype=x.dtype) * x * (1.0 + np.tanh(inner))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of `gelu` at x."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    return 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
