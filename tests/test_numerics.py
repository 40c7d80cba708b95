import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carrierstream import (
    DegenerateInputError,
    ShapeError,
    cosine_similarity,
    gelu,
    gelu_grad,
    layer_norm,
    softmax_rows,
)
from carrierstream.model import attention_core


def test_softmax_rows_hand_values():
    out = softmax_rows(np.array([[0.0, 0.0], [0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-12)


def test_softmax_rows_masked_entries_are_exact_zero():
    # a masked entry is a -inf score
    out = softmax_rows(np.array([[1.0, -np.inf, 3.0]]))
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rows_stable_at_large_magnitudes():
    out = softmax_rows(np.array([[1e4, 1e4 + 1.0]]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_softmax_rows_fully_masked_row_names_the_row():
    m = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
    with pytest.raises(DegenerateInputError, match="row 1"):
        softmax_rows(m)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, (4, 6), elements=st.floats(-50, 50)),
    arrays(np.bool_, (4, 6)),
)
def test_softmax_rows_sum_to_one(m, mask):
    mask[:, 0] = True  # keep every row satisfiable
    out = softmax_rows(np.where(mask, m, -np.inf))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out[~mask] == 0.0)


def test_layer_norm_matches_reference():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 8))
    gain = rng.standard_normal(8)
    bias = rng.standard_normal(8)
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    ref = (v - mu) / np.sqrt(var + 1e-5) * gain + bias
    np.testing.assert_allclose(layer_norm(v, gain, bias), ref, atol=1e-12)


def test_cosine_similarity_reference_points():
    a = np.array([1.0, 0.0])
    assert cosine_similarity(a, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert cosine_similarity(a, np.array([-3.0, 0.0])) == pytest.approx(-1.0)
    assert cosine_similarity(a, np.array([0.0, 5.0])) == pytest.approx(0.0)


def test_cosine_similarity_clamped_and_guards_zero():
    # parallel vectors can round past 1.0 without the clamp
    v = np.full(16, 0.1, dtype=np.float32)
    assert -1.0 <= cosine_similarity(v, 3.0 * v) <= 1.0
    with pytest.raises(DegenerateInputError):
        cosine_similarity(np.zeros(4), np.ones(4))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "parallel", "overflow"]),
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
def test_cosine_similarity_clamp_equals_np_clip(kind, dtype, d, seed):
    # parallel vectors round past +-1, and float32 vectors near 1e19
    # overflow into an inf/inf NaN that must pass through the clamp
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d)
    if kind == "random":
        b = rng.standard_normal(d)
    elif kind == "parallel":
        b = rng.uniform(-5.0, 5.0) * a
    else:
        dtype = np.float32
        a, b = 1e19 * a, 1e19 * rng.standard_normal(d)
    a, b = a.astype(dtype), b.astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        got = cosine_similarity(a, b)
    expect = float(np.clip(ratio, -1.0, 1.0))
    assert type(got) is float
    assert got == expect or (np.isnan(got) and np.isnan(expect))


def test_gelu_fixed_points():
    assert gelu(np.array(0.0)) == 0.0
    # gelu(x) -> x for large positive x, -> 0 for large negative x
    assert gelu(np.array(10.0)) == pytest.approx(10.0, abs=1e-6)
    assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.floats(-4, 4))
def test_gelu_grad_matches_finite_difference(x):
    h = 1e-6
    fd = (gelu(np.array(x + h)) - gelu(np.array(x - h))) / (2 * h)
    assert gelu_grad(np.array(x)) == pytest.approx(fd, abs=1e-7)


# The kernels evaluate these textbook expressions in place, with the same
# operations in the same order; each reference is the out-of-place form,
# and the kernel must equal it bit for bit.
def reference_softmax_rows(m):
    top = m.max(axis=1, keepdims=True)
    out = np.exp(m - top)
    out /= out.sum(axis=1, keepdims=True)
    return out


def reference_attention_core(qh, kh, vh, mask):
    dk, n = qh.shape[-1], kh.shape[-2]
    scores = qh @ np.swapaxes(kh, -1, -2) / np.sqrt(dk).astype(qh.dtype)
    scores[..., n - mask.shape[-1] :][..., ~mask] = -np.inf
    probs = reference_softmax_rows(scores.reshape(-1, n)).reshape(scores.shape)
    return probs @ vh, probs


def reference_layer_norm(v, gain, bias):
    mean = v.mean(axis=-1, keepdims=True)
    centered = v - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + np.asarray(1e-5, dtype=v.dtype)) * gain + bias


def reference_gelu(x):
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return np.asarray(0.5, dtype=x.dtype) * x * (1.0 + np.tanh(inner))


def reference_gelu_grad(x):
    c, a = 0.7978845608028654, 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    sech2 = 1.0 - t * t
    return 0.5 * (1.0 + t) + 0.5 * x * sech2 * c * (1.0 + 3.0 * a * x * x)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 40),
    st.integers(1, 70),
    st.sampled_from([1.0, 30.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_softmax_rows_equals_reference_formula(dtype, rows, cols, spread, seed):
    # random masks, fully masked tails, and scores spread far enough that
    # exp underflows; masked slots must come out exactly 0
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((rows, cols)) * spread).astype(dtype)
    masked = rng.random((rows, cols)) < rng.uniform(0.0, 0.95)
    tail = rng.integers(1, cols + 1, size=rows)
    masked |= np.arange(cols) >= tail[:, None]  # row r keeps at most its first tail[r] entries
    masked[np.arange(rows), rng.integers(0, tail)] = False  # and at least one of them
    m[masked] = -np.inf
    out = softmax_rows(m)
    assert out.dtype == dtype
    assert np.array_equal(out, reference_softmax_rows(m))
    assert np.all(out[masked] == 0.0)
    bad = int(rng.integers(0, rows))
    m[bad] = -np.inf
    with pytest.raises(DegenerateInputError, match=f"row {bad} "):
        softmax_rows(m)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 3),
    st.integers(1, 12),
    st.integers(0, 6),
    st.sampled_from([1.0, 40.0]),
    st.integers(0, 2**32 - 1),
)
def test_attention_core_equals_reference_formula(dtype, heads, m, cached, spread, seed):
    rng = np.random.default_rng(seed)
    dk, n = 4, cached + m
    qh, kh, vh = ((rng.standard_normal((2, heads, rows, dk)) * spread).astype(dtype)
                  for rows in (m, n, n))
    mask = rng.random((m, m)) < 0.4
    if cached == 0:
        mask[np.arange(m), rng.integers(0, m, size=m)] = True
    out, probs = attention_core(qh, kh, vh, mask)
    ref_out, ref_probs = reference_attention_core(qh, kh, vh, mask)
    assert np.array_equal(out, ref_out) and np.array_equal(probs, ref_probs)
    assert np.all(probs[..., cached:][..., ~mask] == 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([(), (5,), (9, 32), (2, 6, 16)]),
    st.sampled_from([0.1, 3.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_gelu_and_layer_norm_equal_reference_formulas(dtype, shape, spread, seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.standard_normal(shape) * spread, dtype=dtype)
    with np.errstate(over="ignore"):  # float32 x**3 overflows at 1e3 spreads
        assert np.array_equal(gelu(x), reference_gelu(x))
        assert np.array_equal(gelu_grad(x), reference_gelu_grad(x), equal_nan=True)
    if shape:
        gain, bias = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        out = layer_norm(x, gain, bias)
        assert out.dtype == dtype and np.array_equal(out, reference_layer_norm(x, gain, bias))
