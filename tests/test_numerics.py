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
