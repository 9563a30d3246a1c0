import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthuq.discretize import (
    DepthHypotheses,
    bilinear_bin_weights,
    check_probabilities,
    expectation_depth,
    linear_hypotheses,
    soft_labels,
    softmax_volume,
)


def test_hypotheses_endpoints():
    hyp = linear_hypotheses(0.001, 10.0, 2)
    np.testing.assert_array_equal(hyp.values, [0.001, 10.0])
    assert hyp.d_min == 0.001 and hyp.d_max == 10.0


def test_hypotheses_uniform():
    np.testing.assert_allclose(linear_hypotheses(1, 3, 3).values, [1.0, 2.0, 3.0])


def test_hypotheses_reject_nonpositive_min():
    with pytest.raises(ValueError):
        linear_hypotheses(0.0, 3.0, 4)


def test_hypotheses_reject_bad_range():
    with pytest.raises(ValueError):
        linear_hypotheses(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        linear_hypotheses(1.0, 2.0, 1)
    # an infinite range failed later, as "hypotheses must be strictly increasing"
    with pytest.raises(ValueError, match=r"^need 0 < d_min < d_max, got \[1.0, inf\]$"):
        linear_hypotheses(1.0, np.inf, 4)


def test_hypotheses_type_requires_increase():
    with pytest.raises(ValueError):
        DepthHypotheses(np.array([1.0, 1.0, 2.0]))


def test_expectation_one_hot():
    hyp = DepthHypotheses(np.array([1.0, 2.0, 3.0]))
    assert expectation_depth(hyp, np.array([0.0, 1.0, 0.0])) == 2.0


def test_expectation_midpoint():
    hyp = DepthHypotheses(np.array([0.5, 10.0]))
    assert expectation_depth(hyp, np.array([0.5, 0.5])) == 5.25


def test_expectation_weighted():
    hyp = DepthHypotheses(np.array([1.0, 2.0, 3.0]))
    d = expectation_depth(hyp, np.array([0.2, 0.5, 0.3]))
    assert abs(d - 2.1) < 1e-12


def test_expectation_extent_mismatch():
    hyp = linear_hypotheses(1, 10, 4)
    with pytest.raises(ValueError):
        expectation_depth(hyp, np.zeros((2, 2, 5)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_expectation_bounds_on_simplexes(seed, m):
    rng = np.random.default_rng(seed)
    hyp = linear_hypotheses(0.5, 9.5, m)
    p = rng.dirichlet(np.full(m, 0.5), size=(3, 4))
    d = expectation_depth(hyp, p)
    assert np.all(d >= hyp.d_min) and np.all(d <= hyp.d_max)


def test_soft_labels_symmetric():
    hyp = DepthHypotheses(np.array([1.0, 3.0]))
    y = soft_labels(hyp, np.array([2.0]), gamma=20.0).values
    np.testing.assert_allclose(y[0], [0.5, 0.5], atol=1e-15)


def test_soft_labels_known_triple():
    # distances 0, 1, 2 at gamma 1
    hyp = DepthHypotheses(np.array([1.0, 2.0, 3.0]))
    y = soft_labels(hyp, np.array([1.0]), gamma=1.0).values[0]
    np.testing.assert_allclose(y, [0.66524, 0.24473, 0.09003], atol=1e-5)


def test_soft_labels_invalid_rows_zeroed():
    hyp = linear_hypotheses(1, 10, 4)
    lab = soft_labels(hyp, np.array([2.0, np.nan, -1.0]), gamma=20.0)
    assert lab.valid.tolist() == [True, False, False]
    np.testing.assert_array_equal(lab.values[1:], 0.0)


def test_soft_labels_reject_bad_gamma():
    hyp = linear_hypotheses(1, 10, 4)
    with pytest.raises(ValueError):
        soft_labels(hyp, np.array([2.0]), gamma=0.0)
    # NaN passed the `<= 0` check; NaN and inf gave non-finite labels
    for gamma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^gamma must be a finite number > 0, got {gamma}$"):
            soft_labels(hyp, np.array([2.0]), gamma=gamma)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_soft_labels_rows_are_proper(seed):
    rng = np.random.default_rng(seed)
    hyp = linear_hypotheses(1.0, 10.0, int(rng.integers(2, 24)))
    gt = rng.uniform(1.0, 10.0, size=(5, 3))
    lab = soft_labels(hyp, gt, gamma=float(rng.uniform(0.1, 60)))
    sums = lab.values.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) < 1e-6)
    # peak sits on the nearest hypothesis
    nearest = np.argmin(np.abs(gt[..., None] - hyp.values), axis=-1)
    np.testing.assert_array_equal(np.argmax(lab.values, axis=-1), nearest)


def test_soft_labels_monotone_in_distance():
    hyp = linear_hypotheses(1.0, 10.0, 10)
    y = soft_labels(hyp, np.array([4.3]), gamma=7.0).values[0]
    dist = np.abs(hyp.values - 4.3)
    order = np.argsort(dist)
    assert np.all(np.diff(y[order]) < 0)


def test_soft_labels_survive_huge_gamma():
    hyp = linear_hypotheses(1.0, 10.0, 16)
    y = soft_labels(hyp, np.array([5.5]), gamma=1e6).values[0]
    assert np.isfinite(y).all() and abs(y.sum() - 1.0) < 1e-9


def test_softmax_uniform():
    np.testing.assert_allclose(softmax_volume(np.zeros(3)), np.full(3, 1 / 3))
    np.testing.assert_allclose(softmax_volume(np.full(5, 7.7)), np.full(5, 0.2))


def test_softmax_closed_form():
    p = softmax_volume(np.array([0.0, np.log(3.0)]))
    np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-15)


def test_softmax_shift_invariance():
    z = np.array([[0.3, -1.2, 4.0], [2.0, 2.0, -7.0]])
    p0 = softmax_volume(z)
    p1 = softmax_volume(z + 123.456)
    assert np.max(np.abs(p0 - p1)) < 1e-12


def test_softmax_large_logits_stable():
    p = softmax_volume(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=10.0, size=(4, 3, 6))
    p = softmax_volume(z)
    assert np.all(np.abs(p.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(p >= 0)


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 16), (2, 3, 129)])
def test_softmax_matches_last_axis_formula_bitwise(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    z = rng.normal(scale=8.0, size=shape)
    z.flat[0] = -0.0
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=-1, keepdims=True)
    assert softmax_volume(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", [0.5, 10.0, 1e6])
def test_soft_labels_match_last_axis_formula_bitwise(gamma):
    rng = np.random.default_rng(int(gamma))
    hyp = linear_hypotheses(1.0, 10.0, 16)
    gt = rng.uniform(0.5, 11.0, size=(6, 7))
    gt[0, :4] = [np.nan, -1.0, 0.0, np.inf]
    gt[1, :2] = [-0.0, hyp.values[3]]
    valid = np.isfinite(gt) & (gt > 0)
    dist = gamma * np.abs(hyp.values - np.where(valid, gt, hyp.d_min)[..., None])
    w = np.exp(-(dist - dist.min(axis=-1, keepdims=True)))
    want = w / w.sum(axis=-1, keepdims=True)
    want[~valid] = 0.0
    got = soft_labels(hyp, gt, gamma)
    assert got.values.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got.valid, valid)


def test_bilinear_weights_midpoint():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    lo, w = bilinear_bin_weights(hyp, np.array([1.5]))
    assert lo[0] == 0 and w[0] == 0.5


def test_bilinear_weights_on_plane():
    hyp = linear_hypotheses(1.0, 4.0, 4)
    lo, w = bilinear_bin_weights(hyp, np.array([2.0]))
    assert w[0] == 1.0 and hyp.values[lo[0]] == 2.0


def test_bilinear_weights_quarter():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    lo, w = bilinear_bin_weights(hyp, np.array([1.25]))
    assert lo[0] == 0
    assert abs(w[0] - 0.75) < 1e-12


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
def test_check_probabilities_rejects_negative_and_nonfinite(bad):
    vol = np.full((2, 3, 4), 0.25)
    check_probabilities(vol)
    check_probabilities(np.array([-0.0, 1.0]))  # a signed zero is not negative
    vol[1, 2, 0] = bad
    with pytest.raises(ValueError, match="probability volume must be finite and >= 0"):
        check_probabilities(vol)
