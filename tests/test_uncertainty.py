import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthuq.discretize import linear_hypotheses
from depthuq.losses import head_forward
from depthuq.toytrain import TrainConfig, init_model
from depthuq.uncertainty import (
    clamped_entropy,
    clamped_entropy_parts,
    combine_mean,
    raw_entropy,
    sigmoid,
    softplus,
)


def _pseudo_uncertainty(z, a):
    # the regression head's uncertainty, as toytrain.forward computes it
    hyp = linear_hypotheses(1.0, 2.0, z.shape[-1])
    return head_forward(z, a, hyp, readout=np.ones(z.shape[-1]))[1]


def test_clamped_entropy_is_the_value_of_the_parts():
    # the value-only entropy must keep the bits of the training value
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.full(16, 0.3), size=(24, 32))
    p[0, 0, :] = 0.0
    p[0, 0, :4] = [0.0, 1e-13, 1e-12, 1.0 - 1e-12 - 1e-13]  # at and below the floor
    p[0, 1, :] = np.eye(16)[5]  # one-hot
    h = clamped_entropy(p)
    assert h.tobytes() == clamped_entropy_parts(p)[0].tobytes()
    assert raw_entropy(p).tobytes() == h.tobytes()


def test_raw_entropy_fair_coin():
    assert abs(raw_entropy(np.array([0.5, 0.5])) - np.log(2.0)) < 1e-15


def test_raw_entropy_one_hot_exact_zero():
    h = raw_entropy(np.array([0.0, 1.0, 0.0]))
    assert h == 0.0


def test_raw_entropy_uniform_stack():
    vol = np.full((2, 4), 0.25)
    np.testing.assert_allclose(raw_entropy(vol), np.log(4.0))


def test_raw_entropy_rejects_negative():
    with pytest.raises(ValueError):
        raw_entropy(np.array([-1e-3, 1.0]))


def test_raw_entropy_rejects_roundoff_negative():
    # the probability rule of check_probabilities: no tolerance below 0
    with pytest.raises(ValueError):
        raw_entropy(np.array([-1e-10, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_entropy_rejects_non_finite(bad):
    # a NaN entry gave a NaN entropy and +inf gave -inf, with no error
    with pytest.raises(ValueError, match="finite"):
        raw_entropy(np.array([[bad, 1.0], [0.5, 0.5]]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 16, 64]))
def test_entropy_bounds(seed, m):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(m, 0.3), size=8)
    alpha = float(softplus(rng.normal()))
    u = alpha * raw_entropy(p)
    assert np.all(u >= 0.0)
    assert np.all(u <= alpha * np.log(m) + 1e-12)


def test_scale_default_is_ln2():
    # a fresh toy model's raw scale gives alpha = ln 2
    assert abs(float(softplus(init_model(TrainConfig()).raw_scale)) - np.log(2.0)) < 1e-15


def test_softplus_matches_reference():
    x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(np.minimum(x, 30))) + np.maximum(x - 30, 0), atol=1e-12)


def test_sigmoid_is_softplus_slope():
    for x in (-3.0, 0.0, 2.5):
        h = 1e-6
        fd = (softplus(x + h) - softplus(x - h)) / (2 * h)
        assert abs(sigmoid(np.array(x)) - fd) < 1e-9


def test_sigmoid_matches_masked_array_formula():
    # the scalar branches give the bits of the overflow-safe array formula
    xs = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 750.0, -750.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(xs)
        want = np.where(xs >= 0, 1.0 / (1.0 + np.exp(-xs)), ex / (1.0 + ex))
    for x, w in zip(xs.tolist(), want):
        for scalar in (x, np.float64(x), np.array(x)):
            got = sigmoid(scalar)
            assert np.ndim(got) == 0
            assert np.float64(got).tobytes() == w.tobytes(), (x, type(scalar))


def test_pseudo_uncertainty_constant_logits():
    u = _pseudo_uncertainty(np.zeros(5), 10.0)
    alpha = float(softplus(10.0))
    assert abs(u - alpha * np.log(5.0)) < 1e-12


def test_pseudo_uncertainty_dominant_logit():
    u = _pseudo_uncertainty(np.array([100.0, 0.0, 0.0]), 0.0)
    assert u < 1e-12


def test_pseudo_uncertainty_closed_form():
    # softmax([0, ln3]) = [1/4, 3/4]; alpha chosen so softplus(a) = 1
    a = float(np.log(np.e - 1.0))
    u = _pseudo_uncertainty(np.array([0.0, np.log(3.0)]), a)
    expect = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
    assert abs(float(u) - expect) < 1e-12
    assert abs(float(u) - 0.5623351446188083) < 1e-12


def test_pseudo_uncertainty_shift_invariance():
    z = np.array([0.4, -2.0, 1.1])
    assert abs(_pseudo_uncertainty(z, 0.7) - _pseudo_uncertainty(z + 55.0, 0.7)) < 1e-12


def test_combine_single_is_identity():
    p = np.array([[0.2, 0.8]])
    np.testing.assert_array_equal(combine_mean([p]), p)


def test_combine_two_members():
    a = np.array([0.5, 0.5])
    b = np.array([0.3, 0.7])
    np.testing.assert_allclose(combine_mean([a, b]), [0.4, 0.6])


def test_combine_rejects_mismatch():
    with pytest.raises(ValueError):
        combine_mean([np.zeros(3), np.zeros(4)])


def test_combine_rejects_empty():
    with pytest.raises(ValueError):
        combine_mean([])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mixture_entropy_at_least_mean_entropy(seed):
    # concavity of H: ensembling can only raise raw entropy
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    members = [rng.dirichlet(np.ones(m), size=(3, 2)) for _ in range(4)]
    mixed = combine_mean(members)
    h_mix = raw_entropy(mixed)
    h_avg = np.mean([raw_entropy(p) for p in members], axis=0)
    assert np.all(h_mix >= h_avg - 1e-10)
