import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthuq.discretize import DepthHypotheses, linear_hypotheses
from depthuq.metrics import (
    DegenerateMetricError,
    accuracy_metrics,
    auroc_fpr95,
    ause_aurg,
    ause_flaw_demo,
    dataset_spearman,
    delta_outliers,
    evaluate_uncertainty,
    joint_histogram,
    nll,
    sparsification,
    spearman,
)


def _bf_ranks(v):
    # brute-force average ranks, quadratic on purpose
    v = list(v)
    out = np.empty(len(v))
    for i, x in enumerate(v):
        less = sum(1 for y in v if y < x)
        eq = sum(1 for y in v if y == x)
        out[i] = less + (eq + 1) / 2.0
    return out


def _pearson(x, y):
    x = x - x.mean()
    y = y - y.mean()
    return float((x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum()))


def test_accuracy_three_pixel_oracle():
    rep = accuracy_metrics(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.5, 2.0]))
    assert abs(rep.rmse - np.sqrt(4.25 / 3)) < 1e-12
    assert abs(rep.rel - 0.4) < 1e-12
    assert abs(rep.sq_rel - 0.7) < 1e-12
    expect_log10 = (np.log10(1.25) + np.log10(2.0)) / 3
    assert abs(rep.log10 - expect_log10) < 1e-12
    # ratio 1.25 exactly misses the strict < threshold
    assert rep.delta1 == pytest.approx(1 / 3)
    assert rep.delta2 == pytest.approx(2 / 3)
    assert rep.delta3 == pytest.approx(2 / 3)
    assert rep.n_valid == 3 and rep.n_log_excluded == 0


def test_accuracy_nonpositive_pred_excluded_from_logs():
    rep = accuracy_metrics(np.array([-1.0, 2.0]), np.array([1.0, 2.0]))
    assert rep.n_log_excluded == 1
    assert rep.log10 == 0.0 and rep.log_rms == 0.0
    assert abs(rep.rmse - np.sqrt(2.0)) < 1e-12
    # the bad pixel counts as an outlier at every threshold
    assert rep.delta3 == 0.5


def test_accuracy_respects_validity_mask():
    rep = accuracy_metrics(np.array([1.0, 99.0]), np.array([1.0, np.nan]))
    assert rep.n_valid == 1


def test_delta_outliers_hand_case():
    out = delta_outliers(np.array([2.0, 1.0]), np.array([1.0, 1.1]))
    np.testing.assert_array_equal(out, [True, False])


def test_delta_chain_is_monotone():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.5, 10, size=200)
    gt = rng.uniform(0.5, 10, size=200)
    rep = accuracy_metrics(pred, gt)
    assert rep.delta1 <= rep.delta2 <= rep.delta3


def test_sparsification_four_pixel_curve():
    pred = np.array([9.0, 8.0, 7.0, 6.0])
    gt = np.full(4, 5.0)
    unc = np.array([1.0, 2.0, 3.0, 4.0])
    curve = sparsification("rmse", pred, gt, unc, steps=4)
    full = np.sqrt(7.5)
    np.testing.assert_allclose(curve.fractions, [0.0, 0.25, 0.5, 0.75])
    # uncertainty ordering removes the *smallest* errors here (anti-correlated)
    expect_spars = [1.0, np.sqrt(29 / 3) / full, np.sqrt(12.5) / full, 4.0 / full]
    expect_oracle = [1.0, np.sqrt(14 / 3) / full, np.sqrt(2.5) / full, 1.0 / full]
    np.testing.assert_allclose(curve.spars, expect_spars, atol=1e-12)
    np.testing.assert_allclose(curve.oracle, expect_oracle, atol=1e-12)
    ause, aurg = ause_aurg(curve)
    assert abs(ause - 0.5388927703012475) < 1e-12
    assert abs(aurg - (1.0 - np.mean(expect_spars))) < 1e-12


def test_sparsification_perfect_uncertainty_zero_ause():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred = rng.uniform(1, 10, size=40)
        gt = rng.uniform(1, 10, size=40)
        curve = sparsification("rmse", pred, gt, np.abs(pred - gt), steps=10)
        ause, _ = ause_aurg(curve)
        # identical sort keys, stable sort: the two orderings coincide
        assert ause == 0.0


def test_sparsification_constant_error_is_flat():
    pred = np.array([2.0, 3.0, 4.0])
    gt = pred - 0.7
    curve = sparsification("rmse", pred, gt, np.array([3.0, 1.0, 2.0]), steps=3)
    np.testing.assert_allclose(curve.spars, 1.0)
    np.testing.assert_allclose(curve.oracle, 1.0)
    np.testing.assert_array_equal(curve.random_level, 1.0)


def test_sparsification_rejects_perfect_predictions():
    pred = np.array([1.0, 2.0])
    with pytest.raises(DegenerateMetricError):
        sparsification("rmse", pred, pred.copy(), np.array([0.1, 0.2]))


def test_sparsification_rejects_bad_metric_and_steps():
    pred = np.array([1.0, 2.0])
    gt = np.array([1.5, 2.5])
    unc = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        sparsification("mae", pred, gt, unc)
    with pytest.raises(ValueError):
        sparsification("rmse", pred, gt, unc, steps=1)


def test_sparsification_rel_base():
    pred = np.array([2.0, 6.0])
    gt = np.array([1.0, 4.0])
    curve = sparsification("rel", pred, gt, np.array([2.0, 1.0]), steps=2)
    # rel errors [1.0, 0.5]; dropping the high-unc pixel leaves 0.5
    full = 0.75
    np.testing.assert_allclose(curve.spars, [1.0, 0.5 / full])
    np.testing.assert_allclose(curve.oracle, [1.0, 0.5 / full])


def test_spearman_perfect_and_reversed():
    assert abs(spearman([1, 2, 3], [10, 20, 30]) - 1.0) < 1e-15
    assert abs(spearman([1, 2, 3], [30, 20, 10]) + 1.0) < 1e-15


def test_spearman_tie_oracle():
    s = spearman([1.0, 2.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
    assert abs(s - 3.0 / np.sqrt(10.0)) < 1e-12
    assert abs(s - 0.9486832980505138) < 1e-12


def test_spearman_undefined_on_ties():
    assert spearman([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) is None


def test_spearman_input_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spearman_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    # quantized draws so ties actually happen
    err = np.round(rng.uniform(0, 5, size=n), 1)
    unc = np.round(rng.normal(size=n), 1)
    s = spearman(err, unc)
    ra, rb = _bf_ranks(err), _bf_ranks(unc)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        assert s is None
    else:
        assert abs(s - _pearson(ra, rb)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spearman_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    err = rng.uniform(0.1, 4.0, size=30)
    unc = rng.normal(size=30)
    s0 = spearman(err, unc)
    s1 = spearman(np.exp(err), unc)
    assert abs(s0 - s1) < 1e-12


def test_dataset_spearman_counts_missing():
    pairs = [
        (np.array([1.0, 2.0]), np.array([1.0, 2.0])),
        (np.array([1.0, 1.0]), np.array([1.0, 2.0])),
    ]
    mean, missing = dataset_spearman(pairs)
    assert abs(mean - 1.0) < 1e-15
    assert missing == 1
    mean, missing = dataset_spearman([(np.array([1.0, 1.0]), np.array([1.0, 2.0]))])
    assert mean is None and missing == 1


def test_auroc_perfect_separation():
    auroc, fpr95 = auroc_fpr95([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    assert auroc == 1.0 and fpr95 == 0.0


def test_auroc_hand_oracle():
    auroc, _ = auroc_fpr95([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 1])
    assert abs(auroc - 0.75) < 1e-15


def test_auroc_single_class_undefined():
    assert auroc_fpr95([1.0, 2.0], [1, 1]) == (None, None)
    assert auroc_fpr95([1.0, 2.0], [0, 0]) == (None, None)


def test_fpr95_hand_cases():
    _, f = auroc_fpr95([3.0, 2.0, 1.0], [1, 1, 0])
    assert f == 0.0
    _, f = auroc_fpr95([2.0, 1.0, 2.0], [1, 1, 0])
    assert f == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auroc_matches_pairwise_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    scores = np.round(rng.uniform(0, 3, size=n), 1)
    labels = rng.integers(0, 2, size=n).astype(bool)
    auroc, _ = auroc_fpr95(scores, labels)
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0 or neg.size == 0:
        assert auroc is None
        return
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    assert abs(auroc - wins / (pos.size * neg.size)) < 1e-12


def test_nll_on_plane_certainty():
    hyp = DepthHypotheses(np.array([1.0, 2.0, 3.0]))
    value, excluded = nll(np.array([[0.0, 1.0, 0.0]]), np.array([2.0]), hyp)
    assert value == 0.0 and excluded == 0


def test_nll_uniform_volume():
    hyp = linear_hypotheses(1, 4, 4)
    value, _ = nll(np.full((1, 4), 0.25), np.array([2.5]), hyp)
    assert abs(value - np.log(4.0)) < 1e-12


def test_nll_midpoint_split():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    value, _ = nll(np.array([[0.5, 0.5]]), np.array([1.5]), hyp)
    assert abs(value - np.log(2.0)) < 1e-12


def test_nll_excludes_out_of_range():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    vol = np.array([[0.5, 0.5], [0.5, 0.5]])
    value, excluded = nll(vol, np.array([1.5, 20.0]), hyp)
    assert excluded == 1
    assert abs(value - np.log(2.0)) < 1e-12
    with pytest.raises(ValueError):
        nll(vol, np.array([20.0, 30.0]), hyp)


def test_nll_floor_keeps_value_finite():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    value, _ = nll(np.array([[1.0, 0.0]]), np.array([2.0]), hyp)
    assert abs(value - (-np.log(1e-12))) < 1e-9


def test_joint_histogram_conserves_mass():
    rng = np.random.default_rng(2)
    err = rng.uniform(size=1000)
    unc = rng.normal(size=1000)
    counts, err_edges, unc_edges = joint_histogram(err, unc, bins=8)
    assert counts.sum() == 1000
    assert err_edges.size == 9 and unc_edges.size == 9


def test_joint_histogram_two_by_two():
    counts, _, _ = joint_histogram([0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0], bins=2)
    np.testing.assert_array_equal(counts, [[1, 1], [1, 1]])


def test_joint_histogram_degenerate_axis():
    counts, _, _ = joint_histogram([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], bins=2)
    assert counts[0].sum() == 3
    assert counts[1].sum() == 0


def test_joint_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        joint_histogram([1.0], [1.0], bins=1)


def _correlated_instance(seed, n=400):
    rng = np.random.default_rng(seed)
    err = rng.uniform(0.05, 2.0, size=n)
    unc = err + rng.normal(scale=0.4, size=n)
    return err, unc


def test_flaw_demo_square_moves_ause_not_scc():
    err, unc = _correlated_instance(7)
    cmp = ause_flaw_demo(err, unc, "square")
    assert abs(cmp.delta_scc) < 1e-12
    assert abs(cmp.delta_ause) > 1e-3
    assert "confounded" in cmp.verdict()


def test_flaw_demo_affine_scale_is_exact_noop_on_ause():
    err, unc = _correlated_instance(8)
    cmp = ause_flaw_demo(err, unc, "affine", scale=0.5, offset=0.0)
    assert abs(cmp.delta_ause) < 1e-15
    assert abs(cmp.delta_scc) < 1e-15


def test_flaw_demo_sqrt_and_custom_callable():
    err, unc = _correlated_instance(9)
    cmp = ause_flaw_demo(err, unc, "sqrt")
    assert abs(cmp.delta_scc) < 1e-12
    cmp2 = ause_flaw_demo(err, unc, lambda e: e + 1.0)
    assert cmp2.transform == "custom"
    assert abs(cmp2.delta_scc) < 1e-12


def test_flaw_demo_rejects_non_monotone_transform():
    err = np.array([0.5, 1.5, 2.5])
    unc = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ause_flaw_demo(err, unc, np.cos)
    with pytest.raises(ValueError):
        ause_flaw_demo(err, unc, "affine", scale=-1.0)
    with pytest.raises(ValueError):
        ause_flaw_demo(err, unc, "cube")


def test_evaluate_uncertainty_full_report():
    rng = np.random.default_rng(3)
    hyp = linear_hypotheses(1, 10, 8)
    gt = rng.uniform(1.5, 9.5, size=(6, 5))
    pred = gt + rng.normal(scale=1.0, size=gt.shape)
    unc = np.abs(pred - gt) + rng.normal(scale=0.1, size=gt.shape)
    vol = rng.dirichlet(np.ones(8), size=gt.shape)
    rep = evaluate_uncertainty(pred, gt, unc, vol=vol, hyp=hyp)
    assert rep.ause_rmse is not None and rep.scc is not None
    assert rep.nll is not None
    assert set(rep.row()) == {
        "ause_rmse", "aurg_rmse", "ause_rel", "aurg_rel", "ause_delta1",
        "aurg_delta1", "scc", "auroc", "fpr95", "nll",
    }


def test_nonfinite_uncertainty_is_rejected():
    rng = np.random.default_rng(4)
    gt = rng.uniform(1.5, 9.5, size=(20, 20))
    pred = gt + rng.normal(scale=1.0, size=gt.shape)
    unc = np.abs(pred - gt)
    unc[3, 3] = np.nan
    unc[5, 7] = np.inf
    with pytest.raises(ValueError, match="non-finite on 2 valid"):
        evaluate_uncertainty(pred, gt, unc)
    with pytest.raises(ValueError, match="non-finite on 2 valid"):
        sparsification("rmse", pred, gt, unc)
    # only valid pixels count: NaN uncertainty under invalid GT is ignored
    gt[3, 3] = gt[5, 7] = np.nan
    assert evaluate_uncertainty(pred, gt, unc).scc is not None
    sparsification("rmse", pred, gt, unc)


def test_evaluate_uncertainty_degenerate_pieces_are_none():
    gt = np.array([[2.0, 3.0], [4.0, 5.0]])
    rep = evaluate_uncertainty(gt.copy(), gt, np.ones_like(gt))
    # perfect predictions: nothing to sparsify, no outliers, tied errors
    assert rep.ause_rmse is None and rep.aurg_rmse is None
    assert rep.scc is None
    assert rep.auroc is None and rep.fpr95 is None
    assert rep.nll is None
