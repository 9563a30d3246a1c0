import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import depthuq
from depthuq import metrics
from depthuq.discretize import DepthHypotheses, linear_hypotheses
from depthuq.metrics import (
    BASE_METRICS,
    DegenerateMetricError,
    _ranking,
    _sparsify_curve,
    accuracy_metrics,
    auroc_fpr95,
    ause_aurg,
    ause_flaw_demo,
    delta_outliers,
    evaluate_uncertainty,
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


def test_accuracy_log_metrics_none_without_positive_prediction():
    rep = accuracy_metrics(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert rep.n_log_excluded == 2
    assert rep.log10 is None and rep.log_rms is None
    assert rep.row()["log10"] is None and rep.row()["log_rms"] is None
    assert rep.delta1 == 0.0


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
    # both callers of the removal sweep share its rule
    for steps in (0, 1):
        with pytest.raises(ValueError, match="need >= 2 removal steps"):
            sparsification("rmse", pred, gt, unc, steps=steps)
        with pytest.raises(ValueError, match="need >= 2 removal steps"):
            ause_flaw_demo(np.abs(pred - gt), unc, "square", steps=steps)


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


def test_spearman_is_exact_for_equal_and_reversed_orders():
    # Pearson of the rank vectors misses -1 by an ulp on two reversed pixels
    assert float(np.corrcoef([1.0, 2.0], [2.0, 1.0])[0, 1]) != -1.0
    assert spearman([0.1, 0.5], [0.9, 0.2]) == -1.0
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 100, 1001):
        err = rng.permutation(n) * 0.25
        unc = np.exp(err)  # the same order on other values
        assert spearman(err, unc) == 1.0
        assert spearman(err, -unc) == -1.0
    # ties keep Pearson's value, whatever it rounds to
    tied_a, tied_b = [1.0, 2.0, 2.0, 3.0], [3.0, 2.0, 2.0, 1.0]
    assert spearman(tied_a, tied_b) == float(np.corrcoef([1.0, 2.5, 2.5, 4.0], [4.0, 2.5, 2.5, 1.0])[0, 1])


def test_spearman_tie_oracle():
    s = spearman([1.0, 2.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
    assert abs(s - 3.0 / np.sqrt(10.0)) < 1e-12
    assert abs(s - 0.9486832980505138) < 1e-12


def test_spearman_undefined_on_ties():
    assert spearman([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) is None


def test_spearman_input_validation():
    # no pixel at all is an input error; one pixel is completely tied
    with pytest.raises(ValueError, match="need >= 1 pixel"):
        spearman([], [])
    assert spearman([1.0], [2.0]) is None
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


def test_rank_metrics_reject_nonfinite():
    with pytest.raises(ValueError, match="err is non-finite on 1 "):
        spearman([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="unc is non-finite on 2 "):
        spearman([1.0, 2.0, 3.0], [np.inf, -np.inf, 0.0])
    with pytest.raises(ValueError, match="scores is non-finite on 1 "):
        auroc_fpr95([0.1, np.nan, 0.3], [1, 0, 1])


# Brute-force oracles: the implementations the one-sort sweeps replaced.


def _rankdata_auroc(scores, labels):
    ranks = stats.rankdata(scores, method="average")
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _fpr95_loop(scores, labels):
    pos = scores[labels]
    neg = scores[~labels]
    for t in np.unique(scores)[::-1]:
        if np.mean(pos >= t) >= 0.95:
            return float(np.mean(neg >= t))
    return None


def _sparsify_loop(err_metric, pixel_err, unc, steps):
    def subset(e):
        return float(np.sqrt(np.mean(e**2))) if err_metric == "rmse" else float(np.mean(e))

    n = pixel_err.size
    full = subset(pixel_err)
    by_unc = np.argsort(-unc, kind="stable")
    by_err = np.argsort(-pixel_err, kind="stable")
    spars = np.empty(steps)
    oracle = np.empty(steps)
    for k in range(steps):
        drop = min(int(np.ceil(k / steps * n)), n - 1)
        spars[k] = subset(pixel_err[by_unc[drop:]]) / full
        oracle[k] = subset(pixel_err[by_err[drop:]]) / full
    return spars, oracle


@st.composite
def _tied_values(draw, n):
    """n values over at most a handful of levels, so ties are heavy."""
    levels = draw(st.integers(1, 6))
    codes = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    return np.asarray(codes, dtype=np.float64) * draw(st.sampled_from([0.3, 1.0, -2.5]))


@st.composite
def _scored_labels(draw):
    n = draw(st.integers(2, 40))
    scores = draw(_tied_values(n))
    labels = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return scores, labels


@settings(max_examples=200, deadline=None)
@given(_scored_labels())
@example((np.array([1.0, 2.0]), np.array([True, False])))
@example((np.full(5, 0.7), np.array([True, False, True, True, False])))
@example((np.array([0.3, 0.3, 0.9, 0.0, 0.3]), np.array([False, False, True, False, False])))
@example((np.array([0.3, 0.3, 0.9, 0.0, 0.3]), np.array([True, True, False, True, True])))
# TPR is exactly 0.95 after the top group
@example((np.r_[np.ones(19), 0.5, 0.0, 0.0], np.r_[np.ones(19, bool), False, True, False]))
def test_rank_sweeps_match_oracles_bitwise(case):
    scores, labels = case
    np.testing.assert_array_equal(
        _ranking(scores, "scores").ranks, stats.rankdata(scores, method="average")
    )
    auroc, fpr95 = auroc_fpr95(scores, labels)
    if labels.all() or not labels.any():
        assert (auroc, fpr95) == (None, None)
        return
    assert auroc == _rankdata_auroc(scores, labels)
    assert fpr95 == _fpr95_loop(scores, labels)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(_tied_values(n), _tied_values(n))))
@example((np.array([1.0, 2.0]), np.array([2.0, 1.0])))
@example((np.full(4, 3.0), np.array([1.0, 2.0, 3.0, 4.0])))
def test_spearman_matches_rankdata_bitwise(case):
    a, b = case
    ra = stats.rankdata(a, method="average")
    rb = stats.rankdata(b, method="average")
    s = spearman(a, b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        assert s is None
    elif np.unique(ra).size == np.unique(rb).size == ra.size and (
        np.array_equal(ra, rb) or np.array_equal(ra, ra.size + 1 - rb)
    ):
        # untied ranks in the same or the reverse order: exactly +-1
        assert s == (1.0 if np.array_equal(ra, rb) else -1.0)
    else:
        assert s == float(np.corrcoef(ra, rb)[0, 1])


def _curve(err_metric, err, unc, steps):
    return _sparsify_curve(err_metric, _ranking(err, "err"), _ranking(unc, "unc"), steps)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40).flatmap(lambda n: st.tuples(_tied_values(n), _tied_values(n))),
    st.sampled_from(BASE_METRICS),
    st.integers(2, 60),
)
@example((np.array([0.0, 1.0]), np.array([5.0, 5.0])), "rmse", 50)
@example((np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 1.0])), "rel", 3)
def test_sparsify_curve_matches_loop(case, err_metric, steps):
    err, unc = case
    err = np.abs(err)
    if err_metric == "delta1err":
        err = (err > err.min()).astype(np.float64)
    if not err.any():
        with pytest.raises(DegenerateMetricError):
            _curve(err_metric, err, unc, steps)
        return
    curve = _curve(err_metric, err, unc, steps)
    spars, oracle = _sparsify_loop(err_metric, err, unc, steps)
    assert curve.spars[0] == 1.0 and curve.oracle[0] == 1.0
    np.testing.assert_allclose(curve.spars, spars, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.oracle, oracle, rtol=0, atol=1e-12)
    # the error itself as uncertainty is the oracle ordering, exactly
    assert ause_aurg(_curve(err_metric, err, err, steps))[0] == 0.0


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(depthuq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, depthuq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    assert nll(vol, np.array([20.0, 30.0]), hyp) == (None, 2)


def test_nll_without_pixels_in_range_is_degenerate():
    # undefined, like a single-class AUROC: None, with the exclusions counted
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    vol = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert nll(vol, np.array([20.0, 30.0]), hyp) == (None, 2)
    assert nll(vol, np.array([np.nan, -1.0]), hyp) == (None, 0)


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_nll_rejects_negative_and_nonfinite_volumes(bad):
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    vol = np.array([[0.5, 0.5], [0.5, 0.5]])
    vol[1, 0] = bad
    with pytest.raises(ValueError, match="probability volume must be finite and >= 0") as exc:
        nll(vol, np.array([1.5, 1.2]), hyp)
    assert not isinstance(exc.value, DegenerateMetricError)


def test_evaluate_uncertainty_raises_on_malformed_volume():
    rng = np.random.default_rng(5)
    gt = rng.uniform(1.5, 9.5, (6, 8))
    pred = gt + rng.normal(scale=0.3, size=gt.shape)
    unc = np.abs(pred - gt)
    hyp = linear_hypotheses(1.0, 10.0, 4)
    vol = rng.dirichlet(np.ones(4), size=gt.shape)
    assert evaluate_uncertainty(pred, gt, unc, vol=vol, hyp=hyp).nll is not None
    with pytest.raises(ValueError, match="a probability volume needs its depth hypotheses"):
        evaluate_uncertainty(pred, gt, unc, vol=vol)
    with pytest.raises(ValueError, match="volume pixels"):
        evaluate_uncertainty(pred, gt, unc, vol=vol[:3], hyp=hyp)
    vol[2, 3, 1] = -0.5
    with pytest.raises(ValueError, match="finite and >= 0"):
        evaluate_uncertainty(pred, gt, unc, vol=vol, hyp=hyp)
    # GT outside the hypothesis range leaves only NLL undefined, and every
    # one of the 48 valid pixels is counted as excluded
    rep = evaluate_uncertainty(pred, gt, unc, vol=np.abs(vol), hyp=linear_hypotheses(20.0, 30.0, 4))
    assert rep.nll is None and rep.scc is not None
    assert rep.nll_excluded == 48


def test_nll_floor_keeps_value_finite():
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    value, _ = nll(np.array([[1.0, 0.0]]), np.array([2.0]), hyp)
    assert abs(value - (-np.log(1e-12))) < 1e-9


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
    # only the named transforms are accepted; a callable is not one
    with pytest.raises(ValueError, match="unknown transform"):
        ause_flaw_demo(err, unc, lambda e: e + 1.0)


def test_flaw_demo_verdict_says_what_moved():
    err, unc = _correlated_instance(7)
    confounded = "; ranks preserved, area not: AUSE comparisons across accuracy regimes are confounded"
    assert ause_flaw_demo(err, unc, "square").verdict().endswith(confounded)
    assert ause_flaw_demo(err, unc, "affine", offset=1.0).verdict().endswith(confounded)
    # a pure rescale leaves the normalized curves, so nothing moves; at
    # scale 0.3 the AUSE delta is rounding, not a move
    for scale in (0.5, 0.3):
        cmp = ause_flaw_demo(err, unc, "affine", scale=scale)
        assert cmp.verdict().endswith("; ranks preserved, area preserved: no confound shown")
    # all-tied uncertainty: SCC undefined on both sides, so is its delta
    tied = ause_flaw_demo(err, np.ones_like(err), "square")
    assert tied.scc_a is None and tied.delta_scc is None
    assert "(delta undefined)" in tied.verdict()
    assert tied.verdict().endswith("; ranks undefined, area moved: no confound shown")


def test_flaw_demo_sorts_each_ordering_once(monkeypatch):
    # three orderings (u, e, transformed e) feed both curves and both SCCs
    err, unc = _correlated_instance(10, n=1000)
    want = ause_flaw_demo(err, unc, "square")
    calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    got = ause_flaw_demo(err, unc, "square")
    assert len(calls) <= 3
    assert got == want


def test_evaluate_uncertainty_sorts_each_ordering_once(monkeypatch):
    # four orderings (u and the three base errors) feed the three curves,
    # SCC and AUROC/FPR95; only SCC and AUROC read average ranks
    rng = np.random.default_rng(8)
    gt = rng.uniform(1.5, 9.5, size=(12, 10))
    pred = gt + rng.normal(scale=1.0, size=gt.shape)
    unc = np.abs(pred - gt) + rng.normal(scale=0.3, size=gt.shape)
    want = evaluate_uncertainty(pred, gt, unc)
    calls, made = [], {}
    argsort, ranking = np.argsort, metrics._ranking

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    def recording_ranking(values, name):
        r = ranking(values, name)
        made[id(r)] = r
        return r

    monkeypatch.setattr(np, "argsort", counting_argsort)
    monkeypatch.setattr(metrics, "_ranking", recording_ranking)
    got = evaluate_uncertainty(pred, gt, unc)
    assert len(calls) == 4
    assert got == want
    assert len(made) == 4
    ranked = [r.values for r in made.values() if "ranks" in vars(r)]
    assert len(ranked) == 2
    np.testing.assert_array_equal(ranked[0], unc.ravel())
    np.testing.assert_array_equal(ranked[1], np.abs(pred - gt).ravel())


def _tied_flip_reports():
    # integer uncertainties tie; the flip moves tied pixels past each other
    rng = np.random.default_rng(5)
    gt = rng.uniform(1.5, 9.5, size=(4, 5))
    pred = gt + rng.normal(scale=1.0, size=gt.shape)
    unc = np.round(np.abs(pred - gt) + rng.normal(scale=0.5, size=gt.shape))
    assert np.unique(unc).size < unc.size
    return evaluate_uncertainty(pred, gt, unc), evaluate_uncertainty(pred[::-1], gt[::-1], unc[::-1])


def test_rank_metrics_ignore_the_order_inside_tie_groups():
    a, b = _tied_flip_reports()
    assert a.auroc is not None and a.scc is not None
    assert (a.scc, a.auroc, a.fpr95) == (b.scc, b.auroc, b.fpr95)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: sparsification drops tied pixels in pixel-index order",
)
def test_sparsification_areas_ignore_the_order_inside_tie_groups():
    a, b = _tied_flip_reports()
    for key in ("ause_rmse", "aurg_rmse", "ause_rel", "aurg_rel", "ause_delta1", "aurg_delta1"):
        assert getattr(b, key) == pytest.approx(getattr(a, key), rel=0, abs=1e-12), key


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


def test_evaluate_uncertainty_matches_single_metrics():
    # the report shares one sort of |pred - gt| between the RMSE oracle
    # and SCC; each entry must still equal its standalone metric exactly
    rng = np.random.default_rng(8)
    gt = rng.uniform(1.5, 9.5, size=(12, 10))
    pred = gt + np.round(rng.normal(scale=1.0, size=gt.shape), 1)  # tied errors
    unc = np.round(np.abs(pred - gt) + rng.normal(scale=0.3, size=gt.shape), 1)
    gt[2, 3] = np.nan
    rep = evaluate_uncertainty(pred, gt, unc)
    areas = {"rmse": (rep.ause_rmse, rep.aurg_rmse), "rel": (rep.ause_rel, rep.aurg_rel),
             "delta1err": (rep.ause_delta1, rep.aurg_delta1)}
    for base in BASE_METRICS:
        assert areas[base] == ause_aurg(sparsification(base, pred, gt, unc))
    keep = np.isfinite(gt)
    assert rep.scc == spearman(np.abs(pred - gt)[keep], unc[keep])
    # AUROC/FPR95 read the delta1err pixel error as the outlier vector
    assert (rep.auroc, rep.fpr95) == auroc_fpr95(unc[keep], delta_outliers(pred[keep], gt[keep]))
    assert rep.auroc is not None
    hyp = linear_hypotheses(1.0, 10.0, 8)
    vol = rng.dirichlet(np.ones(8), size=gt.shape)
    with_vol = evaluate_uncertainty(pred, gt, unc, vol=vol, hyp=hyp)
    assert (with_vol.nll, with_vol.nll_excluded) == nll(vol, gt, hyp)
    assert with_vol.nll is not None


def test_overflowing_errors_raise_instead_of_nan_areas():
    rng = np.random.default_rng(2)
    gt = rng.uniform(1.5, 9.5, size=(6, 5))
    pred = gt + rng.normal(scale=1.0, size=gt.shape)
    unc = rng.uniform(size=gt.shape)
    # |e| / gt overflows: Rel's pixel error is inf
    huge, small = pred.copy(), gt.copy()
    huge[0, 0], small[0, 0] = 1e308, 0.5
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="rel error is non-finite on 1 "):
            evaluate_uncertainty(huge, small, unc)
        with pytest.raises(ValueError, match="rel error is non-finite on 1 "):
            sparsification("rel", huge, small, unc)
        # |e| and |e| / gt are finite, |e|^2 is not
        big = pred.copy()
        big[0, 0] = big[1, 1] = 1e200
        with pytest.raises(ValueError, match="squared error is non-finite on 2 "):
            evaluate_uncertainty(big, gt, unc)
        with pytest.raises(ValueError, match="squared error is non-finite on 2 "):
            sparsification("rmse", big, gt, unc)
        with pytest.raises(ValueError, match="squared error is non-finite on 1 "):
            ause_flaw_demo(np.array([1.0, 1e200, 2.0]), np.array([0.1, 0.2, 0.3]), "affine")
        # each squared error is finite, their sum is not
        big[0, 0] = big[1, 1] = 1.2e154
        with pytest.raises(ValueError, match="the rmse error sum overflows"):
            evaluate_uncertainty(big, gt, unc)
        # each Rel error is finite, their sum is not
        huge[0, 0] = huge[1, 1] = 1.7e308
        small[0, 0] = small[1, 1] = 1.0
        with pytest.raises(ValueError, match="the rel error sum overflows"):
            sparsification("rel", huge, small, unc)


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


def _nan_prediction_map():
    # 10x10 map with one NaN prediction on a valid pixel
    rng = np.random.default_rng(6)
    gt = rng.uniform(1.5, 9.5, size=(10, 10))
    pred = gt + rng.normal(scale=0.5, size=gt.shape)
    unc = np.abs(pred - gt)
    pred[2, 2] = np.nan
    return pred, gt, unc


def test_nonfinite_prediction_rejected_by_accuracy_metrics():
    pred, gt, _ = _nan_prediction_map()
    pred[4, 4] = np.inf
    with pytest.raises(ValueError, match="prediction is non-finite on 2 valid pixel"):
        accuracy_metrics(pred, gt)


def test_nonfinite_prediction_rejected_by_sparsification():
    pred, gt, unc = _nan_prediction_map()
    with pytest.raises(ValueError, match="prediction is non-finite on 1 valid pixel"):
        sparsification("rmse", pred, gt, unc)


def test_nonfinite_prediction_rejected_by_evaluate_uncertainty():
    pred, gt, unc = _nan_prediction_map()
    with pytest.raises(ValueError, match="prediction is non-finite on 1 valid pixel"):
        evaluate_uncertainty(pred, gt, unc)
    # only valid pixels count: a NaN prediction under invalid GT is ignored
    gt[2, 2] = np.nan
    assert evaluate_uncertainty(pred, gt, unc).scc is not None
    assert np.isfinite(accuracy_metrics(pred, gt).rmse)


def test_evaluate_uncertainty_degenerate_pieces_are_none():
    gt = np.array([[2.0, 3.0], [4.0, 5.0]])
    rep = evaluate_uncertainty(gt.copy(), gt, np.ones_like(gt))
    # perfect predictions: nothing to sparsify, no outliers, tied errors
    assert rep.ause_rmse is None and rep.aurg_rmse is None
    assert rep.scc is None
    assert rep.auroc is None and rep.fpr95 is None
    assert rep.nll is None
