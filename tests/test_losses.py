import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthuq.discretize import (
    DepthHypotheses,
    expectation_depth,
    linear_hypotheses,
    soft_labels,
    softmax_volume,
)
from depthuq.losses import (
    LossTargets,
    NonFiniteLossError,
    PairPermutation,
    auto_weighted_total,
    clamped_entropy_parts,
    depth_l1,
    draw_permutation,
    full_backward,
    head_forward,
    loss_targets,
    ranking_loss_variants,
    soft_label_l1,
    softmax_backward,
)
from depthuq.gridio import valid_mask
from depthuq.uncertainty import PROB_FLOOR, clamped_entropy, raw_entropy, sigmoid, softplus

GAMMA = 20.0  # soft-label sharpness of every instance here


def test_depth_l1_is_mean():
    pred = np.array([1.2, 2.0])
    gt = np.array([1.0, 2.3])
    assert abs(depth_l1(pred, gt).value - 0.25) < 1e-15


def test_depth_l1_gradient_signs():
    lv = depth_l1(np.array([1.2, 2.0]), np.array([1.0, 2.3]))
    np.testing.assert_allclose(lv.grad, [0.5, -0.5])


def test_depth_l1_exact_fit_has_zero_grad():
    # sign(0) must be 0, not +-1
    lv = depth_l1(np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grad, 0.0)


def _scene_with_invalid_pixel(seed):
    # the classification scene of _small_instance with pixel (1, 2) made
    # invalid, plus the same scene with that pixel removed outright
    hyp, z, gt, _ = _small_instance(seed)
    gt[1, 2] = np.nan
    perm = draw_permutation(5, seed + 9)
    keep = np.isfinite(gt)
    return hyp, z, gt, perm, z[keep], gt[keep]


def test_depth_l1_masks_invalid_gt():
    # the targets mask once; the NaN pixel leaves no trace, and its row
    # of z is not taken
    hyp, z, gt, perm, z_kept, gt_kept = _scene_with_invalid_pixel(10)
    sig = np.array([0.3, -0.2, 0.5])
    targets = loss_targets(hyp, gt, GAMMA)
    rep = full_backward(z[targets.mask], 0.4, sig, hyp, targets, perm)
    kept = full_backward(z_kept, 0.4, sig, hyp, loss_targets(hyp, gt_kept, GAMMA), perm)
    assert rep.n_valid == gt.size - 1 == kept.n_valid
    with pytest.raises(ValueError, match="targets"):
        full_backward(z.reshape(-1, z.shape[-1]), 0.4, sig, hyp, targets, perm)
    np.testing.assert_array_equal(rep.grad_z, kept.grad_z)
    assert rep.value_r == kept.value_r
    assert rep.total == kept.total


def test_depth_l1_rejects_empty_mask():
    with pytest.raises(ValueError, match="no valid pixels"):
        depth_l1(np.array([]), np.array([]))
    hyp, _, gt, _ = _small_instance(11)
    with pytest.raises(ValueError, match="no valid pixels"):
        loss_targets(hyp, np.full_like(gt, np.nan), GAMMA)


def test_soft_label_l1_zero_on_match():
    p = np.array([[0.3, 0.7]])
    lv = soft_label_l1(p, p.copy())
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grad, 0.0)


def test_soft_label_l1_disjoint_rows():
    lv = soft_label_l1(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert abs(lv.value - 2.0) < 1e-15


def test_soft_label_l1_partial():
    lv = soft_label_l1(np.array([[0.8, 0.2]]), np.array([[0.6, 0.4]]))
    assert abs(lv.value - 0.4) < 1e-15
    np.testing.assert_allclose(lv.grad, [[1.0, -1.0]])


def test_soft_label_l1_uses_label_validity():
    # a NaN-GT pixel has an all-zero label row; full_backward must drop
    # it rather than fit the row
    hyp, z, gt, perm, z_kept, gt_kept = _scene_with_invalid_pixel(12)
    targets = loss_targets(hyp, gt, GAMMA)
    rep = full_backward(z[targets.mask], 0.0, np.zeros(3), hyp, targets, perm)
    kept = full_backward(z_kept, 0.0, np.zeros(3), hyp, loss_targets(hyp, gt_kept, GAMMA), perm)
    assert rep.value_p == kept.value_p
    lab = soft_labels(hyp, gt_kept, GAMMA).values
    assert rep.value_p == soft_label_l1(softmax_volume(z_kept), lab).value
    np.testing.assert_array_equal(rep.grad_z, kept.grad_z)


def test_hinge_pair_oracle():
    err = np.array([0.5, 0.2])
    unc = np.array([0.1, 0.3])
    perm = PairPermutation(np.array([1, 0]))
    lv = ranking_loss_variants(err, unc, perm, "hinge")
    # margin_0 = (0.5-0.2) - (0.1-0.3) = 0.5, margin_1 = -0.5 clipped;
    # the mean over two pairs halves both value and gradient
    assert abs(lv.value - 0.25) < 1e-15
    np.testing.assert_allclose(lv.grad, [-0.5, 0.5])


def test_hinge_identity_perm_is_zero():
    rng = np.random.default_rng(3)
    err = rng.uniform(size=9)
    unc = rng.uniform(size=9)
    lv = ranking_loss_variants(err, unc, PairPermutation(np.arange(9)), "hinge")
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grad, 0.0)


def test_no_max_pair_oracle():
    err = np.array([0.5, 0.2])
    unc = np.array([0.5, 0.1])
    perm = PairPermutation(np.array([1, 0]))
    lv = ranking_loss_variants(err, unc, perm, "no-max")
    # margins are -0.1 and +0.1: pair sums telescope to zero and the
    # grad cancels exactly
    assert abs(lv.value) < 1e-15
    np.testing.assert_array_equal(lv.grad, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_no_max_always_cancels(seed, n):
    rng = np.random.default_rng(seed)
    err = rng.uniform(size=n)
    unc = rng.normal(size=n)
    lv = ranking_loss_variants(err, unc, draw_permutation(n, seed), "no-max")
    assert abs(lv.value) < 1e-13
    np.testing.assert_array_equal(lv.grad, 0.0)


def test_l1_direct_matches_residual():
    err = np.array([1.0, 2.0])
    unc = np.array([1.5, 2.0])
    lv = ranking_loss_variants(err, unc, PairPermutation(np.arange(2)), "l1-direct")
    assert abs(lv.value - 0.25) < 1e-15
    np.testing.assert_allclose(lv.grad, [0.5, 0.0])


def test_l1_direct_perfect_calibration():
    err = np.array([0.3, 0.7, 0.1])
    lv = ranking_loss_variants(err, err.copy(), PairPermutation(np.arange(3)), "l1-direct")
    assert lv.value == 0.0


def test_ranking_rejects_unknown_variant():
    with pytest.raises(ValueError):
        ranking_loss_variants(np.ones(2), np.ones(2), PairPermutation(np.arange(2)), "square")


def test_ranking_rejects_size_mismatch():
    with pytest.raises(ValueError):
        ranking_loss_variants(np.ones(3), np.ones(3), PairPermutation(np.arange(2)), "hinge")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hinge_nonnegative_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    err = rng.uniform(size=n)
    unc = rng.normal(size=n)
    perm = draw_permutation(n, seed + 1)
    lv = ranking_loss_variants(err, unc, perm, "hinge")
    assert lv.value >= 0.0
    shifted = ranking_loss_variants(err, unc + 7.0, perm, "hinge")
    assert abs(lv.value - shifted.value) < 1e-12


def test_permutation_rejects_non_bijection():
    # a bare scatter would let the negative cases through: -1 and -3
    # wrap to the one slot their vector leaves unmarked
    for perm in ([0, 0, 1], [0, -1, 1], [-3, 1, 2], [0, 1, 3], [3, 0, 1]):
        with pytest.raises(ValueError, match="^not a bijection over valid pixels$"):
            PairPermutation(np.array(perm))
    with pytest.raises(ValueError):
        PairPermutation(np.array([[0, 1]]))
    assert PairPermutation(np.array([2, 0, 1])).n == 3
    assert PairPermutation(np.array([], dtype=np.int64)).n == 0


@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_permutation_keeps_its_inverse(n):
    # the hinge gradient reads it in place of a scatter of its own
    p = draw_permutation(n, n + 4)
    assert p.inverse.dtype == np.int64
    np.testing.assert_array_equal(p.perm[p.inverse], np.arange(n))
    np.testing.assert_array_equal(p.inverse[p.perm], np.arange(n))
    assert PairPermutation(np.array([2, 0, 1])).inverse.tolist() == [1, 2, 0]
    assert not p.perm.flags.writeable and not p.inverse.flags.writeable


def test_draw_permutation_deterministic():
    a = draw_permutation(50, 123)
    b = draw_permutation(50, 123)
    np.testing.assert_array_equal(a.perm, b.perm)


def test_auto_weighted_unit_sigmas():
    total, grad = auto_weighted_total([1.0, 1.0, 1.0], np.zeros(3))
    assert total == 3.0
    np.testing.assert_array_equal(grad, 0.0)


def test_auto_weighted_mixed_values():
    total, grad = auto_weighted_total([1.0, 2.0, 3.0], np.zeros(3))
    assert total == 6.0
    np.testing.assert_allclose(grad, [0.0, -1.0, -2.0])


def test_auto_weighted_stationary_at_log_loss():
    sig = float(np.log(2.0))
    total, grad = auto_weighted_total([2.0, 2.0, 2.0], np.full(3, sig))
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)
    assert abs(total - 3 * (1.0 + sig)) < 1e-12


def test_auto_weighted_stationary_is_minimum():
    sig = np.log(2.0)
    lo, _ = auto_weighted_total([2.0], np.array([sig - 0.1]))
    mid, _ = auto_weighted_total([2.0], np.array([sig]))
    hi, _ = auto_weighted_total([2.0], np.array([sig + 0.1]))
    assert lo > mid and hi > mid


def test_auto_weighted_rejects_bad_input():
    with pytest.raises(ValueError):
        auto_weighted_total([1.0, 2.0], np.zeros(3))
    with pytest.raises(NonFiniteLossError):
        auto_weighted_total([np.inf, 1.0, 1.0], np.zeros(3))
    with pytest.raises(NonFiniteLossError):
        auto_weighted_total([1.0, 1.0, 1.0], np.array([0.0, np.nan, 0.0]))


def test_softmax_backward_closed_form():
    p = np.array([0.25, 0.75])
    dz = softmax_backward(p, np.array([1.0, 0.0]))
    np.testing.assert_allclose(dz, [0.1875, -0.1875])


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(4)
    z = rng.normal(size=5)
    g = rng.normal(size=5)
    p = softmax_volume(z)
    analytic = softmax_backward(p, g)
    h = 1e-6
    for k in range(5):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        fd = (softmax_volume(zp) @ g - softmax_volume(zm) @ g) / (2 * h)
        assert abs(analytic[k] - fd) < 1e-8


def test_clamped_entropy_fair_coin():
    h, dh = clamped_entropy_parts(np.array([0.5, 0.5]))
    assert abs(h - np.log(2.0)) < 1e-15
    np.testing.assert_allclose(dh, -(np.log(0.5) + 1.0))


def test_clamped_entropy_at_floor():
    h, dh = clamped_entropy_parts(np.array([0.0, 1.0]))
    assert h == 0.0
    # below the floor the value is linear in p with slope ln(floor)
    assert abs(dh[0] - (-np.log(1e-12))) < 1e-12
    assert dh[1] == -1.0


def _small_instance(seed):
    # a 2 x 3 map with every GT pixel valid: full_backward takes all of
    # z's rows, z.reshape(-1, 5)
    rng = np.random.default_rng(seed)
    hyp = linear_hypotheses(1.0, 10.0, 5)
    z = rng.normal(size=(2, 3, 5))
    gt = rng.uniform(1.5, 9.5, size=(2, 3))
    perm = draw_permutation(6, seed + 9)
    return hyp, z, gt, perm


def test_full_backward_total_identity():
    hyp, z, gt, perm = _small_instance(0)
    sig = np.array([0.3, -0.2, 0.5])
    rep = full_backward(z.reshape(-1, 5), 0.4, sig, hyp, loss_targets(hyp, gt, GAMMA), perm)
    expect = float(((rep.values() * np.exp(-sig)) + sig).sum())
    assert abs(rep.total - expect) < 1e-12
    assert rep.n_valid == 6
    assert rep.active == (True, True, True)


def test_full_backward_terms_match_single_ops():
    # full_backward is composed of the term functions, so recomposing
    # each term on the same valid-pixel vectors must agree exactly
    hyp, z, gt, perm = _small_instance(1)
    sig = np.array([0.3, -0.2, 0.5])
    rep = full_backward(z.reshape(-1, 5), 0.4, sig, hyp, loss_targets(hyp, gt, 20.0), perm)
    p = softmax_volume(z).reshape(-1, 5)
    d = p @ hyp.values
    g = gt.reshape(-1)
    assert rep.value_r == depth_l1(d, g).value
    assert rep.value_p == soft_label_l1(p, soft_labels(hyp, g, 20.0).values).value
    h, _ = clamped_entropy_parts(p)
    assert rep.value_u == ranking_loss_variants(np.abs(d - g), rep.alpha * h, perm, "hinge").value
    total, grad_sigma = auto_weighted_total(rep.values(), sig)
    assert rep.total == total
    np.testing.assert_array_equal(rep.grad_sigma, grad_sigma)


def test_full_backward_exact_global_fit():
    # logits at -800 underflow to an exact one-hot, gamma 800 does the
    # same for the labels, gt sits on a hypothesis: every term and every
    # z/a gradient is exactly zero
    hyp = DepthHypotheses(np.array([1.0, 2.0, 3.0]))
    z = np.tile(np.array([-800.0, 0.0, -800.0]), (4, 1))
    gt = np.full((2, 2), 2.0)
    rep = full_backward(z, 0.0, np.zeros(3), hyp, loss_targets(hyp, gt, 800.0), PairPermutation(np.arange(4)))
    assert rep.value_r == 0.0 and rep.value_p == 0.0 and rep.value_u == 0.0
    assert rep.total == 0.0
    np.testing.assert_array_equal(rep.grad_z, 0.0)
    assert rep.grad_a == 0.0
    np.testing.assert_array_equal(rep.grad_sigma, 1.0)


def test_loss_targets_keep_valid_pixels_and_their_label_rows():
    # NaN, zero, negative and infinite GT are all invalid; the label rows
    # are those of the full map's soft labels at the valid pixels, bit for bit
    hyp = linear_hypotheses(1.0, 10.0, 5)
    gt = np.array([[2.5, np.nan, 0.0], [-1.0, np.inf, 7.25], [9.9, 1.0, -np.inf]])
    mask = valid_mask(gt)
    targets = loss_targets(hyp, gt, 7.0)
    np.testing.assert_array_equal(targets.mask, mask)
    assert mask.sum() == targets.n == 4
    np.testing.assert_array_equal(targets.gt, gt[mask])
    assert targets.labels.tobytes() == soft_labels(hyp, gt, 7.0).values[mask].tobytes()
    assert loss_targets(hyp, gt, None).labels is None
    with pytest.raises(ValueError, match="no valid pixels"):
        loss_targets(hyp, np.array([[np.nan, 0.0], [-2.0, np.inf]]), 7.0)


def test_full_backward_rejects_targets_of_another_grid():
    # z takes one row per valid pixel of its targets: the whole map, or
    # the rows of a map with another valid count, do not fit
    hyp, z, gt, perm = _small_instance(8)
    with pytest.raises(ValueError, match="targets"):
        full_backward(z, 0.0, np.zeros(3), hyp, loss_targets(hyp, gt, GAMMA), perm)
    gt[0, 1] = np.nan
    with pytest.raises(ValueError, match="targets"):
        full_backward(z.reshape(-1, 5), 0.0, np.zeros(3), hyp, loss_targets(hyp, gt, GAMMA), perm)
    # soft labels over another hypothesis count do not fit the logits
    other = loss_targets(linear_hypotheses(1.0, 10.0, 4), gt, GAMMA)
    with pytest.raises(ValueError, match="matching"):
        full_backward(z[other.mask], 0.0, np.zeros(3), hyp, other, draw_permutation(other.n, 8))


def test_full_backward_drops_soft_term():
    hyp, z, gt, perm = _small_instance(2)
    rep = full_backward(z.reshape(-1, 5), 0.0, np.zeros(3), hyp, loss_targets(hyp, gt, None), perm)
    assert rep.value_p == 0.0
    assert rep.grad_sigma[1] == 0.0
    assert rep.active == (True, False, True)


def test_full_backward_drops_ranking_term():
    hyp, z, gt, _ = _small_instance(3)
    rep = full_backward(z.reshape(-1, 5), 0.0, np.zeros(3), hyp, loss_targets(hyp, gt, GAMMA), None, ranking=None)
    assert rep.value_u == 0.0 and rep.grad_a == 0.0
    assert rep.grad_sigma[2] == 0.0


def test_full_backward_requires_perm_for_pairs():
    hyp, z, gt, _ = _small_instance(4)
    targets = loss_targets(hyp, gt, GAMMA)
    with pytest.raises(ValueError, match="needs a pair permutation"):
        full_backward(z.reshape(-1, 5), 0.0, np.zeros(3), hyp, targets, None, ranking="hinge")
    with pytest.raises(ValueError, match="permutation covers 3 pixels"):
        full_backward(z.reshape(-1, 5), 0.0, np.zeros(3), hyp, targets, PairPermutation(np.arange(3)))


def test_full_backward_rejects_shape_mismatch():
    hyp = linear_hypotheses(1, 10, 4)
    with pytest.raises(ValueError):
        full_backward(
            np.zeros((2, 5)), 0.0, np.zeros(3), hyp, loss_targets(hyp, np.full(2, 5.0), GAMMA),
            PairPermutation(np.arange(2)),
        )


def test_full_backward_rejects_readout_length_mismatch():
    hyp = linear_hypotheses(1, 10, 4)
    z = np.zeros((2, 4))
    with pytest.raises(ValueError, match="readout"):
        full_backward(
            z, 0.0, np.zeros(3), hyp, loss_targets(hyp, np.full(2, 5.0), None), None,
            ranking=None, readout=np.ones(3),
        )


def test_full_backward_sigma_grad_matches_fd():
    # sigma feeds only the weighted sum, so plain finite differences
    # are honest here
    hyp, z, gt, perm = _small_instance(5)
    sig = np.array([0.2, -0.4, 0.1])
    targets = loss_targets(hyp, gt, GAMMA)
    z = z.reshape(-1, 5)
    rep = full_backward(z, 0.3, sig, hyp, targets, perm)
    h = 1e-6
    for k in range(3):
        sp, sm = sig.copy(), sig.copy()
        sp[k] += h
        sm[k] -= h
        tp = full_backward(z, 0.3, sp, hyp, targets, perm).total
        tm = full_backward(z, 0.3, sm, hyp, targets, perm).total
        assert abs(rep.grad_sigma[k] - (tp - tm) / (2 * h)) < 1e-6


def test_full_backward_alpha_grad_matches_fd_l1_direct():
    # l1-direct has no pairing; the error branch does not move with a,
    # so central differences on a are honest too
    hyp, z, gt, _ = _small_instance(6)
    a = 0.7
    targets = loss_targets(hyp, gt, GAMMA)
    z = z.reshape(-1, 5)
    rep = full_backward(z, a, np.zeros(3), hyp, targets, None, ranking="l1-direct")
    h = 1e-6
    tp = full_backward(z, a + h, np.zeros(3), hyp, targets, None, ranking="l1-direct").total
    tm = full_backward(z, a - h, np.zeros(3), hyp, targets, None, ranking="l1-direct").total
    assert abs(rep.grad_a - (tp - tm) / (2 * h)) < 1e-5


def test_full_backward_alpha_is_softplus():
    hyp, z, gt, perm = _small_instance(7)
    rep = full_backward(z.reshape(-1, 5), -1.3, np.zeros(3), hyp, loss_targets(hyp, gt, GAMMA), perm)
    assert abs(rep.alpha - float(softplus(-1.3))) < 1e-15


@pytest.mark.parametrize("readout", [None, np.linspace(0.2, 1.4, 5)], ids=["classification", "regression"])
def test_head_forward_decode(readout):
    hyp, z, _, _ = _small_instance(2)
    depth, unc, p = head_forward(z, -0.3, hyp, readout)
    np.testing.assert_array_equal(p, softmax_volume(z))
    np.testing.assert_array_equal(depth, expectation_depth(hyp, p) if readout is None else z @ readout)
    np.testing.assert_array_equal(unc, float(softplus(-0.3)) * clamped_entropy_parts(p)[0])


@pytest.mark.parametrize("readout", [None, np.linspace(0.2, 1.4, 5)], ids=["classification", "regression"])
def test_head_forward_is_the_forward_full_backward_trains(readout):
    hyp, z, gt, perm = _small_instance(4)
    sig = np.array([0.3, -0.2, 0.5])
    targets = loss_targets(hyp, gt, GAMMA if readout is None else None)
    rep = full_backward(z[targets.mask], 0.4, sig, hyp, targets, perm, readout=readout)
    depth, unc, _ = head_forward(z, 0.4, hyp, readout)
    d, u, g = depth.ravel(), unc.ravel(), gt.ravel()
    assert abs(rep.value_r - depth_l1(d, g).value) < 1e-12
    assert abs(rep.value_u - ranking_loss_variants(np.abs(d - g), u, perm, "hinge").value) < 1e-12


def test_full_backward_decodes_the_clipped_depth_of_head_forward():
    # logits that saturate the last bin; a few rows decode to just past
    # d_max before expectation_depth's clip, and their GT sits at d_max
    hyp = linear_hypotheses(1.0, 10.0, 16)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((200_000, 16)) * 50.0
    rows[:, -1] += 40.0
    past = softmax_volume(rows) @ hyp.values > hyp.d_max
    n_past = int(past.sum())
    assert 0 < n_past < 64
    z = np.concatenate([rows[past], rows[~past][: 64 - n_past]]).reshape(8, 8, 16)
    gt = rng.uniform(hyp.d_min, hyp.d_max, size=(8, 8))
    gt.reshape(-1)[:n_past] = hyp.d_max
    gt[7, 7] = np.nan
    targets = loss_targets(hyp, gt, None)
    sig = np.array([0.3, 0.0, 0.0])
    rep = full_backward(z[targets.mask], 0.4, sig, hyp, targets, None, ranking=None)
    depth_term = depth_l1(head_forward(z, 0.4, hyp)[0][targets.mask], targets.gt)
    assert rep.value_r == depth_term.value
    want = softmax_backward(
        softmax_volume(z)[targets.mask], (depth_term.grad * np.exp(-sig[0]))[:, None] * hyp.values
    )
    np.testing.assert_array_equal(rep.grad_z, want)


def _oracle_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _oracle_log_and_entropy(p):
    logp = np.log(np.clip(p, PROB_FLOOR, None))
    return logp, -(p * logp).sum(axis=-1)


def _oracle_step(z, a, sig, hyp, targets, perm, ranking, readout):
    # the step's arithmetic written out plainly: a copy of the valid rows,
    # np.clip, an out-of-place softmax and pullback, a scatter into zeros;
    # at z's dtype, with Python-float scalars and the hypotheses cast to it
    mask = targets.mask
    zv = z[mask]
    pv = _oracle_softmax(zv)
    values = hyp.values.astype(z.dtype)
    depth = np.clip(pv @ values, hyp.d_min, hyp.d_max) if readout is None else zv @ readout
    alpha = float(softplus(a))
    ew = [float(v) for v in np.exp(-sig)]
    w = 1.0 / targets.n
    resid = depth - targets.gt
    value_r = float(np.abs(resid).sum() * w)
    grad_depth = np.sign(resid) * w * ew[0]
    grad_p = grad_depth[:, None] * values if readout is None else None
    value_p = 0.0
    if targets.labels is not None:
        diff = targets.labels - pv
        value_p = float(np.abs(diff).sum() * w)
        grad_p = grad_p + np.sign(diff) * -w * ew[1]
    value_u = 0.0
    grad_a = 0.0
    if ranking is not None:
        logp, h = _oracle_log_and_entropy(pv)
        dh_dp = -(logp + (pv > PROB_FLOOR))
        rank = ranking_loss_variants(np.abs(depth - targets.gt), alpha * h, perm, ranking)
        value_u = rank.value
        gu_eff = rank.grad * ew[2]
        grad_p_u = (alpha * gu_eff)[:, None] * dh_dp
        grad_p = grad_p_u if grad_p is None else grad_p + grad_p_u
        grad_a = float((gu_eff * h).sum() * sigmoid(np.float64(a)))
    pullback = None
    if grad_p is not None:
        pullback = pv * (grad_p - (grad_p * pv).sum(axis=-1, keepdims=True))
    grad_readout = None
    if readout is None:
        gz_valid = pullback
    else:
        gz_valid = grad_depth[:, None] * readout
        grad_readout = grad_depth @ zv
        if pullback is not None:
            gz_valid = gz_valid + pullback
    grad_z = np.zeros_like(z)
    grad_z[mask] = gz_valid
    active = (True, targets.labels is not None, ranking is not None)
    total, grad_sigma = auto_weighted_total([value_r, value_p, value_u], sig, active)
    return value_r, value_p, value_u, total, grad_z, grad_a, grad_sigma, grad_readout


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 16), (12, 10, 16)])
def test_decode_parts_keep_the_oracle_bits_on_c_ordered_input(shape):
    # eval, combine --entropy-out and gradcheck pass C-ordered (..., M)
    # arrays and get the bits of the oracle step's plain formulas; the
    # bins-first layout of a training step gives the same values up to
    # row-sum rounding (7e-16 relative, 5e-16 in the entropy, on these inputs)
    rng = np.random.default_rng(shape[-1] + len(shape))
    z = rng.normal(scale=12.0, size=shape)
    z.flat[0] = 80.0  # puts the rest of the first row under the floor
    p = _oracle_softmax(z)
    _, h = _oracle_log_and_entropy(p)
    assert np.any(p < PROB_FLOOR)
    assert softmax_volume(z).tobytes() == p.tobytes()
    assert clamped_entropy(p).tobytes() == h.tobytes()
    assert raw_entropy(p).tobytes() == h.tobytes()
    hyp = linear_hypotheses(1.0, 10.0, shape[-1])
    gt = rng.uniform(0.5, 11.0, size=shape[:-1])
    gt.flat[0] = np.nan
    valid = valid_mask(gt)
    labels = _oracle_softmax(-GAMMA * np.abs(hyp.values - np.where(valid, gt, 1.0)[..., None]))
    labels[~valid] = 0.0
    assert soft_labels(hyp, gt, GAMMA).values.tobytes() == labels.tobytes()

    binsfirst = _bins_first(z)
    assert binsfirst.strides[-1] == max(binsfirst.strides)
    p_bf = softmax_volume(binsfirst)
    np.testing.assert_allclose(p_bf, p, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(clamped_entropy(p_bf), h, rtol=1e-14, atol=1e-15)


def _bins_first(x):
    """A (..., M) view of a bins-first copy of ``x``, as the training step passes."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def _same_bits(got, want):
    # equal shape, equal values with NaN matching NaN, and equal sign bits
    # (so -0.0 and 0.0 differ)
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
@pytest.mark.parametrize("m", [2, 3, 16, 32, 129])
def test_softmax_volume_matches_oracle_bitwise(m, lead):
    # the row max is NumPy's own, exact and independent of order, so
    # either layout keeps the oracle's bits, special values included
    rng = np.random.default_rng(m * 31 + len(lead))
    for trial in range(40):
        x = rng.normal(scale=3.0, size=lead + (m,))
        # half the trials are special values only, the rest a sprinkling
        share = 1.0 if trial % 2 else 0.3
        special = rng.random(x.shape) < share
        x[special] = rng.choice(_SPECIALS, size=int(special.sum()))
        for z in (x, _bins_first(x)):
            with np.errstate(invalid="ignore"):
                assert _same_bits(softmax_volume(z), _oracle_softmax(z))


def test_softmax_volume_signed_zero_rows():
    x = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    for z in (x, _bins_first(x)):
        assert _same_bits(softmax_volume(z), _oracle_softmax(z))


def test_softmax_volume_rejects_zero_bins():
    for z in (np.zeros((4, 0)), _bins_first(np.zeros((4, 0)))):
        with pytest.raises(ValueError):
            softmax_volume(z)


def _oracle_instances():
    """(rng, z, gt, a, sigma, readout, permutation seed) of each input.

    First a 12 x 10 map with 16 bins whose wide logits put some
    probabilities under the floor, then five seeded 5 x 6 maps with 7
    bins, each with its own raw scale, loss weights and readout.  The
    readout serves the regression head only; ``rng`` draws NaN GT.
    """
    rng = np.random.default_rng(31)
    z = rng.normal(size=(12, 10, 16)) * 12.0
    gt = rng.uniform(0.5, 10.5, size=(12, 10))
    yield rng, z, gt, -0.4, np.array([0.3, -0.2, 0.5]), np.linspace(-0.6, 1.4, 16), 5
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=1.5, size=(5, 6, 7))
        readout = rng.normal(size=7)
        gt = rng.uniform(1.0, 10.0, size=(5, 6))
        yield rng, z, gt, float(rng.normal()), rng.normal(scale=0.5, size=3), readout, seed + 17


@pytest.mark.parametrize("invalid", [False, True], ids=["all-valid", "nan-gt"])
@pytest.mark.parametrize("ranking", [None, "hinge", "no-max", "l1-direct"])
@pytest.mark.parametrize("regression", [False, True], ids=["classification", "regression"])
def test_full_backward_matches_oracle_step_bitwise(regression, ranking, invalid):
    # the rows of an all-valid map, a view, and the valid rows of a map
    # with NaN GT, a copy, give the oracle's bits at the valid pixels on
    # every instance, and the terms it reports active are the targets'
    floored = False
    for rng, z, gt, a, sig, readout, perm_seed in _oracle_instances():
        readout = readout if regression else None
        hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
        if invalid:
            gt[rng.random(gt.shape) < 0.2] = np.nan
        targets = loss_targets(hyp, gt, None if regression else GAMMA)
        assert (targets.n < gt.size) == invalid
        floored |= bool(np.any(softmax_volume(z) < PROB_FLOOR))
        perm = draw_permutation(targets.n, perm_seed) if ranking in ("hinge", "no-max") else None
        rows = z[targets.mask] if invalid else z.reshape(-1, z.shape[-1])
        rep = full_backward(rows, a, sig, hyp, targets, perm, ranking=ranking, readout=readout)
        want = _oracle_step(z, a, sig, hyp, targets, perm, ranking, readout)
        got = (rep.value_r, rep.value_p, rep.value_u, rep.total, rep.grad_z, rep.grad_a,
               rep.grad_sigma, rep.grad_readout)
        want = want[:4] + (want[4][targets.mask],) + want[5:]
        for name, g, o in zip(("value_r", "value_p", "value_u", "total", "grad_z", "grad_a",
                               "grad_sigma", "grad_readout"), got, want):
            if o is None:
                assert g is None, name
            else:
                assert np.asarray(g).tobytes() == np.asarray(o).tobytes(), name
        assert rep.grad_z.shape == (targets.n, z.shape[-1])
        assert rep.active == (True, targets.labels is not None, ranking is not None)
    assert floored


def test_float32_step_matches_oracle_step_bitwise():
    # a float32 step keeps the oracle's bits when the oracle runs at
    # float32 too; a float64 scalar or operand anywhere in full_backward
    # rounds the products differently and breaks this
    for regression in (False, True):
        for ranking in (None, "hinge", "l1-direct"):
            for rng, z, gt, a, sig, readout, perm_seed in _oracle_instances():
                z = z.astype(np.float32)
                readout = readout.astype(np.float32) if regression else None
                hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
                gt[rng.random(gt.shape) < 0.2] = np.nan
                targets = loss_targets(hyp, gt, None if regression else GAMMA, np.float32)
                perm = draw_permutation(targets.n, perm_seed) if ranking == "hinge" else None
                rep = full_backward(
                    z[targets.mask], a, sig, hyp, targets, perm, ranking=ranking, readout=readout
                )
                want = _oracle_step(z, a, sig, hyp, targets, perm, ranking, readout)
                want = want[:4] + (want[4][targets.mask],) + want[5:]
                got = (rep.value_r, rep.value_p, rep.value_u, rep.total, rep.grad_z, rep.grad_a,
                       rep.grad_sigma, rep.grad_readout)
                for name, g, o in zip(("value_r", "value_p", "value_u", "total", "grad_z", "grad_a",
                                       "grad_sigma", "grad_readout"), got, want):
                    if o is None:
                        assert g is None, name
                    else:
                        assert np.asarray(g).tobytes() == np.asarray(o).tobytes(), name
                assert rep.grad_z.dtype == np.float32
                if regression:
                    assert rep.grad_readout.dtype == np.float32


def test_loss_targets_follow_the_model_dtype():
    # the GT vector and the label rows at the requested dtype, the rows
    # computed in float64 and rounded once, bins-first in memory
    hyp = linear_hypotheses(1.0, 10.0, 5)
    gt = np.array([[2.5, np.nan, 3.3], [7.25, 9.0, 1.7]])
    wide = loss_targets(hyp, gt, 7.0)
    narrow = loss_targets(hyp, gt, 7.0, np.float32)
    assert wide.gt.dtype == wide.labels.dtype == np.float64
    assert narrow.gt.dtype == narrow.labels.dtype == np.float32
    assert narrow.gt.tobytes() == wide.gt.astype(np.float32).tobytes()
    assert narrow.labels.tobytes("A") == wide.labels.astype(np.float32).tobytes("A")
    assert narrow.labels.strides == (4, 4 * narrow.n)
    np.testing.assert_array_equal(narrow.mask, wide.mask)


def test_loss_targets_are_read_only_views():
    hyp = linear_hypotheses(1.0, 10.0, 5)
    gt = np.array([[2.5, np.nan], [7.25, 9.0]])
    targets = loss_targets(hyp, gt, 7.0)
    for arr in (targets.mask, targets.gt, targets.labels):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # built from the caller's own arrays, the targets leave their flags alone
    mask = np.ones(3, dtype=bool)
    LossTargets(mask=mask, gt=np.ones(3), labels=None)
    assert mask.flags.writeable


@pytest.mark.parametrize("readout", [None, np.linspace(0.2, 1.4, 5)], ids=["classification", "regression"])
def test_step_and_decode_leave_read_only_inputs_unchanged(readout):
    # read-only z rows and targets, a copy of the valid rows (one NaN GT
    # pixel) and a view of every row: nothing writes into them
    hyp, z, gt, _ = _small_instance(12)
    z.setflags(write=False)
    z_before = z.tobytes()
    gamma = GAMMA if readout is None else None
    gt_nan = gt.copy()
    gt_nan[0, 1] = np.nan
    for targets in (loss_targets(hyp, gt_nan, gamma), loss_targets(hyp, gt, gamma)):
        rows = z[targets.mask] if targets.n < gt.size else z.reshape(-1, 5)
        rows.setflags(write=False)
        arrays = [arr for arr in (rows, targets.mask, targets.gt, targets.labels) if arr is not None]
        before = [arr.tobytes() for arr in arrays]
        full_backward(rows, 0.2, np.zeros(3), hyp, targets, draw_permutation(targets.n, 3), readout=readout)
        assert [arr.tobytes() for arr in arrays] == before
    head_forward(z, 0.2, hyp, readout)
    softmax_volume(z)
    assert z.tobytes() == z_before
