import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy import stats

import depthuq.losses
import depthuq.toytrain
from depthuq.discretize import DepthHypotheses, linear_hypotheses
from depthuq.gridio import read_grid, read_keyvalue, valid_mask
from depthuq.losses import draw_permutation, full_backward, head_forward, loss_targets
from depthuq.metrics import DELTA_RATIO, evaluate_uncertainty
from depthuq.toytrain import (
    _PERM_SEED_STRIDE,
    ABLATION_ROWS,
    HEAD_KINDS,
    SIGMA_BOUND,
    SyntheticScene,
    ToyModel,
    TrainConfig,
    TrainingDivergedError,
    ablate,
    ablation_medians,
    evaluate_model,
    forward,
    generate_scene,
    init_model,
    make_dataset,
    pooled_errors,
    save_model,
    scene_gradients,
    train,
    _hidden_and_z,
)
from depthuq.uncertainty import softplus
from test_losses import _oracle_step


# bins-first training arrays against the pixel-major formulas: their
# row sums round differently, measured at most 2e-15 apart on these runs
# (float64 models)
PIXEL_MAJOR_TOL = dict(rtol=1e-12, atol=1e-14)
# one float32 step against the float64 step on the same weights, as a
# share of each gradient's largest entry: about 80 float32 ulps, against
# at most 9e-7 measured over 20 seeds of either head and every ranking
FLOAT32_STEP_TOL = 1e-5


@pytest.fixture(scope="module")
def tiny_data():
    return make_dataset(TrainConfig(train_scenes=6, eval_scenes=2, height=8, width=8, seed=4))


def _targets(model, scene, config):
    # the loss targets train builds for a scene, at the model's dtype
    gamma = config.gamma if config.include_soft else None
    return loss_targets(model.hypotheses, scene.gt, gamma, model.w1.dtype)


def _rows(scene, targets):
    # the valid feature rows train selects for a scene, once per run
    return scene.features[targets.mask]


def _float64(model):
    # a float64 copy of a (float32) model, for the checks at 1e-12
    weights = {
        name: getattr(model, name).astype(np.float64)
        for name in ("w1", "b1", "w2", "w_out") if getattr(model, name) is not None
    }
    return replace(model, sigma=model.sigma.copy(), **weights)


def _scene(h, w, f, seed, **fields):
    # one scene of an otherwise default config
    return generate_scene(TrainConfig(height=h, width=w, features=f, **fields), seed)


def test_generate_scene_deterministic():
    a = _scene(8, 8, 4, seed=11)
    b = _scene(8, 8, 4, seed=11)
    np.testing.assert_array_equal(a.gt, b.gt)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.seed == 11


def test_generate_scene_depth_in_range():
    s = _scene(16, 16, 4, seed=3, d_min=2.0, d_max=7.0)
    assert s.gt.min() >= 2.0 and s.gt.max() <= 7.0


def test_noise_profile_shape():
    s = _scene(8, 8, 4, seed=0)
    # constant down each column, strictly increasing left to right
    assert np.ptp(s.noise_std, axis=0).max() == 0.0
    assert np.all(np.diff(s.noise_std[0]) > 0)


def test_feature_noise_grows_rightward():
    # strip the polynomial basis back off; what remains is the injected
    # noise, whose spread must follow the column profile
    for seed in range(30):
        s = _scene(8, 8, 4, seed=seed)
        tn = 2.0 * (s.gt - 1.0) / 9.0 - 1.0
        basis = np.stack(
            [chebyshev.chebval(tn, [0.0] * j + [1.0]) for j in range(1, 5)], axis=-1
        )
        resid = s.features - basis
        left = resid[:, :2].std()
        right = resid[:, -2:].std()
        assert right > left


def test_make_dataset_split_disjoint():
    # every scene field of the config shapes the scenes
    cfg = TrainConfig(
        seed=3, train_scenes=3, eval_scenes=2, height=6, width=9, features=3,
        eta_lo=0.1, eta_hi=0.4, d_min=2.0, d_max=7.0,
    )
    train_scenes, eval_scenes = make_dataset(cfg)
    assert len(train_scenes) == 3 and len(eval_scenes) == 2
    train_seeds = {s.seed for s in train_scenes}
    assert train_seeds.isdisjoint({s.seed for s in eval_scenes})
    for scene in train_scenes + eval_scenes:
        want = generate_scene(cfg, scene.seed)
        assert scene.gt.tobytes() == want.gt.tobytes()
        assert scene.features.tobytes() == want.features.tobytes()
        assert scene.noise_std.tobytes() == want.noise_std.tobytes()
        assert scene.features.shape == (6, 9, 3)
        # features at the precision the model trains in, GT and noise float64
        assert scene.features.dtype == np.float32
        assert scene.gt.dtype == scene.noise_std.dtype == np.float64
        assert scene.gt.min() >= 2.0 and scene.gt.max() <= 7.0
        np.testing.assert_array_equal(scene.noise_std[-1], 0.1 + (0.4 - 0.1) * np.arange(9.0) / 9)
    assert init_model(cfg).n_features == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="hidden width must be >= 1, got 0"):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_every=0)
    with pytest.raises(ValueError):
        TrainConfig(head="mlp")
    with pytest.raises(ValueError):
        TrainConfig(ranking="softrank")
    with pytest.raises(ValueError):
        TrainConfig(head="regression", include_soft=True)
    # NaN passed the `<= 0` checks, and the run then failed as a divergence
    for name, field in (("learning rate", "lr"), ("gamma", "gamma")):
        for value in (np.nan, np.inf, -np.inf, 0.0):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {value}$"):
                TrainConfig(**{field: value})


@pytest.mark.parametrize("fields, message", [
    (dict(height=3), "image extents must be >= 4, got 3x32"),
    (dict(width=2), "image extents must be >= 4, got 32x2"),
    (dict(features=0), "need >= 1 feature channel, got 0"),
    (dict(m=1), "need >= 2 hypotheses, got 1"),
    (dict(eta_lo=0.5, eta_hi=0.5), "need 0 <= eta_lo < eta_hi, got 0.5, 0.5"),
    (dict(eta_lo=np.nan), "need 0 <= eta_lo < eta_hi, got nan, 1.0"),
    (dict(eta_hi=np.inf), "need 0 <= eta_lo < eta_hi, got 0.02, inf"),
    (dict(d_min=-1.0), r"need 0 < d_min < d_max, got \[-1.0, 10.0\]"),
    (dict(d_min=2.0, d_max=2.0), r"need 0 < d_min < d_max, got \[2.0, 2.0\]"),
    (dict(d_max=np.inf), r"need 0 < d_min < d_max, got \[1.0, inf\]"),
], ids=["height", "width", "features", "bins", "eta-empty", "eta-nan", "eta-inf", "d-min", "depth-empty",
        "depth-inf"])
def test_config_rejects_bad_scene_field(fields, message):
    # the scene fields and the bin count are checked when the config is
    # made, before any scene is built
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**fields)


def test_lr_schedule():
    cfg = TrainConfig(lr=0.2, lr_decay=0.8, decay_every=2)
    assert cfg.lr_at(0) == 0.2
    assert cfg.lr_at(1) == 0.2
    assert abs(cfg.lr_at(2) - 0.16) < 1e-15
    assert abs(cfg.lr_at(4) - 0.128) < 1e-15


def test_init_model_shapes():
    cfg = TrainConfig()
    m = init_model(cfg)
    assert m.w1.shape == (8, 16) and m.w2.shape == (16, 16)
    assert m.w_out is None and m.raw_scale == 0.0
    r = init_model(TrainConfig(head="regression", include_soft=False))
    assert r.w_out is not None and r.w_out.shape == (16,)


def test_init_model_rounds_the_draws_to_float32():
    # the RNG stream is unchanged: the weights are the float64 draws,
    # rounded once
    for head in HEAD_KINDS:
        cfg = TrainConfig(head=head, include_soft=head == "classification", seed=5)
        m = init_model(cfg)
        rng = np.random.default_rng(cfg.seed)
        w1 = rng.standard_normal((cfg.features, cfg.hidden)) / np.sqrt(cfg.features)
        w2 = rng.standard_normal((cfg.hidden, cfg.m)) / np.sqrt(cfg.hidden)
        assert m.w1.tobytes() == w1.astype(np.float32).tobytes()
        assert m.w2.tobytes() == w2.astype(np.float32).tobytes()
        assert m.b1.dtype == np.float32 and not m.b1.any()
        if head == "regression":
            w_out = rng.standard_normal(cfg.m) / np.sqrt(cfg.m)
            assert m.w_out.tobytes() == w_out.astype(np.float32).tobytes()
        assert m.sigma.dtype == np.float64 and isinstance(m.raw_scale, float)


def test_model_weights_share_one_dtype():
    hyp = linear_hypotheses(1, 10, 4)
    f32, f64 = np.float32, np.float64
    for dtype in (f32, f64):
        m = ToyModel(hyp, np.zeros((2, 3), dtype), np.zeros(3, dtype), np.zeros((3, 6), dtype), np.zeros(6, dtype))
        assert {w.dtype for w in (m.w1, m.b1, m.w2, m.w_out)} == {np.dtype(dtype)}
        assert m.sigma.dtype == f64
    # anything but float32 or float64 becomes float64
    m = ToyModel(hyp, np.zeros((2, 3), int), np.zeros(3, np.float16), [[0.0] * 4] * 3)
    assert {w.dtype for w in (m.w1, m.b1, m.w2)} == {np.dtype(f64)}
    with pytest.raises(ValueError, match=r"^network weights mix dtypes \['float32', 'float64'\]$"):
        ToyModel(hyp, np.zeros((2, 3), f32), np.zeros(3, f32), np.zeros((3, 4), f64))
    with pytest.raises(ValueError, match="^network weights mix dtypes"):
        ToyModel(hyp, np.zeros((2, 3), f32), np.zeros(3, f32), np.zeros((3, 6), f32), np.zeros(6, f64))


def test_model_validation():
    hyp = linear_hypotheses(1, 10, 4)
    hidden = dict(hypotheses=hyp, w1=np.zeros((2, 3)), b1=np.zeros(3))
    with pytest.raises(ValueError, match="^5 logits vs 4 hypotheses$"):
        ToyModel(**hidden, w2=np.zeros((3, 5)))
    with pytest.raises(ValueError, match="^latent readout length mismatch$"):
        ToyModel(**hidden, w2=np.zeros((3, 6)), w_out=np.zeros(5))
    with pytest.raises(ValueError, match="^non-finite model parameters$"):
        ToyModel(**hidden, w2=np.zeros((3, 6)), w_out=np.full(6, np.nan))
    # the readout picks the head; a latent size need not match the bins
    assert ToyModel(**hidden, w2=np.zeros((3, 4))).head == "classification"
    assert ToyModel(**hidden, w2=np.zeros((3, 6)), w_out=np.zeros(6)).head == "regression"
    for head in HEAD_KINDS:
        assert init_model(TrainConfig(head=head, include_soft=head == "classification")).head == head


def test_forward_zero_weights_is_uniform():
    hyp = linear_hypotheses(1, 10, 16)
    m = ToyModel(hypotheses=hyp, w1=np.zeros((8, 16)), b1=np.zeros(16), w2=np.zeros((16, 16)))
    scene = _scene(4, 4, 8, seed=0)
    depth, unc, vol = forward(m, scene)
    np.testing.assert_allclose(vol, 1 / 16, atol=1e-15)
    np.testing.assert_allclose(depth, 5.5, atol=1e-12)
    np.testing.assert_allclose(unc, np.log(2.0) * np.log(16.0), atol=1e-12)


def test_forward_single_pixel_by_hand():
    scene = SyntheticScene(
        gt=np.array([[2.0]]), features=np.array([[[0.3]]]),
        noise_std=np.array([[0.1]]), seed=0,
    )
    m = ToyModel(
        hypotheses=DepthHypotheses(np.array([1.0, 3.0])),
        w1=np.array([[2.0]]), b1=np.array([0.5]), w2=np.array([[1.0, -1.0]]),
    )
    depth, unc, _ = forward(m, scene)
    hid = np.tanh(0.3 * 2.0 + 0.5)
    p0 = 1.0 / (1.0 + np.exp(-2.0 * hid))
    assert abs(depth[0, 0] - (3.0 - 2.0 * p0)) < 1e-12
    ent = -(p0 * np.log(p0) + (1 - p0) * np.log(1 - p0))
    assert abs(unc[0, 0] - np.log(2.0) * ent) < 1e-12


def test_forward_feature_mismatch():
    m = init_model(TrainConfig())
    scene = _scene(4, 4, 5, seed=0)
    with pytest.raises(ValueError):
        forward(m, scene)


def test_train_rejects_wrong_feature_count():
    # training shares forward's check, so a bad scene names its feature
    # counts instead of failing inside a matmul
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="^scene has 5 feature channels, model wants 8$"):
        train([(init_model(cfg), cfg)], [_scene(8, 8, 5, seed=0)])


def test_vanishing_lr_leaves_parameters_in_place(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=1, lr=1e-300, seed=1)
    m = init_model(cfg)
    before = (m.w1.copy(), m.b1.copy(), m.w2.copy(), m.sigma.copy(), m.raw_scale)
    train([(m, cfg)], train_scenes)
    # nonzero weights cannot move by less than an ulp
    np.testing.assert_array_equal(m.w1, before[0])
    np.testing.assert_array_equal(m.w2, before[2])
    # zero-initialized parameters pick up at most the subnormal step
    # itself (float32 rounds it to 0; compared as a Python float, since a
    # float32 comparison would round 1e-290 to 0 too)
    assert float(np.max(np.abs(m.b1 - before[1]))) < 1e-290
    assert np.max(np.abs(m.sigma - before[3])) < 1e-290
    assert abs(m.raw_scale - before[4]) < 1e-290


def test_training_reduces_loss():
    cfg = TrainConfig(epochs=6, seed=2, train_scenes=16, eval_scenes=2, height=16, width=16)
    train_scenes, _ = make_dataset(cfg)
    [(model, logs)] = train([(init_model(cfg), cfg)], train_scenes)
    assert logs[-1]["total"] < logs[0]["total"]
    assert [lg["epoch"] for lg in logs] == list(range(6))


def test_training_is_deterministic(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=2, seed=4)
    [(m1, logs1)] = train([(init_model(cfg), cfg)], train_scenes)
    [(m2, logs2)] = train([(init_model(cfg), cfg)], train_scenes)
    np.testing.assert_array_equal(m1.w1, m2.w1)
    np.testing.assert_array_equal(m1.w2, m2.w2)
    np.testing.assert_array_equal(m1.sigma, m2.sigma)
    assert m1.raw_scale == m2.raw_scale
    assert logs1 == logs2


def test_sigma_gradient_rule(tiny_data):
    # d(total)/dsigma_i = 1 - L_i exp(-sigma_i) for active terms; verify
    # against both the closed form and central differences
    train_scenes, _ = tiny_data
    cfg = TrainConfig(seed=6)
    m = init_model(cfg)
    m.sigma = np.array([0.3, -0.2, 0.4])
    targets = _targets(m, train_scenes[0], cfg)
    rows = _rows(train_scenes[0], targets)
    perm = draw_permutation(targets.n, 5)
    report, grads = scene_gradients(m, rows, cfg, perm, targets)
    np.testing.assert_allclose(
        grads["sigma"], 1.0 - report.values() * np.exp(-m.sigma), atol=1e-12
    )
    h = 1e-6
    for k in range(3):
        m_hi = init_model(cfg)
        m_hi.sigma = m.sigma.copy()
        m_hi.sigma[k] += h
        m_lo = init_model(cfg)
        m_lo.sigma = m.sigma.copy()
        m_lo.sigma[k] -= h
        t_hi, _ = scene_gradients(m_hi, rows, cfg, perm, targets)
        t_lo, _ = scene_gradients(m_lo, rows, cfg, perm, targets)
        fd = (t_hi.total - t_lo.total) / (2 * h)
        assert abs(grads["sigma"][k] - fd) < 1e-5


def test_network_gradients_match_fd(tiny_data):
    # ranking off: every remaining branch is differentiable through the
    # net, so plain central differences on the weights are honest
    train_scenes, _ = tiny_data
    # (in float64: a 1e-6 step is a few float32 ulps of a weight)
    cfg = TrainConfig(ranking=None, seed=3)
    m = _float64(init_model(cfg))
    scene = train_scenes[1]
    targets = _targets(m, scene, cfg)
    rows = _rows(scene, targets)
    _, grads = scene_gradients(m, rows, cfg, None, targets)
    h = 1e-6

    def total_with(param, idx, delta):
        probe = _float64(init_model(cfg))
        getattr(probe, param)[idx] += delta
        rep, _ = scene_gradients(probe, rows, cfg, None, targets)
        return rep.total

    for param, idx in (("w2", (0, 0)), ("w2", (7, 11)), ("w1", (2, 5)), ("b1", (4,))):
        fd = (total_with(param, idx, h) - total_with(param, idx, -h)) / (2 * h)
        got = grads[param][idx]
        assert abs(got - fd) <= max(1e-7, 1e-4 * abs(fd)), (param, idx, got, fd)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_float32_step_stays_float32(tiny_data, head):
    # the step of a float32 model keeps grad_z and the network gradients
    # in float32, and on C-ordered copies of the step's z rows
    # full_backward gives the bits of the oracle step run at float32: a
    # float64 scalar or operand anywhere in full_backward would cast
    # them, or round the products differently
    scene = _with_invalid_gt(tiny_data[0][0], (2, 3))
    cfg = TrainConfig(seed=2, head=head, include_soft=head == "classification")
    m = init_model(cfg)
    m.sigma = np.array([0.3, -0.2, 0.4])
    m.raw_scale = -0.3
    targets = _targets(m, scene, cfg)
    rows = _rows(scene, targets)
    perm = draw_permutation(targets.n, 5)
    report, grads = scene_gradients(m, rows, cfg, perm, targets)
    names = ["w1", "b1", "w2"] + (["w_out"] if head == "regression" else [])
    assert report.grad_z.dtype == np.float32
    assert [grads[name].dtype for name in names] == [np.dtype(np.float32)] * len(names)
    z = np.ascontiguousarray(_hidden_and_z(m, rows)[1])
    assert z.dtype == np.float32
    args = (m.raw_scale, m.sigma, m.hypotheses, targets, perm)
    got = full_backward(z, *args, ranking=cfg.ranking, readout=m.w_out)
    z_map = np.zeros(scene.gt.shape + z.shape[-1:], np.float32)
    z_map[targets.mask] = z
    want = _oracle_step(z_map, *args, cfg.ranking, m.w_out)
    assert got.total == want[3] and got.grad_a == want[5]
    assert got.grad_z.tobytes() == want[4][targets.mask].tobytes()


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_float32_step_tracks_the_float64_step(tiny_data, head):
    # the same weights and scene at both precisions: the gradients agree
    # to FLOAT32_STEP_TOL of their largest entry, the total and the sigma
    # gradients to 1e-6 (measured 7e-8 and 1.4e-7); the raw-scale
    # gradient sums signed pair terms, so cancellation leaves it 1e-3
    # (measured 8.5e-5)
    scene = tiny_data[0][1]
    cfg = TrainConfig(seed=3, head=head, include_soft=head == "classification")
    m32 = init_model(cfg)
    m32.sigma = np.array([0.3, -0.2, 0.4])
    m32.raw_scale = 0.3
    m64 = _float64(m32)
    t32, t64 = _targets(m32, scene, cfg), _targets(m64, scene, cfg)
    perm = draw_permutation(t32.n, 7)
    r32, g32 = scene_gradients(m32, _rows(scene, t32), cfg, perm, t32)
    r64, g64 = scene_gradients(m64, _rows(scene, t64), cfg, perm, t64)
    assert g32["w1"].dtype == np.float32 and g64["w1"].dtype == np.float64
    assert r32.total == pytest.approx(r64.total, rel=1e-6, abs=0)
    np.testing.assert_allclose(g32["sigma"], g64["sigma"], rtol=1e-6, atol=0)
    assert g32["a"] == pytest.approx(g64["a"], rel=1e-3, abs=0)
    pairs = [(r32.grad_z, r64.grad_z)] + [(g32[k], g64[k]) for k in ("w1", "b1", "w2", "w_out") if k in g64]
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_STEP_TOL * np.abs(want).max())


def _regression_instance(seed, shape=(5, 6), latent=7):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=1.5, size=shape + (latent,))
    w_out = rng.normal(size=latent)
    gt = rng.uniform(1.0, 10.0, size=shape)
    a = float(rng.normal())
    sigma = rng.normal(scale=0.5, size=3)
    perm = draw_permutation(gt.size, seed + 17)
    return z, w_out, a, sigma, gt, perm


@pytest.mark.parametrize("ranking", ["hinge", "no-max", "l1-direct", None])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_readout_backward_matches_regression_oracle(ranking, seed):
    # the readout route of full_backward gives the bits of the one oracle
    # step on each seeded all-valid regression instance
    z, w_out, a, sigma, gt, perm = _regression_instance(seed)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    targets = loss_targets(hyp, gt, None)
    got = full_backward(z.reshape(-1, z.shape[-1]), a, sigma, hyp, targets, perm, ranking=ranking, readout=w_out)
    value_r, _, value_u, total, grad_z, grad_a, grad_sigma, grad_readout = _oracle_step(
        z, a, sigma, hyp, targets, perm, ranking, w_out
    )
    assert got.value_r == value_r
    assert got.value_u == value_u
    assert got.total == total
    assert got.grad_a == grad_a
    assert got.active == (True, False, ranking is not None)
    np.testing.assert_array_equal(got.grad_z, grad_z[targets.mask])
    np.testing.assert_array_equal(got.grad_readout, grad_readout)
    np.testing.assert_array_equal(got.grad_sigma, grad_sigma)


def test_readout_rejects_soft_term():
    z, w_out, a, sigma, gt, perm = _regression_instance(0)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    with pytest.raises(ValueError, match="soft-label term needs the classification head"):
        full_backward(z.reshape(-1, z.shape[-1]), a, sigma, hyp, loss_targets(hyp, gt, 20.0), perm, readout=w_out)


def test_readout_masks_invalid_gt():
    # the valid rows of a map with one NaN GT pixel give the bits of a GT
    # vector that never had the pixel
    z, w_out, a, sigma, gt, _ = _regression_instance(5)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    gt[1, 2] = np.nan
    perm = draw_permutation(gt.size - 1, 3)
    targets = loss_targets(hyp, gt, None)
    rep = full_backward(z[targets.mask], a, sigma, hyp, targets, perm, readout=w_out)
    assert rep.n_valid == gt.size - 1
    assert np.isfinite(rep.total)
    assert np.all(np.isfinite(rep.grad_readout))
    keep = np.isfinite(gt)
    kept = full_backward(z[keep], a, sigma, hyp, loss_targets(hyp, gt[keep], None), perm, readout=w_out)
    assert rep.total == kept.total
    np.testing.assert_array_equal(rep.grad_z, kept.grad_z)
    np.testing.assert_array_equal(rep.grad_readout, kept.grad_readout)


def test_regression_head_diverges_at_huge_lr(tiny_data):
    cfg = TrainConfig(
        epochs=4, lr=1e20, seed=0, head="regression", include_soft=False,
        train_scenes=4, eval_scenes=2, height=8, width=8,
    )
    train_scenes, _ = make_dataset(cfg)
    m = init_model(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train([(m, cfg)], train_scenes)
    assert isinstance(exc.value.epoch, int)
    assert isinstance(exc.value, RuntimeError)


def test_regression_head_trains(tiny_data):
    train_scenes, eval_scenes = tiny_data
    cfg = TrainConfig(epochs=2, seed=5, head="regression", include_soft=False)
    m = init_model(cfg)
    w_out_before = m.w_out.copy()
    [(m, logs)] = train([(m, cfg)], train_scenes)
    assert not np.array_equal(m.w_out, w_out_before)
    assert all(lg["loss_soft"] == 0.0 for lg in logs)
    depth, unc, p = forward(m, eval_scenes[0])
    assert depth.shape == (8, 8) and unc.shape == (8, 8)
    # the pseudo distribution softmax(z), a simplex like the classifier's
    assert p.shape == (8, 8, 16) and p.dtype == np.float32
    # at 1e-12 in float64, the precision that bound is written for
    _, _, p = forward(_float64(m), eval_scenes[0])
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_epoch_log_row_keys(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=2, seed=0)
    [(_, logs)] = train([(init_model(cfg), cfg)], train_scenes)
    for log in logs:
        assert list(log) == [
            "epoch", "lr", "total", "loss_depth", "loss_soft", "loss_rank",
            "sigma_depth", "sigma_soft", "sigma_rank", "alpha",
            "grad_sigma_depth", "grad_sigma_soft", "grad_sigma_rank",
        ]


def test_evaluate_model_summary(tiny_data):
    train_scenes, eval_scenes = tiny_data
    cfg = TrainConfig(epochs=2, seed=4)
    [(m, _)] = train([(init_model(cfg), cfg)], train_scenes)
    row = evaluate_model(m, eval_scenes)
    assert row["rmse"] > 0
    assert "scc" in row and "noise_scc" in row
    errs, uncs = pooled_errors(m, eval_scenes)
    assert errs.shape == uncs.shape == (2 * 64,)


def test_pooled_errors_drop_invalid_gt(tiny_data):
    # a pair of 32 x 32 scenes, the top half of one's GT missing: the
    # 512 invalid pixels are left out, by the valid-GT rule of the metrics
    cfg = TrainConfig(train_scenes=1, eval_scenes=2, seed=1)
    _, scenes = make_dataset(cfg)
    gt = scenes[1].gt.copy()
    gt[:16] = np.nan
    gt[20, 3] = -1.0
    scenes[1] = replace(scenes[1], gt=gt)
    model = init_model(cfg)
    errs, uncs = pooled_errors(model, scenes)
    assert errs.shape == uncs.shape == (2 * 1024 - 513,)
    assert np.isfinite(errs).all() and np.isfinite(uncs).all()
    want_e, want_u = [], []
    for scene in scenes:
        depth, unc, _ = forward(model, scene)
        keep = valid_mask(scene.gt)
        want_e.append(np.abs(depth[keep] - scene.gt[keep]))
        want_u.append(unc[keep])
    assert errs.tobytes() == np.concatenate(want_e).tobytes()
    assert uncs.tobytes() == np.concatenate(want_u).tobytes()


def _oracle_scene_cells(model, scene):
    """One scene's ``eval.csv`` cells, each from its own formula.

    Accuracy and both SCCs are recomputed here (SCC with SciPy, None
    when either side is constant); the sparsification areas, AUROC,
    FPR95 and NLL are read off the scene's ``evaluate_uncertainty``
    fields by name.
    """
    depth, unc, vol = forward(model, scene)
    # the metrics read their inputs as float64, so the formulas do too
    depth, unc = depth.astype(np.float64), unc.astype(np.float64)
    keep = valid_mask(scene.gt)
    p, g, u = depth[keep], scene.gt[keep], unc[keep]
    pos = p > 0
    ratio = np.full(p.shape, np.inf)
    ratio[pos] = np.maximum(p[pos] / g[pos], g[pos] / p[pos])

    def rho(a, b):
        return None if np.ptp(a) == 0 or np.ptp(b) == 0 else float(stats.spearmanr(a, b)[0])

    rep = evaluate_uncertainty(
        depth, scene.gt, unc, vol=vol if model.head == "classification" else None, hyp=model.hypotheses
    )
    return {
        "rmse": np.sqrt(np.mean((p - g) ** 2)),
        "rel": np.mean(np.abs(p - g) / g),
        "log10": np.mean(np.abs(np.log10(p[pos]) - np.log10(g[pos]))) if pos.any() else None,
        "sq_rel": np.mean((p - g) ** 2 / g),
        "log_rms": np.sqrt(np.mean((np.log(p[pos]) - np.log(g[pos])) ** 2)) if pos.any() else None,
        "delta1": np.mean(ratio < DELTA_RATIO),
        "delta2": np.mean(ratio < DELTA_RATIO**2),
        "delta3": np.mean(ratio < DELTA_RATIO**3),
        "ause_rmse": rep.ause_rmse, "aurg_rmse": rep.aurg_rmse,
        "ause_rel": rep.ause_rel, "aurg_rel": rep.aurg_rel,
        "ause_delta1": rep.ause_delta1, "aurg_delta1": rep.aurg_delta1,
        "scc": rho(np.abs(p - g), u),
        "auroc": rep.auroc,
        "fpr95": rep.fpr95,
        "nll": rep.nll,
        "noise_scc": rho(unc.ravel(), scene.noise_std.ravel()),
    }


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("trained", [True, False], ids=["trained", "zero-weight"])
def test_evaluate_model_matches_per_scene_oracle(tiny_data, head, trained):
    # every cell is the mean over scenes of its defined per-scene values;
    # the zero-weight model's uncertainty is constant, so both SCCs are
    # undefined on every scene and stay None
    train_scenes, eval_scenes = tiny_data
    scenes = [eval_scenes[0], _with_invalid_gt(eval_scenes[1], (1, 1), (4, 6))]
    cfg = TrainConfig(epochs=1, seed=3, head=head, include_soft=head == "classification")
    model = init_model(cfg)
    if trained:
        train([(model, cfg)], train_scenes)
    else:
        for name in ("w1", "b1", "w2", "w_out"):
            if getattr(model, name) is not None:
                setattr(model, name, np.zeros_like(getattr(model, name)))
    got = evaluate_model(model, scenes)
    cells = [_oracle_scene_cells(model, scene) for scene in scenes]
    assert list(got) == list(cells[0])
    for name, value in got.items():
        kept = [c[name] for c in cells if c[name] is not None]
        if kept:
            assert value == pytest.approx(np.mean(kept), rel=1e-12, abs=1e-15), name
        else:
            assert value is None, name
    assert (got["nll"] is None) == (head == "regression")
    if trained:
        assert got["scc"] is not None and got["noise_scc"] is not None
    else:
        assert got["scc"] is None and got["noise_scc"] is None


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_save_model_bundle(tmp_path, head):
    # float32 weight grids, the readout only for regression, and an
    # exact raw_scale in the manifest
    m = init_model(TrainConfig(head=head, include_soft=head == "classification", seed=7))
    m.raw_scale = 0.1 + 1e-12
    save_model(m, tmp_path / "m")
    names = {"w1", "b1", "w2", "sigma"} | ({"w_out"} if head == "regression" else set())
    assert {p.stem for p in (tmp_path / "m").glob("*.duv")} == names
    for name in names:
        np.testing.assert_array_equal(
            read_grid(tmp_path / "m" / f"{name}.duv"),
            getattr(m, name).astype(np.float32).astype(np.float64),
        )
    manifest = read_keyvalue(tmp_path / "m" / "manifest.txt")
    assert manifest["head"] == head and float(manifest["raw_scale"]) == m.raw_scale


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_saved_grids_are_the_trained_weights(tiny_data, tmp_path, head):
    # the checkpoint holds the evaluated model bit for bit: training runs
    # in the float32 the grids store, so nothing is rounded on the way out
    cfg = TrainConfig(epochs=1, seed=2, head=head, include_soft=head == "classification")
    [(m, _)] = train([(init_model(cfg), cfg)], tiny_data[0])
    save_model(m, tmp_path / "m")
    for name in ("w1", "b1", "w2") + (("w_out",) if head == "regression" else ()):
        stored = read_grid(tmp_path / "m" / f"{name}.duv")
        assert stored.astype(np.float32).tobytes() == getattr(m, name).tobytes(), name
        np.testing.assert_array_equal(stored, getattr(m, name))


def test_save_model_checks_every_grid_before_writing(tmp_path):
    # a float64 model: a float32 weight cannot hold 1e39
    m = _float64(init_model(TrainConfig(seed=7)))
    m.w2[3, 4] = 1e39
    with pytest.raises(ValueError, match=r"w2\.duv: 1 finite entries exceed the float32 range$"):
        save_model(m, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def test_ablate_rows_and_thread_equivalence():
    base = TrainConfig(epochs=2, train_scenes=3, eval_scenes=2, height=8, width=8)
    rows = ablate([0], base=base)
    assert [r["config"] for r in rows] == [name for name, _, _ in ABLATION_ROWS]
    assert all(r["seed"] == 0 for r in rows)
    assert all("scc" in r and "rmse" in r and "train_s" in r for r in rows)


def test_ablate_starts_no_thread(monkeypatch):
    # the runs train in one call on the caller's thread; a pool started
    # a worker even for one thread
    def refuse(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    base = TrainConfig(epochs=1, train_scenes=2, eval_scenes=1, height=8, width=8)
    rows = ablate([0], base=base)
    assert [r["config"] for r in rows] == [name for name, _, _ in ABLATION_ROWS]


def test_ablate_train_s_times_train_alone(monkeypatch):
    # a fake clock that only training and evaluation move: train_s must
    # hold the seed's one training call's 1 s, not the evaluations' 100 s
    # each after it
    clock = [0.0]

    def fake_train(runs, scenes):
        clock[0] += 1.0
        return [(model, []) for model, _ in runs]

    def fake_evaluate(model, scenes):
        clock[0] += 100.0
        return {"scc": 0.5}

    monkeypatch.setattr(depthuq.toytrain.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(depthuq.toytrain, "train", fake_train)
    monkeypatch.setattr(depthuq.toytrain, "evaluate_model", fake_evaluate)
    base = TrainConfig(epochs=1, train_scenes=2, eval_scenes=1, height=8, width=8)
    rows = ablate([0, 1], base=base)
    assert [r["train_s"] for r in rows] == [1.0, 1.0, 1.0, 1.0, None, 1.0] * 2


def test_ablation_medians():
    rows = [
        {"config": "full", "scc": 0.1},
        {"config": "full", "scc": 0.3},
        {"config": "full", "scc": 0.2},
        {"config": "depth_only", "scc": None},
    ]
    med = ablation_medians(rows)
    assert med["full"] == 0.2
    assert med["depth_only"] is None
    assert med["full_nomax"] is None


def _with_invalid_gt(scene, *pixels):
    gt = scene.gt.copy()
    for pixel in pixels:
        gt[pixel] = np.nan
    return replace(scene, gt=gt)


@pytest.mark.parametrize("ranking", ["hinge", "no-max"])
def test_pair_ranking_on_scene_with_invalid_gt(tiny_data, ranking):
    # the pair permutation covers the valid pixels only, so one NaN GT
    # pixel costs the pair variants one permutation slot, not the step
    scene = _with_invalid_gt(tiny_data[0][0], (2, 3))
    cfg = TrainConfig(epochs=1, seed=2, ranking=ranking)
    m = init_model(cfg)
    targets = _targets(m, scene, cfg)
    perm = draw_permutation(targets.n, 11)
    report, grads = scene_gradients(m, _rows(scene, targets), cfg, perm, targets)

    # the 63 valid pixels dropped out by hand: their feature rows, bins-first
    # as the step holds them, and their GT vector
    keep = valid_mask(scene.gt)
    f2 = scene.features[keep]
    z = (m.w2.T @ np.tanh(m.w1.T @ f2.T + m.b1[:, None])).T
    kept = loss_targets(m.hypotheses, scene.gt[keep], cfg.gamma, np.float32)
    want = full_backward(
        z, m.raw_scale, m.sigma, m.hypotheses, kept, perm, ranking=ranking,
    )
    assert report.n_valid == want.n_valid == 63
    assert report.total == want.total
    assert report.grad_a == want.grad_a
    assert report.grad_z.shape == (63, cfg.m)
    np.testing.assert_array_equal(report.grad_z, want.grad_z)
    np.testing.assert_array_equal(grads["sigma"], want.grad_sigma)

    [(trained, logs)] = train([(m, cfg)], [scene, tiny_data[0][1]])
    assert len(logs) == 1 and np.isfinite(logs[0]["total"])
    trained.check_finite()


def _reference_train(model, scenes, config, bins_first=True):
    """``train`` with the invalid pixels dropped by hand on every step.

    Nothing is built ahead of the steps: each one keeps its scene's
    valid pixels, as feature rows and a GT vector, makes that vector's
    ``loss_targets`` and a permutation over its length, and spells out
    the hidden layer, the chain rule and the update.  ``bins_first``
    holds the hidden layer and z as (hidden, pixels) and (M, pixels)
    arrays, as ``train`` does; otherwise every array is pixel-major, the
    plain formulas whose row sums round differently.
    """
    gamma = config.gamma if config.include_soft else None
    logs = []
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        totals = np.zeros(4)
        gsig = np.zeros(3)
        for scene in scenes:
            keep = valid_mask(scene.gt)
            f2, gt = scene.features[keep], scene.gt[keep]
            if bins_first:
                hid = np.tanh(model.w1.T @ f2.T + model.b1[:, None])
                z = (model.w2.T @ hid).T
            else:
                hid = np.tanh(f2 @ model.w1 + model.b1)
                z = hid @ model.w2
            perm = None
            if config.ranking in ("hinge", "no-max"):
                perm = draw_permutation(gt.size, config.seed * _PERM_SEED_STRIDE + step)
            rep = full_backward(
                z, model.raw_scale, model.sigma, model.hypotheses,
                loss_targets(model.hypotheses, gt, gamma, model.w1.dtype),
                perm, ranking=config.ranking, readout=model.w_out,
            )
            gz = rep.grad_z
            if bins_first:
                grad_pre = (model.w2 @ gz.T) * (1.0 - hid**2)
                model.w1 -= lr * (f2.T @ grad_pre.T)
                model.b1 -= lr * grad_pre.sum(axis=1)
                model.w2 -= lr * (hid @ gz)
            else:
                grad_pre = (gz @ model.w2.T) * (1.0 - hid**2)
                model.w1 -= lr * (f2.T @ grad_pre)
                model.b1 -= lr * grad_pre.sum(axis=0)
                model.w2 -= lr * (hid.T @ gz)
            model.raw_scale -= lr * rep.grad_a
            model.sigma = np.clip(model.sigma - lr * rep.grad_sigma, -SIGMA_BOUND, SIGMA_BOUND)
            if rep.grad_readout is not None:
                model.w_out = model.w_out - lr * rep.grad_readout
            totals += (rep.total, rep.value_r, rep.value_p, rep.value_u)
            gsig += rep.grad_sigma
            step += 1
        k = len(scenes)
        log = {"epoch": epoch, "lr": lr, "total": totals[0] / k}
        for i, term in enumerate(("depth", "soft", "rank")):
            log[f"loss_{term}"] = totals[i + 1] / k
        for i, term in enumerate(("depth", "soft", "rank")):
            log[f"sigma_{term}"] = float(model.sigma[i])
        log["alpha"] = float(softplus(model.raw_scale))
        for i, term in enumerate(("depth", "soft", "rank")):
            log[f"grad_sigma_{term}"] = float(gsig[i] / k)
        logs.append(log)
    return model, logs


@pytest.mark.parametrize(
    "head, soft, ranking",
    [
        ("classification", True, "hinge"),
        ("classification", True, "no-max"),
        ("classification", False, "hinge"),
        ("classification", True, "l1-direct"),
        ("classification", True, None),
        ("regression", False, "hinge"),
    ],
)
def test_train_targets_match_default_backward_path(tiny_data, head, soft, ranking):
    # per-run targets (mask, valid GT, label rows) must change no bit of
    # the run; one scene has invalid GT so the mask matters
    scenes = list(tiny_data[0][:4])
    scenes[1] = _with_invalid_gt(scenes[1], (0, 0), (5, 6))
    cfg = TrainConfig(epochs=3, seed=9, head=head, include_soft=soft, ranking=ranking)
    [(got, got_logs)] = train([(init_model(cfg), cfg)], scenes)
    want, want_logs = _reference_train(init_model(cfg), scenes, cfg)
    for name in ("w1", "b1", "w2", "sigma", "w_out"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.raw_scale == want.raw_scale
    assert got_logs == want_logs
    # the pixel-major formulas: the same run up to row-sum rounding, for
    # a float64 model, the precision that tolerance is written for
    [(got, got_logs)] = train([(_float64(init_model(cfg)), cfg)], scenes)
    near, near_logs = _reference_train(_float64(init_model(cfg)), scenes, cfg, bins_first=False)
    for name in ("w1", "b1", "w2", "sigma", "w_out"):
        if getattr(got, name) is not None:
            np.testing.assert_allclose(getattr(got, name), getattr(near, name), **PIXEL_MAJOR_TOL)
    np.testing.assert_allclose(got.raw_scale, near.raw_scale, **PIXEL_MAJOR_TOL)
    for row, near_row in zip(got_logs, near_logs, strict=True):
        np.testing.assert_allclose(list(row.values()), list(near_row.values()), **PIXEL_MAJOR_TOL)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_sparse_gt_run_equals_valid_pixel_reference(tiny_data, head):
    # sparse GT (ROADMAP item 13): a run on scenes with invalid GT over
    # part of their pixels equals, in every parameter and every epoch row,
    # the loop that drops those pixels by hand and draws its pairs over
    # the pixels it keeps; the step on valid rows holds them bins-first,
    # as a dense step does
    scenes = list(tiny_data[0])
    rng = np.random.default_rng(13)
    scenes[0] = _with_invalid_gt(scenes[0], np.s_[:3])  # the top rows, like a scanline gap
    gt = scenes[2].gt.copy()
    gt[rng.random(gt.shape) < 0.7] = np.nan  # a random dropout
    scenes[2] = replace(scenes[2], gt=gt)
    keep = np.zeros(scenes[4].gt.shape, dtype=bool)
    keep[5, 1] = keep[2, 6] = keep[7, 7] = True  # three valid pixels
    scenes[4] = replace(scenes[4], gt=np.where(keep, scenes[4].gt, np.nan))
    assert [int(valid_mask(scenes[i].gt).sum()) for i in (0, 4)] == [40, 3]
    cfg = TrainConfig(epochs=3, seed=5, head=head, include_soft=head == "classification")
    [(got, got_logs)] = train([(init_model(cfg), cfg)], scenes)
    want, want_logs = _reference_train(init_model(cfg), scenes, cfg)
    for name in ("w1", "b1", "w2", "sigma", "w_out"):
        if getattr(want, name) is not None:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.raw_scale == want.raw_scale
    assert got_logs == want_logs


@pytest.mark.parametrize("soft", [True, False])
def test_soft_labels_built_once_per_scene_and_run(tiny_data, monkeypatch, soft):
    calls = []
    original = depthuq.losses.soft_labels

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # loss_targets is the one caller of soft_labels in training
    monkeypatch.setattr(depthuq.losses, "soft_labels", counted)
    scenes = tiny_data[0]
    cfg = TrainConfig(epochs=3, seed=1, include_soft=soft)
    train([(init_model(cfg), cfg)], scenes)
    assert len(calls) == (len(scenes) if soft else 0)



def test_no_max_row_equals_depth_soft_row():
    # the no-max gradient is exactly zero, so the weights train as without a
    # ranking term; ablate reuses the depth_soft run for the full_nomax row
    train_scenes, eval_scenes = make_dataset(
        TrainConfig(train_scenes=3, eval_scenes=2, height=8, width=8)
    )
    train_scenes[1] = _with_invalid_gt(train_scenes[1], (0, 0), (3, 5))
    eval_scenes[0] = _with_invalid_gt(eval_scenes[0], (2, 2))
    models, rows = {}, {}
    for ranking in (None, "no-max"):
        cfg = TrainConfig(epochs=2, include_soft=True, ranking=ranking)
        [(models[ranking], _)] = train([(init_model(cfg), cfg)], train_scenes)
        rows[ranking] = evaluate_model(models[ranking], eval_scenes)
    nomax, soft = models["no-max"], models[None]
    for name in ("w1", "b1", "w2"):
        assert getattr(nomax, name).tobytes() == getattr(soft, name).tobytes()
    assert np.float64(nomax.raw_scale).tobytes() == np.float64(soft.raw_scale).tobytes()
    assert nomax.sigma[2] != soft.sigma[2]  # only the unused rank weight moves
    assert rows["no-max"] == rows[None]


def test_ablate_trains_each_distinct_model_once(monkeypatch):
    base = TrainConfig(epochs=1, train_scenes=2, eval_scenes=1, height=8, width=8)
    original = depthuq.toytrain.train
    calls = []
    batches = []

    def counted(runs, scenes):
        batches.append(len(runs))
        calls.extend((config.seed, config.include_soft, config.ranking) for _, config in runs)
        return original(runs, scenes)

    monkeypatch.setattr(depthuq.toytrain, "train", counted)
    ablate([0], base=base)
    assert len(calls) == 5 and batches == [5]
    seeds = [3, 1]
    calls.clear()
    batches.clear()
    rows = ablate(seeds, base=base)
    assert len(calls) == 10 and len(set(calls)) == 10
    # one training call per seed, holding that seed's runs only
    assert batches == [5, 5] and [seed for seed, _, _ in calls] == [3] * 5 + [1] * 5
    assert "no-max" not in {ranking for _, _, ranking in calls}
    assert [(r["config"], r["seed"]) for r in rows] == [
        (name, seed) for seed in seeds for name, _, _ in ABLATION_ROWS
    ]
    assert [r["train_s"] is None for r in rows] == [r["config"] == "full_nomax" for r in rows]
    # every row equals its own configuration trained and evaluated directly
    for seed in seeds:
        train_scenes, eval_scenes = make_dataset(replace(base, seed=seed))
        for name, soft, ranking in ABLATION_ROWS:
            cfg = replace(base, seed=seed, include_soft=soft, ranking=ranking)
            [(model, _)] = original([(init_model(cfg), cfg)], train_scenes)
            (row,) = [r for r in rows if r["config"] == name and r["seed"] == seed]
            want = {"config": name, "seed": seed, **evaluate_model(model, eval_scenes)}
            assert {k: v for k, v in row.items() if k != "train_s"} == want


def test_ablate_shares_targets_and_permutations(monkeypatch):
    # one seed's five runs share each training scene's loss targets and
    # each step's pair permutation; every run still takes its own step
    calls = Counter()
    for name in ("loss_targets", "draw_permutation", "scene_gradients"):
        original = getattr(depthuq.toytrain, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(depthuq.toytrain, name, counted)
    base = TrainConfig(epochs=2, train_scenes=3, eval_scenes=1, height=8, width=8)
    ablate([0], base=base)
    steps = base.epochs * base.train_scenes
    assert calls == {"loss_targets": 3, "draw_permutation": steps, "scene_gradients": 5 * steps}


# the loss terms each head can train, run together in one call
_LOCKSTEP_TERMS = {
    "classification": [
        (False, None), (True, None), (False, "hinge"), (True, "hinge"), (True, "no-max"), (True, "l1-direct"),
    ],
    "regression": [(False, None), (False, "hinge"), (False, "no-max"), (False, "l1-direct")],
}


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "invalid-gt"])
def test_lockstep_runs_equal_runs_trained_alone(tiny_data, head, precision, sparse):
    # each run of a multi-run call is that run trained alone, bit for
    # bit: weights, sigma, raw scale and every epoch row
    scenes = list(tiny_data[0][:4])
    if sparse:
        scenes[2] = _with_invalid_gt(scenes[2], (0, 0), (5, 6), (7, 1))
    cast = _float64 if precision == "float64" else (lambda model: model)
    configs = [
        TrainConfig(epochs=3, seed=9, head=head, include_soft=soft, ranking=ranking)
        for soft, ranking in _LOCKSTEP_TERMS[head]
    ]
    together = train([(cast(init_model(cfg)), cfg) for cfg in configs], scenes)
    assert len(together) == len(configs)
    for cfg, (got, got_logs) in zip(configs, together):
        [(want, want_logs)] = train([(cast(init_model(cfg)), cfg)], scenes)
        assert got.w1.dtype == np.dtype(precision)
        for name in ("w1", "b1", "w2", "w_out", "sigma"):
            if getattr(want, name) is not None:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (cfg.ranking, name)
        assert np.float64(got.raw_scale).tobytes() == np.float64(want.raw_scale).tobytes()
        assert got_logs == want_logs


def test_train_rejects_runs_that_cannot_step_together(tiny_data):
    scenes = tiny_data[0][:2]
    cfg = TrainConfig(epochs=1, seed=1)
    first = init_model(cfg)
    before = first.w1.copy()
    for other in (
        replace(cfg, lr=0.1), replace(cfg, seed=2), replace(cfg, epochs=2), replace(cfg, gamma=5.0),
        replace(cfg, head="regression", include_soft=False),
    ):
        with pytest.raises(ValueError, match="^runs trained together may differ only in include_soft and ranking$"):
            train([(first, cfg), (init_model(other), other)], scenes)
    other_grid = replace(init_model(cfg), hypotheses=linear_hypotheses(1.0, 12.0, cfg.m))
    for other in (_float64(init_model(cfg)), other_grid):
        with pytest.raises(ValueError, match="^runs trained together need models of one dtype and one hypothesis grid$"):
            train([(first, cfg), (other, replace(cfg, ranking=None))], scenes)
    with pytest.raises(ValueError, match="^need at least one run to train$"):
        train([], scenes)
    # rejected before the first step
    assert first.w1.tobytes() == before.tobytes()


def test_first_run_to_diverge_raises_with_its_own_epoch():
    # at this learning rate both regression runs diverge, the
    # ranking-free one first (epoch 4 against the hinge run's 5, as
    # measured); listed second, it still raises, with its own epoch
    base = TrainConfig(
        epochs=8, lr=5e8, lr_decay=1.0, seed=0, head="regression", include_soft=False,
        train_scenes=4, eval_scenes=1, height=8, width=8,
    )
    scenes, _ = make_dataset(base)
    configs = [replace(base, ranking="hinge"), replace(base, ranking=None)]
    epochs = []
    for runs in [[(init_model(cfg), cfg)] for cfg in configs] + [[(init_model(cfg), cfg) for cfg in configs]]:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError) as exc:
            train(runs, scenes)
        epochs.append(exc.value.epoch)
    hinge_alone, plain_alone, together = epochs
    assert plain_alone < hinge_alone
    assert together == plain_alone


def test_ablate_rejects_repeated_seed():
    with pytest.raises(ValueError, match="repeated seed"):
        ablate([0, 1, 0])


def test_forward_is_the_hidden_layer_and_head_forward():
    scene = _scene(6, 5, TrainConfig.features, seed=4)
    for head in HEAD_KINDS:
        cfg = TrainConfig(head=head, include_soft=head == "classification", seed=2)
        m = init_model(cfg)
        m.raw_scale = 0.7
        _, z = _hidden_and_z(m, scene.features.reshape(-1, scene.features.shape[-1]))
        want = head_forward(z.reshape(6, 5, -1), 0.7, m.hypotheses, m.w_out)
        got = forward(m, scene)
        assert len(got) == 3
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the pixel-major z: the same decode up to row-sum rounding, for
        # a float64 model, the precision that tolerance is written for
        m = _float64(m)
        z = np.tanh(scene.features @ m.w1 + m.b1) @ m.w2
        for g, w in zip(forward(m, scene), head_forward(z, 0.7, m.hypotheses, m.w_out)):
            np.testing.assert_allclose(g, w, **PIXEL_MAJOR_TOL)


def test_scene_gradients_run_bins_first(tiny_data, monkeypatch):
    # z, grad_z and the label rows are (pixels, M) views of (M, pixels)
    # arrays over the valid pixels, so the losses' row reductions run
    # along contiguous pixel vectors, on a scene with invalid GT too; a
    # C-ordered operand anywhere in the step sends it back to the slow
    # M-element loops and breaks this layout
    seen = []
    original = depthuq.toytrain.full_backward

    def spy(z, *args, **kwargs):
        report = original(z, *args, **kwargs)
        seen.append((z.strides, report.grad_z.strides))
        return report

    monkeypatch.setattr(depthuq.toytrain, "full_backward", spy)
    for scene in (tiny_data[0][0], _with_invalid_gt(tiny_data[0][0], (2, 3), (7, 0))):
        for head in HEAD_KINDS:
            cfg = TrainConfig(head=head, include_soft=head == "classification")
            m = init_model(cfg)
            k = m.w1.itemsize  # strides in bytes, at the model's dtype
            targets = _targets(m, scene, cfg)
            scene_gradients(m, _rows(scene, targets), cfg, draw_permutation(targets.n, 0), targets)
            if targets.labels is not None:
                assert targets.labels.strides == (k, k * targets.n)
            assert seen.pop() == ((k, k * targets.n),) * 2
    assert seen == []


def test_scene_arrays_are_read_only(tiny_data):
    scene = tiny_data[0][0]
    for arr in (scene.gt, scene.features, scene.noise_std):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
    # a scene built from the caller's arrays leaves their flags alone
    gt = np.full((4, 4), 2.0)
    SyntheticScene(gt=gt, features=np.ones((4, 4, 1)), noise_std=np.ones((4, 4)), seed=0)
    assert gt.flags.writeable


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_train_and_evaluate_leave_scenes_unchanged(tiny_data, head):
    # the runs of one ablate seed share the scene lists; nothing may write into them
    train_scenes, eval_scenes = tiny_data
    scenes = train_scenes + eval_scenes
    before = [(s.gt.tobytes(), s.features.tobytes(), s.noise_std.tobytes()) for s in scenes]
    cfg = TrainConfig(epochs=1, seed=2, head=head, include_soft=head == "classification")
    [(model, _)] = train([(init_model(cfg), cfg)], train_scenes)
    evaluate_model(model, eval_scenes)
    assert [(s.gt.tobytes(), s.features.tobytes(), s.noise_std.tobytes()) for s in scenes] == before
