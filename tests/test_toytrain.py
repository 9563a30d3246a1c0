from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import depthuq.losses
import depthuq.toytrain
from depthuq.discretize import DepthHypotheses, linear_hypotheses, softmax_volume
from depthuq.gridio import valid_mask
from depthuq.losses import (
    LossReport,
    PairPermutation,
    clamped_entropy_parts,
    draw_permutation,
    full_backward,
    head_forward,
    ranking_loss_variants,
    softmax_backward,
)
from depthuq.toytrain import (
    _PERM_SEED_STRIDE,
    ABLATION_ROWS,
    DEFAULT_FEATURES,
    HEAD_KINDS,
    SIGMA_BOUND,
    EpochLog,
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
    load_model,
    make_dataset,
    pooled_errors,
    save_model,
    scene_gradients,
    train,
)
from depthuq.uncertainty import sigmoid, softplus


@pytest.fixture(scope="module")
def tiny_data():
    return make_dataset(6, 2, 8, 8, seed=4)


def test_generate_scene_deterministic():
    a = generate_scene(8, 8, 4, seed=11)
    b = generate_scene(8, 8, 4, seed=11)
    np.testing.assert_array_equal(a.gt, b.gt)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.seed == 11


def test_generate_scene_validation():
    with pytest.raises(ValueError):
        generate_scene(3, 8, 4, seed=0)
    with pytest.raises(ValueError):
        generate_scene(8, 8, 0, seed=0)
    with pytest.raises(ValueError):
        generate_scene(8, 8, 4, seed=0, eta_lo=0.5, eta_hi=0.5)
    with pytest.raises(ValueError):
        generate_scene(8, 8, 4, seed=0, d_min=-1.0)


def test_generate_scene_depth_in_range():
    s = generate_scene(16, 16, 4, seed=3, d_min=2.0, d_max=7.0)
    assert s.gt.min() >= 2.0 and s.gt.max() <= 7.0


def test_noise_profile_shape():
    s = generate_scene(8, 8, 4, seed=0)
    # constant down each column, strictly increasing left to right
    assert np.ptp(s.noise_std, axis=0).max() == 0.0
    assert np.all(np.diff(s.noise_std[0]) > 0)


def test_feature_noise_grows_rightward():
    # strip the polynomial basis back off; what remains is the injected
    # noise, whose spread must follow the column profile
    for seed in range(30):
        s = generate_scene(8, 8, 4, seed=seed)
        tn = 2.0 * (s.gt - 1.0) / 9.0 - 1.0
        basis = np.stack(
            [chebyshev.chebval(tn, [0.0] * j + [1.0]) for j in range(1, 5)], axis=-1
        )
        resid = s.features - basis
        left = resid[:, :2].std()
        right = resid[:, -2:].std()
        assert right > left


def test_make_dataset_split_disjoint():
    train_scenes, eval_scenes = make_dataset(3, 2, 8, 8, seed=1)
    assert len(train_scenes) == 3 and len(eval_scenes) == 2
    train_seeds = {s.seed for s in train_scenes}
    assert train_seeds.isdisjoint({s.seed for s in eval_scenes})


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
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


def test_model_validation():
    hyp = linear_hypotheses(1, 10, 4)
    with pytest.raises(ValueError):
        ToyModel(head="classification", hypotheses=hyp, w1=np.zeros((2, 3)), b1=np.zeros(3), w2=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        ToyModel(head="regression", hypotheses=hyp, w1=np.zeros((2, 3)), b1=np.zeros(3), w2=np.zeros((3, 4)))


def test_forward_zero_weights_is_uniform():
    hyp = linear_hypotheses(1, 10, 16)
    m = ToyModel(
        head="classification", hypotheses=hyp,
        w1=np.zeros((8, 16)), b1=np.zeros(16), w2=np.zeros((16, 16)),
    )
    scene = generate_scene(4, 4, 8, seed=0)
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
        head="classification",
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
    scene = generate_scene(4, 4, 5, seed=0)
    with pytest.raises(ValueError):
        forward(m, scene)


def test_vanishing_lr_leaves_parameters_in_place(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=1, lr=1e-300, seed=1)
    m = init_model(cfg)
    before = (m.w1.copy(), m.b1.copy(), m.w2.copy(), m.sigma.copy(), m.raw_scale)
    train(m, train_scenes, cfg)
    # nonzero weights cannot move by less than an ulp
    np.testing.assert_array_equal(m.w1, before[0])
    np.testing.assert_array_equal(m.w2, before[2])
    # zero-initialized parameters pick up at most the subnormal step itself
    assert np.max(np.abs(m.b1 - before[1])) < 1e-290
    assert np.max(np.abs(m.sigma - before[3])) < 1e-290
    assert abs(m.raw_scale - before[4]) < 1e-290


def test_training_reduces_loss():
    train_scenes, _ = make_dataset(16, 2, 16, 16, seed=2)
    cfg = TrainConfig(epochs=6, seed=2)
    model, logs = train(init_model(cfg), train_scenes, cfg)
    assert logs[-1].mean_total < logs[0].mean_total
    assert [lg.epoch for lg in logs] == list(range(6))


def test_training_is_deterministic(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=2, seed=4)
    m1, logs1 = train(init_model(cfg), train_scenes, cfg)
    m2, logs2 = train(init_model(cfg), train_scenes, cfg)
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
    report, grads = scene_gradients(m, train_scenes[0], cfg, step_seed=5)
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
        t_hi, _ = scene_gradients(m_hi, train_scenes[0], cfg, step_seed=5)
        t_lo, _ = scene_gradients(m_lo, train_scenes[0], cfg, step_seed=5)
        fd = (t_hi.total - t_lo.total) / (2 * h)
        assert abs(grads["sigma"][k] - fd) < 1e-5


def test_network_gradients_match_fd(tiny_data):
    # ranking off: every remaining branch is differentiable through the
    # net, so plain central differences on the weights are honest
    train_scenes, _ = tiny_data
    cfg = TrainConfig(ranking=None, seed=3)
    m = init_model(cfg)
    scene = train_scenes[1]
    _, grads = scene_gradients(m, scene, cfg, step_seed=0)
    h = 1e-6

    def total_with(param, idx, delta):
        probe = init_model(cfg)
        getattr(probe, param)[idx] += delta
        rep, _ = scene_gradients(probe, scene, cfg, step_seed=0)
        return rep.total

    for param, idx in (("w2", (0, 0)), ("w2", (7, 11)), ("w1", (2, 5)), ("b1", (4,))):
        fd = (total_with(param, idx, h) - total_with(param, idx, -h)) / (2 * h)
        got = grads[param][idx]
        assert abs(got - fd) <= max(1e-7, 1e-4 * abs(fd)), (param, idx, got, fd)


# The regression head's former private backward pass, kept as the
# oracle that the unified ``full_backward(..., readout=...)`` must
# reproduce bit for bit on fully valid scenes.  Its ranking step calls
# ``ranking_loss_variants``, the one implementation of that term.
def _regression_backward(
    z: np.ndarray,
    w_out: np.ndarray,
    a: float,
    sigma: np.ndarray,
    gt: np.ndarray,
    perm: PairPermutation | None,
    ranking: str | None,
):
    """Depth-plus-ranking backward for the latent head.

    Mirrors the classification path: L1 depth on the readout, ranking on
    the scaled entropy of softmax(z); returns the report plus the
    readout gradient (which has no slot in the shared report).
    """
    n = gt.size
    w = 1.0 / n
    zf = z.reshape(n, -1)
    gv = gt.ravel()
    depth = zf @ w_out
    resid = depth - gv
    value_r = float(np.abs(resid).sum() * w)

    ew = np.exp(-sigma)
    sgn = np.sign(resid) * (w * ew[0])
    grad_z_flat = sgn[:, None] * w_out[None, :]
    grad_wout = sgn @ zf

    value_u = 0.0
    grad_a = 0.0
    alpha = float(softplus(a))
    if ranking is not None:
        if ranking in ("hinge", "no-max") and (perm is None or perm.n != n):
            raise ValueError("ranking variant needs a permutation over all pixels")
        p = softmax_volume(zf)
        h, dh_dp = clamped_entropy_parts(p)
        r = np.abs(resid)
        u = alpha * h
        rank = ranking_loss_variants(r, u, perm, ranking)
        value_u = rank.value
        gu_eff = rank.grad * ew[2]
        grad_p = (alpha * gu_eff)[:, None] * dh_dp
        grad_z_flat = grad_z_flat + softmax_backward(p, grad_p)
        grad_a = float((gu_eff * h).sum() * sigmoid(np.float64(a)))

    active = np.array([True, False, ranking is not None])
    values = np.array([value_r, 0.0, value_u])
    total = float(((values * ew + sigma) * active).sum())
    grad_sigma = np.where(active, -values * ew + 1.0, 0.0)
    report = LossReport(
        value_r=value_r,
        value_p=0.0,
        value_u=value_u,
        total=total,
        grad_z=grad_z_flat.reshape(z.shape),
        grad_a=grad_a,
        grad_sigma=grad_sigma,
        alpha=alpha,
        active=tuple(bool(x) for x in active),
        n_valid=n,
    )
    return report, grad_wout


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
    z, w_out, a, sigma, gt, perm = _regression_instance(seed)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    want, want_wout = _regression_backward(z, w_out, a, sigma, gt, perm, ranking)
    got = full_backward(
        z, a, sigma, hyp, gt, perm, include_soft=False, ranking=ranking, readout=w_out
    )
    assert got.value_r == want.value_r
    assert got.value_u == want.value_u
    assert got.total == want.total
    assert got.grad_a == want.grad_a
    assert got.active == want.active
    np.testing.assert_array_equal(got.grad_z, want.grad_z)
    np.testing.assert_array_equal(got.grad_readout, want_wout)
    np.testing.assert_array_equal(got.grad_sigma, want.grad_sigma)


def test_readout_rejects_soft_term():
    z, w_out, a, sigma, gt, perm = _regression_instance(0)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    with pytest.raises(ValueError, match="soft-label term needs the classification head"):
        full_backward(z, a, sigma, hyp, gt, perm, include_soft=True, readout=w_out)


def test_readout_masks_invalid_gt():
    z, w_out, a, sigma, gt, _ = _regression_instance(5)
    hyp = linear_hypotheses(1.0, 10.0, z.shape[-1])
    gt[1, 2] = np.nan
    perm = draw_permutation(gt.size - 1, 3)
    rep = full_backward(z, a, sigma, hyp, gt, perm, include_soft=False, readout=w_out)
    assert rep.n_valid == gt.size - 1
    assert np.isfinite(rep.total)
    np.testing.assert_array_equal(rep.grad_z[1, 2], 0.0)
    assert np.all(np.isfinite(rep.grad_readout))


def test_regression_head_diverges_at_huge_lr(tiny_data):
    train_scenes, _ = make_dataset(4, 2, 8, 8, seed=0)
    cfg = TrainConfig(epochs=4, lr=1e20, seed=0, head="regression", include_soft=False)
    m = init_model(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train(m, train_scenes, cfg)
    assert isinstance(exc.value.epoch, int)
    assert isinstance(exc.value, RuntimeError)


def test_regression_head_trains(tiny_data):
    train_scenes, eval_scenes = tiny_data
    cfg = TrainConfig(epochs=2, seed=5, head="regression", include_soft=False)
    m = init_model(cfg)
    w_out_before = m.w_out.copy()
    m, logs = train(m, train_scenes, cfg)
    assert not np.array_equal(m.w_out, w_out_before)
    assert all(lg.mean_soft == 0.0 for lg in logs)
    depth, unc, third = forward(m, eval_scenes[0])
    assert depth.shape == (8, 8) and unc.shape == (8, 8)
    assert third.shape == (8, 8, 16)  # raw latent, not a simplex


def test_epoch_log_row_keys(tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=1, seed=0)
    _, logs = train(init_model(cfg), train_scenes, cfg)
    assert set(logs[0].row()) == {
        "epoch", "lr", "total", "loss_depth", "loss_soft", "loss_rank",
        "sigma_depth", "sigma_soft", "sigma_rank", "alpha",
        "grad_sigma_depth", "grad_sigma_soft", "grad_sigma_rank",
    }


def test_evaluate_model_summary(tiny_data):
    train_scenes, eval_scenes = tiny_data
    cfg = TrainConfig(epochs=2, seed=4)
    m, _ = train(init_model(cfg), train_scenes, cfg)
    summary = evaluate_model(m, eval_scenes)
    assert summary.n_scenes == 2
    assert summary.accuracy["rmse"] > 0
    row = summary.row()
    assert "scc" in row and "noise_scc" in row and "rmse" in row
    errs, uncs = pooled_errors(m, eval_scenes)
    assert errs.shape == uncs.shape == (2 * 64,)


def test_save_load_round_trip(tmp_path, tiny_data):
    train_scenes, _ = tiny_data
    cfg = TrainConfig(epochs=1, seed=7)
    m, _ = train(init_model(cfg), train_scenes, cfg)
    save_model(m, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.head == m.head
    assert loaded.hypotheses.m == m.hypotheses.m
    assert loaded.raw_scale == m.raw_scale  # manifest keeps full precision
    # grid payloads are f32 on disk
    np.testing.assert_array_equal(loaded.w1, m.w1.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.w2, m.w2.astype(np.float32).astype(np.float64))


def test_save_load_regression_keeps_readout(tmp_path):
    cfg = TrainConfig(head="regression", include_soft=False, seed=1)
    m = init_model(cfg)
    save_model(m, tmp_path / "r")
    loaded = load_model(tmp_path / "r")
    assert loaded.head == "regression"
    np.testing.assert_array_equal(
        loaded.w_out, m.w_out.astype(np.float32).astype(np.float64)
    )


def test_load_model_names_missing_manifest_key(tmp_path):
    save_model(init_model(TrainConfig(seed=2)), tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.txt"
    manifest.write_text("".join(
        ln + "\n" for ln in manifest.read_text().splitlines() if not ln.startswith("m=")
    ))
    with pytest.raises(ValueError, match=r"missing key\(s\) m$"):
        load_model(tmp_path / "m")


def test_load_model_names_bad_manifest_value(tmp_path):
    save_model(init_model(TrainConfig(seed=2)), tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "raw_scale=x\n")
    with pytest.raises(ValueError) as exc:
        load_model(tmp_path / "m")
    assert str(exc.value).startswith(f"{manifest}: key 'raw_scale' wants 1 comma-separated float")
    assert "'x'" in str(exc.value)


def test_ablate_rows_and_thread_equivalence():
    base = TrainConfig(epochs=2)
    kwargs = dict(base=base, n_train=3, n_eval=2, h=8, w=8)
    rows = ablate([0], **kwargs)
    assert [r["config"] for r in rows] == [name for name, _, _ in ABLATION_ROWS]
    assert all(r["seed"] == 0 for r in rows)
    assert all("scc" in r and "rmse" in r and "train_s" in r for r in rows)
    threaded = ablate([0], threads=3, **kwargs)
    for a, b in zip(rows, threaded):
        a = {k: v for k, v in a.items() if k != "train_s"}
        b = {k: v for k, v in b.items() if k != "train_s"}
        assert a == b


@pytest.mark.parametrize("threads", [0, -3])
def test_ablate_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        ablate([0], threads=threads, n_train=1, n_eval=1, h=8, w=8)


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
    report, grads = scene_gradients(m, scene, cfg, step_seed=11)

    z = np.tanh(scene.features @ m.w1 + m.b1) @ m.w2
    mask = valid_mask(scene.gt)
    want = full_backward(
        z, m.raw_scale, m.sigma, m.hypotheses, scene.gt, draw_permutation(63, 11),
        gamma=cfg.gamma, ranking=ranking, mask=mask,
    )
    assert report.n_valid == want.n_valid == 63
    assert report.total == want.total
    assert report.grad_a == want.grad_a
    np.testing.assert_array_equal(report.grad_z, want.grad_z)
    np.testing.assert_array_equal(report.grad_z[2, 3], 0.0)
    np.testing.assert_array_equal(grads["sigma"], want.grad_sigma)

    trained, logs = train(m, [scene, tiny_data[0][1]], cfg)
    assert len(logs) == 1 and np.isfinite(logs[0].mean_total)
    trained.check_finite()


def _reference_train(model, scenes, config):
    """``train`` with every step on ``full_backward``'s own mask and labels.

    Nothing is built ahead of the steps: each one passes only the GT and
    a permutation over its valid count, and the chain rule and update
    are spelled out here.
    """
    logs = []
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        totals = np.zeros(4)
        gsig = np.zeros(3)
        for scene in scenes:
            hid = np.tanh(scene.features @ model.w1 + model.b1)
            z = hid @ model.w2
            perm = None
            if config.ranking in ("hinge", "no-max"):
                n_valid = int(np.count_nonzero(valid_mask(scene.gt)))
                perm = draw_permutation(n_valid, config.seed * _PERM_SEED_STRIDE + step)
            rep = full_backward(
                z, model.raw_scale, model.sigma, model.hypotheses, scene.gt, perm,
                gamma=config.gamma, include_soft=config.include_soft,
                ranking=config.ranking, readout=model.w_out,
            )
            pixels = scene.gt.size
            gz = rep.grad_z.reshape(pixels, -1)
            h2 = hid.reshape(pixels, -1)
            f2 = scene.features.reshape(pixels, -1)
            grad_pre = (gz @ model.w2.T) * (1.0 - h2**2)
            model.w1 -= lr * (f2.T @ grad_pre)
            model.b1 -= lr * grad_pre.sum(axis=0)
            model.w2 -= lr * (h2.T @ gz)
            model.raw_scale -= lr * rep.grad_a
            model.sigma = np.clip(model.sigma - lr * rep.grad_sigma, -SIGMA_BOUND, SIGMA_BOUND)
            if rep.grad_readout is not None:
                model.w_out = model.w_out - lr * rep.grad_readout
            totals += (rep.total, rep.value_r, rep.value_p, rep.value_u)
            gsig += rep.grad_sigma
            step += 1
        k = len(scenes)
        logs.append(
            EpochLog(
                epoch=epoch,
                lr=lr,
                mean_total=totals[0] / k,
                mean_depth=totals[1] / k,
                mean_soft=totals[2] / k,
                mean_rank=totals[3] / k,
                sigma=tuple(float(s) for s in model.sigma),
                alpha=model.scale.alpha,
                mean_grad_sigma=tuple(float(g) for g in gsig / k),
            )
        )
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
    # per-run targets (mask, count, label rows) must change no bit of
    # the run; one scene has invalid GT so the mask matters
    scenes = list(tiny_data[0][:4])
    scenes[1] = _with_invalid_gt(scenes[1], (0, 0), (5, 6))
    cfg = TrainConfig(epochs=3, seed=9, head=head, include_soft=soft, ranking=ranking)
    got, got_logs = train(init_model(cfg), scenes, cfg)
    want, want_logs = _reference_train(init_model(cfg), scenes, cfg)
    for name in ("w1", "b1", "w2", "sigma", "w_out"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.raw_scale == want.raw_scale
    assert got_logs == want_logs


@pytest.mark.parametrize("soft", [True, False])
def test_soft_labels_built_once_per_scene_and_run(tiny_data, monkeypatch, soft):
    calls = []
    original = depthuq.toytrain.soft_labels

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the fallback inside full_backward counts too: it must not run
    monkeypatch.setattr(depthuq.toytrain, "soft_labels", counted)
    monkeypatch.setattr(depthuq.losses, "soft_labels", counted)
    scenes = tiny_data[0]
    cfg = TrainConfig(epochs=3, seed=1, include_soft=soft)
    train(init_model(cfg), scenes, cfg)
    assert len(calls) == (len(scenes) if soft else 0)



def test_no_max_row_equals_depth_soft_row():
    # the no-max gradient is exactly zero, so the weights train as without a
    # ranking term; ablate reuses the depth_soft run for the full_nomax row
    train_scenes, eval_scenes = make_dataset(3, 2, 8, 8, seed=0)
    train_scenes[1] = _with_invalid_gt(train_scenes[1], (0, 0), (3, 5))
    eval_scenes[0] = _with_invalid_gt(eval_scenes[0], (2, 2))
    models, rows = {}, {}
    for ranking in (None, "no-max"):
        cfg = TrainConfig(epochs=2, include_soft=True, ranking=ranking)
        models[ranking], _ = train(init_model(cfg), train_scenes, cfg)
        rows[ranking] = evaluate_model(models[ranking], eval_scenes).row()
    nomax, soft = models["no-max"], models[None]
    for name in ("w1", "b1", "w2"):
        assert getattr(nomax, name).tobytes() == getattr(soft, name).tobytes()
    assert np.float64(nomax.raw_scale).tobytes() == np.float64(soft.raw_scale).tobytes()
    assert nomax.sigma[2] != soft.sigma[2]  # only the unused rank weight moves
    assert rows["no-max"] == rows[None]


def test_ablate_trains_each_distinct_model_once(monkeypatch):
    base = TrainConfig(epochs=1)
    sizes = dict(n_train=2, n_eval=1, h=8, w=8)
    original = depthuq.toytrain.train
    calls = []

    def counted(model, scenes, config):
        calls.append((config.seed, config.include_soft, config.ranking))
        return original(model, scenes, config)

    monkeypatch.setattr(depthuq.toytrain, "train", counted)
    ablate([0], base=base, **sizes)
    assert len(calls) == 5
    seeds = [3, 1]
    by_threads = {}
    for threads in (1, 2):
        calls.clear()
        by_threads[threads] = ablate(seeds, base=base, threads=threads, **sizes)
        assert len(calls) == 10 and len(set(calls)) == 10
        assert "no-max" not in {ranking for _, _, ranking in calls}
    rows = by_threads[1]
    assert [(r["config"], r["seed"]) for r in rows] == [
        (name, seed) for seed in seeds for name, _, _ in ABLATION_ROWS
    ]
    assert [r["train_s"] is None for r in rows] == [r["config"] == "full_nomax" for r in rows]
    # every row equals its own configuration trained and evaluated directly
    for seed in seeds:
        train_scenes, eval_scenes = make_dataset(seed=seed, **sizes)
        for name, soft, ranking in ABLATION_ROWS:
            cfg = replace(base, seed=seed, include_soft=soft, ranking=ranking)
            model, _ = original(init_model(cfg), train_scenes, cfg)
            (row,) = [r for r in rows if r["config"] == name and r["seed"] == seed]
            want = {"config": name, "seed": seed, **evaluate_model(model, eval_scenes).row()}
            assert {k: v for k, v in row.items() if k != "train_s"} == want
    for a, b in zip(rows, by_threads[2]):
        assert {k: v for k, v in a.items() if k != "train_s"} == {
            k: v for k, v in b.items() if k != "train_s"
        }


def test_ablate_rejects_repeated_seed():
    with pytest.raises(ValueError, match="repeated seed"):
        ablate([0, 1, 0], n_train=1, n_eval=1, h=8, w=8)


def test_forward_is_the_hidden_layer_and_head_forward():
    scene = generate_scene(6, 5, DEFAULT_FEATURES, seed=4)
    for head in HEAD_KINDS:
        cfg = TrainConfig(head=head, include_soft=head == "classification", seed=2)
        m = init_model(cfg)
        m.raw_scale = 0.7
        z = np.tanh(scene.features @ m.w1 + m.b1) @ m.w2
        depth, unc, p = head_forward(z, 0.7, m.hypotheses, m.w_out)
        got = forward(m, scene)
        np.testing.assert_array_equal(got[0], depth)
        np.testing.assert_array_equal(got[1], unc)
        np.testing.assert_array_equal(got[2], p if head == "classification" else z)
