"""End-to-end acceptance checks, one numbered test per shipping criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or in
captured output) and then asserts, so the suite both documents and enforces
the bar.  Module tests cover the fine grain; these stay at the level of
"does the whole thing hold together".
"""

import time

import numpy as np
import pytest

from depthuq import cli
from depthuq.discretize import DepthHypotheses, linear_hypotheses, soft_labels
from depthuq.frustum import (
    CameraPose,
    Pinhole,
    SparseVoxelGrid,
    _splat,
    centered_pinhole,
    identity_pose,
    render,
    voxelize_ground_truth,
)
from depthuq.gradcheck import run_gradient_suite, suite_passed
from depthuq.gridio import write_grid
from depthuq.metrics import ause_aurg, ause_flaw_demo, sparsification, spearman
from depthuq.toytrain import (
    TrainConfig,
    ablation_medians,
    init_model,
    make_dataset,
    pooled_errors,
    train,
)
from depthuq.uncertainty import raw_entropy, softplus


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    results = run_gradient_suite(trials=100, seed=0)
    elapsed = time.perf_counter() - started
    ok = len(results) == 11 and suite_passed(results) and elapsed < 10.0
    _report(ok, f"criterion 1: gradient suite 11/11 over 100 trials in {elapsed:.1f}s (< 10s)")


def test_criterion_02_uncertainty_bounds():
    rng = np.random.default_rng(2)
    alpha = float(softplus(0.7))
    ok = True
    for m in (2, 4, 16, 64):
        p = rng.dirichlet(np.ones(m), size=500)
        u = alpha * raw_entropy(p)
        ok = ok and bool(np.all(u >= 0.0))
        ok = ok and bool(np.all(u <= alpha * (np.log(m) + 1e-12)))
        one_hot = np.eye(m)[rng.integers(0, m, size=16)]
        ok = ok and bool(np.all(alpha * raw_entropy(one_hot) == 0.0))
    _report(ok, "criterion 2: 0 <= u <= alpha*ln(M) on Dirichlet draws, exactly 0 one-hot")


def test_criterion_03_soft_labels():
    rng = np.random.default_rng(3)
    ok = True
    for m in (3, 7, 16):
        hyp = linear_hypotheses(0.5, 9.5, m)
        gt = rng.uniform(0.5, 9.5, size=(6, 5))
        labels = soft_labels(hyp, gt, gamma=rng.uniform(0.5, 30.0))
        sums = labels.sum(axis=2)
        ok = ok and bool(np.all(np.abs(sums - 1.0) <= 1e-6))
        nearest = np.argmin(np.abs(gt[..., None] - hyp.values), axis=2)
        ok = ok and bool(np.all(labels.argmax(axis=2) == nearest))
    triple = soft_labels(
        DepthHypotheses(np.array([1.0, 2.0, 3.0])), np.array([[1.0]]), gamma=1.0
    )[0, 0]
    ok = ok and bool(np.all(np.abs(triple - [0.66524, 0.24473, 0.09003]) <= 1e-5))
    _report(ok, "criterion 3: soft labels sum to one (1e-6), peak at nearest bin, reference triple to 1e-5")


def _bf_ranks(v):
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


def test_criterion_04_spearman_reference():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 51))
        # coarse quantization forces plenty of ties
        err = np.round(rng.uniform(0, 4, size=n) * 4) / 4
        unc = np.round(rng.uniform(0, 4, size=n) * 4) / 4
        got = spearman(err, unc)
        ra, rb = _bf_ranks(err), _bf_ranks(unc)
        if np.all(ra == ra[0]) or np.all(rb == rb[0]):
            ok = ok and got is None
            continue
        ok = ok and abs(got - _pearson(ra, rb)) <= 1e-12
        # rank statistic: strictly increasing maps must not move it
        warped = spearman(np.exp(err), unc ** 3 + 2.0 * unc)
        ok = ok and abs(got - warped) <= 1e-12
    _report(ok, "criterion 4: spearman matches brute-force average ranks (1e-12), transform-invariant")


def test_criterion_05_sparsification_oracle():
    pred = np.array([9.0, 8.0, 7.0, 6.0])
    gt = np.full(4, 5.0)
    unc = np.array([1.0, 2.0, 3.0, 4.0])
    curve = sparsification("rmse", pred, gt, unc, steps=4)
    ause, _ = ause_aurg(curve)
    ok = abs(ause - 0.5388927703012475) <= 1e-12

    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(20, 200))
        gt_r = rng.uniform(1.0, 9.0, size=n)
        pred_r = gt_r + rng.normal(scale=0.5, size=n)
        perfect = np.abs(pred_r - gt_r)
        ause_r, _ = ause_aurg(sparsification("rmse", pred_r, gt_r, perfect))
        ok = ok and ause_r == 0.0
    _report(ok, "criterion 5: 4-pixel AUSE reference to 1e-12; oracle uncertainty gives AUSE exactly 0")


@pytest.fixture(scope="module")
def trained_full_model():
    cfg = TrainConfig(seed=0)
    train_scenes, eval_scenes = make_dataset(cfg)
    model = init_model(cfg)
    [(model, _)] = train([(model, cfg)], train_scenes)
    return pooled_errors(model, eval_scenes)


def test_criterion_06_ause_confound_demo(trained_full_model):
    err, unc = trained_full_model
    squared = ause_flaw_demo(err, unc, "square")
    affine = ause_flaw_demo(err, unc, "affine", scale=0.5)
    ok = (
        abs(squared.scc_a - squared.scc_b) < 1e-12
        and abs(squared.ause_a - squared.ause_b) > 0.01
        and abs(affine.ause_a - affine.ause_b) < 1e-12
    )
    _report(
        ok,
        "criterion 6: squaring errors keeps SCC (<1e-12) but moves AUSE "
        f"(|d|={abs(squared.ause_a - squared.ause_b):.4f} > 0.01); affine x0.5 moves neither",
    )


def test_criterion_07_loss_ablation(full_ablation):
    rows, elapsed = full_ablation
    med = ablation_medians(rows)
    gap = med["full"] - med["depth_soft"]
    ok = (
        gap >= 0.05
        and med["full"] > med["full_nomax"]
        and med["full_nomax"] >= med["depth_soft"] - 1e-12
        and elapsed < 60.0
    )
    _report(
        ok,
        f"criterion 7: median SCC gap full vs depth+soft = {gap:.4f} (>= 0.05), "
        f"hinge {med['full']:.4f} > no-max {med['full_nomax']:.4f} >= baseline "
        f"{med['depth_soft']:.4f}, grid in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_noise_recovery(full_ablation):
    rows, _ = full_ablation
    med = ablation_medians(rows, key="noise_scc")["full"]
    ok = med > 0.3
    _report(ok, f"criterion 8: held-out SCC(u, column noise) median {med:.4f} > 0.3")


def test_criterion_09_renderer_probes():
    # empty grid: background comes back untouched
    empty = SparseVoxelGrid(
        lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
        indices=np.zeros((0, 3), dtype=np.int64), alpha=np.zeros(0),
        color=np.zeros((0, 3)),
    )
    cam = centered_pinhole(4, 6, 8.0)
    bg = (0.2, 0.5, 0.9)
    img = render(empty, identity_pose(), cam, background=bg)
    ok = bool(np.array_equal(img, np.broadcast_to(bg, (4, 6, 3))))

    # probe rig: principal ray runs down the center of voxel column (0,0,:)
    probe_cam = Pinhole(f=20.0, cx=1.0, cy=1.0, h=3, w=3)
    probe_pose = CameraPose(rotation=np.eye(3), translation=np.array([-0.5, -0.5, 0.0]))

    def probe_grid(entries):
        idx = np.array(list(entries), dtype=np.int64)
        return SparseVoxelGrid(
            lo=np.array([-1.0, -1.0, 1.0]), hi=np.array([1.0, 1.0, 3.0]),
            resolution=(2, 2, 2), indices=idx,
            alpha=np.array([entries[k][0] for k in entries]),
            color=np.array([entries[k][1] for k in entries]),
        )

    solid = probe_grid({(0, 0, 0): (1.0, (1.0, 0.0, 0.0))})
    img = render(solid, probe_pose, probe_cam, background=(0.0, 0.0, 1.0), step=1.0)
    ok = ok and bool(np.all(np.abs(img[1, 1] - [1.0, 0.0, 0.0]) <= 1e-9))

    pair = probe_grid({
        (0, 0, 0): (0.5, (1.0, 0.0, 0.0)),
        (0, 0, 1): (0.6, (0.0, 0.0, 1.0)),
    })
    img = render(pair, probe_pose, probe_cam, background=(0.0, 1.0, 0.0), step=1.0,
                 min_transmittance=1e-9)
    ok = ok and bool(np.all(np.abs(img[1, 1] - [0.5, 0.2, 0.3]) <= 1e-9))

    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        mass = rng.uniform(0.05, 0.9, size=n)
        pts = rng.uniform(-2, 2, size=(n, 3))
        grid = _splat(mass, rng.uniform(size=(n, 3)).T, pts.T, (6, 5, 4))
        ok = ok and abs(grid.deposited_mass - mass.sum()) < 1e-9

    # voxelize a constant-depth plane at one voxel per pixel and re-render
    # from the source pose: aligned pixels must match within quantization
    src_cam = Pinhole(f=10.0, cx=4.0, cy=4.0, h=9, w=9)
    hyp = linear_hypotheses(1.0, 3.0, 3)
    ys, xs = np.mgrid[0:9, 0:9]
    src = np.stack([xs / 8.0, ys / 8.0, np.full((9, 9), 0.25)], axis=-1)
    grid, skipped = voxelize_ground_truth(
        np.full((9, 9), 2.0), hyp, src_cam, src, resolution=(9, 9, 2)
    )
    img = render(grid, identity_pose(), src_cam, background=(1.0, 1.0, 1.0))
    ok = ok and skipped == 0 and np.abs(img[4, 4] - src[4, 4]).max() <= 1.0 / 255.0

    _report(ok, "criterion 9: empty/opaque/two-sample compositing, splat mass 1e-9, re-render within 1/255")


def _cli_inputs(root):
    root.mkdir()
    rng = np.random.default_rng(10)
    gt = rng.uniform(1.5, 9.5, size=(8, 10))
    pred = gt + rng.normal(scale=0.5, size=gt.shape)
    unc = np.abs(pred - gt) + rng.uniform(0.0, 0.2, size=gt.shape)
    write_grid(root / "gt.duv", gt)
    write_grid(root / "pred.duv", pred)
    write_grid(root / "unc.duv", unc)
    write_grid(root / "vol.duv", rng.dirichlet(np.ones(6), size=gt.shape))
    write_grid(root / "vol2.duv", rng.dirichlet(np.ones(6), size=gt.shape))
    assert cli.main([
        "voxelize", "--mode", "gt", "--gt", str(root / "gt.duv"),
        "--bins", "4", "--resolution", "6", "--out", str(root / "grid"),
    ]) == 0
    return root


def test_criterion_10_cli_determinism(tmp_path, capsys):
    inp = _cli_inputs(tmp_path / "inputs")
    capsys.readouterr()  # drop the voxelize setup chatter
    tiny_train = ["--epochs", "1", "--train-scenes", "2", "--eval-scenes", "1",
                  "--height", "8", "--width", "8"]
    cases = {
        "eval": lambda d: [
            "eval", "--pred", str(inp / "pred.duv"), "--gt", str(inp / "gt.duv"),
            "--unc", str(inp / "unc.duv"), "--vol", str(inp / "vol.duv"),
            "--out", str(d / "metrics.csv"),
        ],
        "sparsify": lambda d: [
            "sparsify", "--pred", str(inp / "pred.duv"), "--gt", str(inp / "gt.duv"),
            "--unc", str(inp / "unc.duv"), "--steps", "10", "--out", str(d / "curve.csv"),
        ],
        "scc": lambda d: [
            "scc", "--pred", str(inp / "pred.duv"), "--gt", str(inp / "gt.duv"),
            "--unc", str(inp / "unc.duv"), "--out", str(d / "scc.csv"),
        ],
        "train-toy": lambda d: ["train-toy", "--seed", "0", *tiny_train,
                                "--out-dir", str(d / "run")],
        "ablate": lambda d: ["ablate", "--seeds", "0", *tiny_train,
                             "--out", str(d / "rows.csv")],
        "demo-ause": lambda d: ["demo-ause", "--transform", "square", "--seed", "0",
                                *tiny_train, "--out", str(d / "demo.csv")],
        "combine": lambda d: [
            "combine", "--vols", str(inp / "vol.duv"), str(inp / "vol2.duv"),
            "--out", str(d / "mean.duv"), "--entropy-out", str(d / "ent.duv"),
        ],
        "voxelize": lambda d: [
            "voxelize", "--mode", "gt", "--gt", str(inp / "gt.duv"), "--bins", "4",
            "--resolution", "6", "--out", str(d / "grid"),
        ],
        "render": lambda d: [
            "render", "--grid", str(inp / "grid"), "--height", "10", "--width", "10",
            "--pose", "orbit", "--azimuth", "25", "--elevation", "10",
            "--out", str(d / "view.ppm"),
        ],
        "gradcheck": lambda d: ["gradcheck", "--trials", "3", "--seed", "1",
                                "--out", str(d / "checks.csv")],
    }
    assert set(cases) == set(cli.SUBCOMMANDS)

    mismatched = []
    for sub, argv_of in sorted(cases.items()):
        runs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{sub}-{tag}"
            d.mkdir()
            rc = cli.main(argv_of(d))
            captured = capsys.readouterr()
            assert rc == 0, f"{sub} run {tag} failed: {captured.err}"
            files = {
                str(p.relative_to(d)): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()
            }
            runs.append((captured.out.replace(str(d), "RUN"), files))
        if runs[0] != runs[1]:
            mismatched.append(sub)
    _report(not mismatched,
            f"criterion 10: all {len(cases)} subcommands byte-identical on rerun"
            + (f" (mismatched: {mismatched})" if mismatched else ""))
