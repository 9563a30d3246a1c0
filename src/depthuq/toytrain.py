"""Desk-scale training harness for the depth-as-classification stack.

Synthetic heteroscedastic scenes stand in for real RGB-D data: ground
truth is a ramp plus disc primitives, the per-pixel features are a
low-order polynomial lift of that depth corrupted by noise whose std
grows left to right.  A tiny shared-weight per-pixel network (one tanh
hidden layer) maps features to either classification logits or a
regression latent, and plain gradient descent runs on the auto-weighted
loss total through the exact backward pass of the losses module.

The ablation harness reports the six loss configurations of interest
on shared scenes, accuracy plus uncertainty quality per row; it trains
the five distinct models among them (``full_nomax`` is ``depth_soft``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev

from .discretize import DepthHypotheses, linear_hypotheses, soft_labels
from .gridio import (
    keyvalue_numbers,
    read_grid,
    read_keyvalue,
    valid_mask,
    write_grid,
    write_keyvalue,
)
from .losses import RANKING_VARIANTS, NonFiniteLossError, draw_permutation, full_backward, head_forward
from .metrics import (
    accuracy_metrics,
    evaluate_uncertainty,
    spearman,
)
from .uncertainty import UncertaintyScale

HEAD_KINDS = ("classification", "regression")
DEFAULT_EXTENT = 32
DEFAULT_FEATURES = 8
DEFAULT_HIDDEN = 16
DEFAULT_BINS = 16
DEFAULT_D_MIN = 1.0
DEFAULT_D_MAX = 10.0
DEFAULT_ETA_LO = 0.02
DEFAULT_ETA_HI = 1.0
DEFAULT_TRAIN_SCENES = 64
DEFAULT_EVAL_SCENES = 16
_PERM_SEED_STRIDE = 1_000_003
_SCENE_SEED_STRIDE = 10_007
# box for the loss-weight parameters: a term whose value sits at float
# noise around zero (the cancelled ranking variant) has no finite
# stationary sigma, and an unbounded walk overflows exp() mid-run.
# Inactive for every configuration with nonzero term values.
SIGMA_BOUND = 20.0


class TrainingDivergedError(RuntimeError):
    """Loss total went non-finite; carries the epoch it happened in."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite total) in epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class SyntheticScene:
    """One training sample: depth, noisy features, the noise profile."""

    gt: np.ndarray  # H x W depth
    features: np.ndarray  # H x W x F
    noise_std: np.ndarray  # H x W, constant per column, increasing left->right
    seed: int


def generate_scene(
    h: int,
    w: int,
    f: int,
    seed: int,
    eta_lo: float = DEFAULT_ETA_LO,
    eta_hi: float = DEFAULT_ETA_HI,
    d_min: float = DEFAULT_D_MIN,
    d_max: float = DEFAULT_D_MAX,
) -> SyntheticScene:
    """Ramp-plus-discs depth with column-graded feature noise.

    Feature j is the degree-j Chebyshev polynomial of the normalized
    depth, plus zero-mean noise of std eta(col) = eta_lo +
    (eta_hi - eta_lo) * col / w.  Deterministic in the seed.
    """
    if h < 4 or w < 4:
        raise ValueError(f"image extents must be >= 4, got {h}x{w}")
    if f < 1:
        raise ValueError(f"need >= 1 feature channel, got {f}")
    if not (0.0 <= eta_lo < eta_hi):
        raise ValueError(f"need 0 <= eta_lo < eta_hi, got {eta_lo}, {eta_hi}")
    if not (0.0 < d_min < d_max):
        raise ValueError(f"bad depth range [{d_min}, {d_max}]")
    rng = np.random.default_rng(seed)

    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    t = np.cos(theta) * xs / max(w - 1, 1) + np.sin(theta) * ys / max(h - 1, 1)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-12)
    pad = 0.05 * (d_max - d_min)
    lo = rng.uniform(d_min + pad, d_max - pad)
    hi = rng.uniform(d_min + pad, d_max - pad)
    gt = lo + (hi - lo) * t

    for _ in range(rng.integers(2, 5)):
        cy = rng.uniform(0, h)
        cx = rng.uniform(0, w)
        # lower bound 2 keeps discs visible; tiny images pin the radius there
        radius = rng.uniform(2.0, max(2.0, min(h, w) / 4.0))
        depth = rng.uniform(d_min + pad, d_max - pad)
        inside = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius**2
        gt = np.where(inside, depth, gt)
    gt = np.clip(gt, d_min, d_max)

    tn = 2.0 * (gt - d_min) / (d_max - d_min) - 1.0
    basis = np.stack(
        [chebyshev.chebval(tn, [0.0] * j + [1.0]) for j in range(1, f + 1)], axis=-1
    )
    std = eta_lo + (eta_hi - eta_lo) * xs / w
    feats = basis + rng.standard_normal((h, w, f)) * std[..., None]
    return SyntheticScene(gt=gt, features=feats, noise_std=std, seed=seed)


def make_dataset(
    n_train: int = DEFAULT_TRAIN_SCENES,
    n_eval: int = DEFAULT_EVAL_SCENES,
    h: int = DEFAULT_EXTENT,
    w: int = DEFAULT_EXTENT,
    f: int = DEFAULT_FEATURES,
    seed: int = 0,
    eta_lo: float = DEFAULT_ETA_LO,
    eta_hi: float = DEFAULT_ETA_HI,
    d_min: float = DEFAULT_D_MIN,
    d_max: float = DEFAULT_D_MAX,
):
    """Disjoint train/eval scene lists, reproducible from one seed."""
    base = seed * _SCENE_SEED_STRIDE
    train = [
        generate_scene(h, w, f, base + i, eta_lo, eta_hi, d_min, d_max)
        for i in range(n_train)
    ]
    held = [
        generate_scene(h, w, f, base + 100_000 + i, eta_lo, eta_hi, d_min, d_max)
        for i in range(n_eval)
    ]
    return train, held


@dataclass
class ToyModel:
    """Shared-weight per-pixel net: features -> tanh hidden -> head.

    The classification head emits one logit per depth hypothesis; the
    regression head emits a latent vector read out by ``w_out`` (its
    softmax doubles as the pseudo probability for uncertainty).
    """

    head: str
    hypotheses: DepthHypotheses
    w1: np.ndarray  # F x Hd
    b1: np.ndarray  # Hd
    w2: np.ndarray  # Hd x (bins or latent)
    w_out: np.ndarray | None = None  # latent readout, regression only
    raw_scale: float = 0.0
    sigma: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head {self.head!r}, want one of {HEAD_KINDS}")
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise ValueError("hidden layer shapes inconsistent")
        if self.w2.ndim != 2 or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("output layer shapes inconsistent")
        if self.head == "classification":
            if self.w_out is not None:
                raise ValueError("classification head takes no latent readout")
            if self.w2.shape[1] != self.hypotheses.m:
                raise ValueError(
                    f"{self.w2.shape[1]} logits vs {self.hypotheses.m} hypotheses"
                )
        else:
            if self.w_out is None:
                raise ValueError("regression head needs a latent readout")
            self.w_out = np.asarray(self.w_out, dtype=np.float64)
            if self.w_out.shape != (self.w2.shape[1],):
                raise ValueError("latent readout length mismatch")
        if self.sigma.shape != (3,):
            raise ValueError("sigma must hold 3 weights")
        self.check_finite()

    def check_finite(self):
        parts = [self.w1, self.b1, self.w2, self.sigma, np.atleast_1d(self.raw_scale)]
        if self.w_out is not None:
            parts.append(self.w_out)
        if not all(np.all(np.isfinite(p)) for p in parts):
            raise ValueError("non-finite model parameters")

    @property
    def scale(self) -> UncertaintyScale:
        return UncertaintyScale(raw=self.raw_scale)

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run; loss-term switches pick the ablation row."""

    epochs: int = 10
    lr: float = 0.2
    lr_decay: float = 0.8
    decay_every: int = 2
    seed: int = 0
    head: str = "classification"
    include_soft: bool = True
    ranking: str | None = "hinge"
    m: int = DEFAULT_BINS  # hypothesis count, or latent size for regression
    d_min: float = DEFAULT_D_MIN
    d_max: float = DEFAULT_D_MAX
    gamma: float = 10.0
    hidden: int = DEFAULT_HIDDEN

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError(f"decay factor must be in (0, 1], got {self.lr_decay}")
        if self.decay_every < 1:
            raise ValueError(f"decay interval must be >= 1, got {self.decay_every}")
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.ranking not in (None, *RANKING_VARIANTS):
            raise ValueError(f"unknown ranking variant {self.ranking!r}")
        if self.head == "regression" and self.include_soft:
            raise ValueError("the soft-label term needs the classification head")

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.decay_every)


def init_model(config: TrainConfig, n_features: int = DEFAULT_FEATURES) -> ToyModel:
    """Small random weights, zero bias, raw scale and sigmas at zero."""
    rng = np.random.default_rng(config.seed)
    hyp = linear_hypotheses(config.d_min, config.d_max, config.m)
    hd = config.hidden
    w1 = rng.standard_normal((n_features, hd)) / np.sqrt(n_features)
    b1 = np.zeros(hd)
    w2 = rng.standard_normal((hd, config.m)) / np.sqrt(hd)
    w_out = None
    if config.head == "regression":
        w_out = rng.standard_normal(config.m) / np.sqrt(config.m)
    return ToyModel(
        head=config.head, hypotheses=hyp, w1=w1, b1=b1, w2=w2, w_out=w_out
    )


def _hidden(model: ToyModel, feats: np.ndarray) -> np.ndarray:
    return np.tanh(feats @ model.w1 + model.b1)


def forward(model: ToyModel, scene: SyntheticScene):
    """Depth map, uncertainty map and the head volume for one scene.

    The hidden layer, then ``losses.head_forward``.  The third output
    is the probability volume for the classification head and the raw
    latent z for the regression head.
    """
    feats = scene.features
    if feats.shape[-1] != model.n_features:
        raise ValueError(
            f"scene has {feats.shape[-1]} feature channels, model wants {model.n_features}"
        )
    z = _hidden(model, feats) @ model.w2
    depth, unc, vol = head_forward(z, model.raw_scale, model.hypotheses, model.w_out)
    return depth, unc, vol if model.w_out is None else z


@dataclass(frozen=True)
class SceneTargets:
    """The loss targets of one scene, fixed for a whole training run."""

    mask: np.ndarray  # H x W, finite positive GT
    n: int  # valid pixels, the length of the pair permutation
    labels: np.ndarray | None  # (n, M) soft-label rows, include_soft only


def scene_targets(model: ToyModel, scene: SyntheticScene, config: TrainConfig) -> SceneTargets:
    """Validity mask, its count and the soft-label rows of the valid pixels.

    All three depend only on the ground truth, the hypotheses and
    ``config.gamma``, never on the weights, so ``train`` builds them
    once per scene and run.  The labels are left out (None) when the
    soft-label term is off.
    """
    mask = valid_mask(scene.gt)
    gv = scene.gt[mask]
    labels = None
    if config.include_soft:
        labels = soft_labels(model.hypotheses, gv, config.gamma).values
    return SceneTargets(mask=mask, n=gv.size, labels=labels)


def scene_gradients(
    model: ToyModel,
    scene: SyntheticScene,
    config: TrainConfig,
    step_seed: int,
    targets: SceneTargets | None = None,
):
    """One scene's loss report and parameter gradients.

    The exact backward of the losses module supplies d(total)/d(z) for
    either head (plus the readout gradient of the regression head); the
    chain rule through the two-layer net does the rest.  Training and
    the finite-difference spot checks share this code path.  The pair
    permutation covers the valid pixels only; ``targets`` defaults to
    ``scene_targets`` of this scene.
    """
    if targets is None:
        targets = scene_targets(model, scene, config)
    feats = scene.features
    hid = _hidden(model, feats)
    z = hid @ model.w2
    pixels = scene.gt.size

    perm = None
    if config.ranking in ("hinge", "no-max"):
        perm = draw_permutation(targets.n, step_seed)

    report = full_backward(
        z,
        model.raw_scale,
        model.sigma,
        model.hypotheses,
        scene.gt,
        perm,
        gamma=config.gamma,
        include_soft=config.include_soft,
        ranking=config.ranking,
        mask=targets.mask,
        labels=targets.labels,
        readout=model.w_out,
    )

    gz = report.grad_z.reshape(pixels, -1)
    h2 = hid.reshape(pixels, -1)
    f2 = feats.reshape(pixels, -1)
    grad_w2 = h2.T @ gz
    grad_h = gz @ model.w2.T
    grad_pre = grad_h * (1.0 - h2**2)
    grads = {
        "w1": f2.T @ grad_pre,
        "b1": grad_pre.sum(axis=0),
        "w2": grad_w2,
        "a": report.grad_a,
        "sigma": report.grad_sigma,
    }
    if report.grad_readout is not None:
        grads["w_out"] = report.grad_readout
    return report, grads


@dataclass(frozen=True)
class EpochLog:
    """Per-epoch averages used by the logs CSV and the sigma sign checks."""

    epoch: int
    lr: float
    mean_total: float
    mean_depth: float
    mean_soft: float
    mean_rank: float
    sigma: tuple[float, float, float]
    alpha: float
    mean_grad_sigma: tuple[float, float, float]

    def row(self) -> dict:
        return {
            "epoch": self.epoch,
            "lr": self.lr,
            "total": self.mean_total,
            "loss_depth": self.mean_depth,
            "loss_soft": self.mean_soft,
            "loss_rank": self.mean_rank,
            "sigma_depth": self.sigma[0],
            "sigma_soft": self.sigma[1],
            "sigma_rank": self.sigma[2],
            "alpha": self.alpha,
            "grad_sigma_depth": self.mean_grad_sigma[0],
            "grad_sigma_soft": self.mean_grad_sigma[1],
            "grad_sigma_rank": self.mean_grad_sigma[2],
        }


def train(model: ToyModel, scenes, config: TrainConfig):
    """Plain gradient descent, one step per scene visit.

    Scene order is fixed; the pair permutation is redrawn every step
    from the run seed.  Each scene's ``SceneTargets`` (mask, valid
    count, soft-label rows) are built once, before the first step, and
    reused by every epoch: at the defaults (64 scenes of 32 x 32, 16
    bins) the label rows hold 8 MiB for the run.  Aborts with the epoch
    index if the total goes non-finite.  Returns the trained model
    (mutated in place) and the per-epoch log list.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("need at least one training scene")
    targets = [scene_targets(model, scene, config) for scene in scenes]
    logs = []
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        totals = np.zeros(4)
        gsig = np.zeros(3)
        for scene, scene_target in zip(scenes, targets):
            step_seed = config.seed * _PERM_SEED_STRIDE + step
            try:
                report, grads = scene_gradients(model, scene, config, step_seed, scene_target)
            except NonFiniteLossError as exc:
                raise TrainingDivergedError(epoch) from exc
            model.w1 -= lr * grads["w1"]
            model.b1 -= lr * grads["b1"]
            model.w2 -= lr * grads["w2"]
            model.raw_scale -= lr * grads["a"]
            model.sigma = np.clip(
                model.sigma - lr * grads["sigma"], -SIGMA_BOUND, SIGMA_BOUND
            )
            if "w_out" in grads:
                model.w_out = model.w_out - lr * grads["w_out"]
            totals += (report.total, report.value_r, report.value_p, report.value_u)
            gsig += grads["sigma"]
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
    model.check_finite()
    return model, logs


@dataclass(frozen=True)
class EvalSummary:
    """Scene-averaged accuracy and uncertainty quality."""

    n_scenes: int
    accuracy: dict
    uncertainty: dict
    scc: float | None  # error vs uncertainty, mean of per-scene values
    noise_scc: float | None  # uncertainty vs injected noise profile
    scc_missing: int

    def row(self) -> dict:
        out = dict(self.accuracy)
        out.update(self.uncertainty)
        out["scc"] = self.scc
        out["noise_scc"] = self.noise_scc
        return out


def _none_mean(values):
    kept = [v for v in values if v is not None]
    if not kept:
        return None
    return float(np.mean(kept))


def evaluate_model(model: ToyModel, scenes) -> EvalSummary:
    """Unweighted scene means; undefined entries dropped, not zeroed."""
    scenes = list(scenes)
    if not scenes:
        raise ValueError("need at least one evaluation scene")
    acc_rows = []
    unc_rows = []
    sccs = []
    noise_sccs = []
    missing = 0
    for scene in scenes:
        depth, unc, vol = forward(model, scene)
        acc_rows.append(accuracy_metrics(depth, scene.gt).row())
        rep = evaluate_uncertainty(
            depth,
            scene.gt,
            unc,
            vol=vol if model.head == "classification" else None,
            hyp=model.hypotheses,
        )
        unc_rows.append(rep.row())
        if rep.scc is None:
            missing += 1
        else:
            sccs.append(rep.scc)
        ns = spearman(unc.ravel(), scene.noise_std.ravel())
        if ns is not None:
            noise_sccs.append(ns)
    acc = {k: _none_mean([r[k] for r in acc_rows]) for k in acc_rows[0]}
    unc = {k: _none_mean([r[k] for r in unc_rows]) for k in unc_rows[0]}
    return EvalSummary(
        n_scenes=len(scenes),
        accuracy=acc,
        uncertainty=unc,
        scc=_none_mean(sccs) if sccs else None,
        noise_scc=_none_mean(noise_sccs) if noise_sccs else None,
        scc_missing=missing,
    )


def pooled_errors(model: ToyModel, scenes):
    """Absolute errors and uncertainties over all pixels of all scenes."""
    errs = []
    uncs = []
    for scene in scenes:
        depth, unc, _ = forward(model, scene)
        errs.append(np.abs(depth - scene.gt).ravel())
        uncs.append(unc.ravel())
    return np.concatenate(errs), np.concatenate(uncs)


ABLATION_ROWS = (
    ("depth_only", False, None),
    ("depth_soft", True, None),
    ("depth_rank", False, "hinge"),
    ("full", True, "hinge"),
    ("full_nomax", True, "no-max"),
    ("full_l1direct", True, "l1-direct"),
)


def ablate(
    seeds,
    base: TrainConfig | None = None,
    n_train: int = DEFAULT_TRAIN_SCENES,
    n_eval: int = DEFAULT_EVAL_SCENES,
    h: int = DEFAULT_EXTENT,
    w: int = DEFAULT_EXTENT,
    f: int = DEFAULT_FEATURES,
    eta_lo: float = DEFAULT_ETA_LO,
    eta_hi: float = DEFAULT_ETA_HI,
    threads: int = 1,
):
    """Loss-term ablation: six configurations on shared scenes per seed.

    Every configuration of one seed trains from the same initialization
    on the same scene list, so rows differ only in the loss terms.
    Returns one flat dict per (configuration, seed), seeds outer and
    ``ABLATION_ROWS`` inner, in a fixed order regardless of ``threads``;
    each run is self-contained, so threading only changes wall-clock,
    never the numbers.  ``threads`` below 1 and a repeated seed are
    ValueErrors.

    Each distinct model trains once per seed, five runs for six rows:
    a run is keyed by (seed, soft-label term, effective ranking), and
    ``no-max`` is keyed as no ranking term.  Over the bijection of
    ``draw_permutation`` each pixel's uncertainty enters one pair with
    +1 and one with -1, so the no-max gradient is exactly zero and that
    arm would train the ``depth_soft`` weights bitwise (only its unused
    rank sigma would move).  The ``full_nomax`` row therefore carries
    the ``depth_soft`` run's metrics, with ``train_s`` None because it
    had no run of its own.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    seeds = [int(seed) for seed in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seed in {seeds}")
    if base is None:
        base = TrainConfig()
    runs = {}  # run key -> (config, train scenes, eval scenes), in first-use order
    keyed_rows = []  # (row name, run key, whether the row owns the run), in row order
    for seed in seeds:
        cfg_seed = replace(base, seed=seed)
        train_scenes, eval_scenes = make_dataset(
            n_train, n_eval, h, w, f, seed=seed,
            eta_lo=eta_lo, eta_hi=eta_hi, d_min=base.d_min, d_max=base.d_max,
        )
        for name, soft, ranking in ABLATION_ROWS:
            # no-max has a zero gradient: it trains the ranking-free model
            key = (seed, soft, None if ranking == "no-max" else ranking)
            owns = key not in runs
            if owns:
                cfg = replace(cfg_seed, include_soft=soft, ranking=key[2])
                runs[key] = (cfg, train_scenes, eval_scenes)
            keyed_rows.append((name, key, owns))

    def run(key):
        cfg, train_scenes, eval_scenes = runs[key]
        model = init_model(cfg, n_features=f)
        started = time.perf_counter()
        model, _ = train(model, train_scenes, cfg)
        summary = evaluate_model(model, eval_scenes)
        return summary.row(), time.perf_counter() - started

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(zip(runs, pool.map(run, runs)))
    else:
        results = {key: run(key) for key in runs}
    rows = []
    for name, key, owns in keyed_rows:
        metrics, train_s = results[key]
        rows.append({"config": name, "seed": key[0], **metrics,
                     "train_s": train_s if owns else None})
    return rows


def ablation_medians(rows, key: str = "scc"):
    """Per-configuration median of one metric across seeds."""
    out = {}
    for name, _, _ in ABLATION_ROWS:
        vals = [r[key] for r in rows if r["config"] == name and r[key] is not None]
        out[name] = float(np.median(vals)) if vals else None
    return out


# parameter arrays stored one .duv each; w_out only for the regression head
_MODEL_GRIDS = ("w1", "b1", "w2", "sigma", "w_out")


def save_model(model: ToyModel, directory) -> Path:
    """Grid bundle plus a key=value manifest; round-trips exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _MODEL_GRIDS:
        if getattr(model, name) is not None:
            write_grid(directory / f"{name}.duv", getattr(model, name))
    write_keyvalue(
        directory / "manifest.txt",
        {
            "head": model.head,
            "raw_scale": model.raw_scale,
            "d_min": model.hypotheses.d_min,
            "d_max": model.hypotheses.d_max,
            "m": model.hypotheses.m,
        },
    )
    return directory


def load_model(directory) -> ToyModel:
    directory = Path(directory)
    path = directory / "manifest.txt"
    manifest = read_keyvalue(path, required=("head", "raw_scale", "d_min", "d_max", "m"))
    head = manifest["head"]
    grids = {
        name: read_grid(directory / f"{name}.duv").values
        for name in _MODEL_GRIDS
        if name != "w_out" or head == "regression"
    }
    return ToyModel(
        head=head,
        hypotheses=linear_hypotheses(
            keyvalue_numbers(path, manifest, "d_min"),
            keyvalue_numbers(path, manifest, "d_max"),
            keyvalue_numbers(path, manifest, "m", int),
        ),
        raw_scale=keyvalue_numbers(path, manifest, "raw_scale"),
        **grids,
    )
