"""Desk-scale training harness for the depth-as-classification stack.

Synthetic heteroscedastic scenes stand in for real RGB-D data: ground
truth is a ramp plus disc primitives, the per-pixel features are a
low-order polynomial lift of that depth corrupted by noise whose std
grows left to right.  A tiny shared-weight per-pixel network (one tanh
hidden layer) maps features to either classification logits or a
regression latent, and plain gradient descent runs on the auto-weighted
loss total through the exact backward pass of the losses module.  The
model trains in float32, the precision ``save_model`` stores, so the
checkpoint is exactly the model that was evaluated.  The hidden layer,
z and the chain rule are held bins-first in memory, at the weights'
dtype: the layout and precision rules the ``losses`` module docstring
describes.  One ``TrainConfig`` describes a whole run: scenes, model
and loss terms.  ``train`` takes a list of runs that differ only in
their loss terms and steps them in lockstep over one scene list, so
what the runs share (each scene's loss targets and valid feature rows,
each step's pair permutation) is built once; each run's arithmetic is
the arithmetic of that run trained alone.

Results are plain CSV rows: ``train`` returns one dict per run and
epoch, keyed and ordered like the ``train_log.csv`` header, and ``evaluate_model``
returns the ``eval.csv`` row, the scene means of every metric.  The
ablation harness reports the six loss configurations of interest on
shared scenes, one such row each plus its configuration and seed; it
trains the five distinct models among them (``full_nomax`` is
``depth_soft``) in one ``train`` call per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev

from .discretize import DepthHypotheses, float_array, linear_hypotheses, soft_labels
from .gridio import grid_payload, valid_mask, write_grid, write_keyvalue
from .losses import RANKING_VARIANTS, LossTargets, NonFiniteLossError, PairPermutation, draw_permutation, full_backward, head_forward, loss_targets, read_only
from .metrics import (
    accuracy_metrics,
    evaluate_uncertainty,
    spearman,
)
from .uncertainty import softplus

HEAD_KINDS = ("classification", "regression")
_PERM_SEED_STRIDE = 1_000_003
_SCENE_SEED_STRIDE = 10_007
# box for the loss-weight parameters: a term whose value sits at float
# noise around zero (the cancelled ranking variant) has no finite
# stationary sigma, and an unbounded walk overflows exp() mid-run.
# Inactive for every configuration with nonzero term values.
SIGMA_BOUND = 20.0
# the largest weight a float32 checkpoint can hold (``gridio.grid_payload``)
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class TrainingDivergedError(RuntimeError):
    """Loss total went non-finite or a weight left float32 range; carries the epoch."""

    def __init__(self, epoch: int, reason: str = "non-finite total"):
        super().__init__(f"training diverged ({reason}) in epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class SyntheticScene:
    """One training sample: depth, noisy features, the noise profile."""

    gt: np.ndarray  # H x W depth
    features: np.ndarray  # H x W x F
    noise_std: np.ndarray  # H x W, constant per column, increasing left->right
    seed: int

    def __post_init__(self):
        # read-only views: the runs of one ablate seed share one scene
        # list, so a stray in-place write raises instead of corrupting
        # the other runs
        for name in ("gt", "features", "noise_std"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def generate_scene(config: TrainConfig, seed: int) -> SyntheticScene:
    """Ramp-plus-discs depth with column-graded feature noise.

    Size, feature count, noise and depth range come from ``config``.
    Feature j is the degree-j Chebyshev polynomial of the normalized
    depth, plus zero-mean noise of std eta(col) = eta_lo +
    (eta_hi - eta_lo) * col / w.  Deterministic in the seed.  The
    features are computed in float64 and stored in float32, the
    precision the model trains in; GT and noise stay float64.
    """
    h, w, f = config.height, config.width, config.features
    d_min, d_max = config.d_min, config.d_max
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
    std = config.eta_lo + (config.eta_hi - config.eta_lo) * xs / w
    feats = basis + rng.standard_normal((h, w, f)) * std[..., None]
    return SyntheticScene(gt=gt, features=feats.astype(np.float32), noise_std=std, seed=seed)


def make_dataset(config: TrainConfig):
    """Disjoint train/eval scene lists of ``config``, reproducible from its seed."""
    base = config.seed * _SCENE_SEED_STRIDE
    train = [generate_scene(config, base + i) for i in range(config.train_scenes)]
    held = [generate_scene(config, base + 100_000 + i) for i in range(config.eval_scenes)]
    return train, held


@dataclass
class ToyModel:
    """Shared-weight per-pixel net: features -> tanh hidden -> head.

    The classification head emits one logit per depth hypothesis; the
    regression head emits a latent vector read out by ``w_out`` (its
    softmax doubles as the pseudo probability for uncertainty).  The
    readout picks the head: none for classification.  ``weights()``
    names the network weights (``w1``, ``b1``, ``w2``, ``w_out``) for the
    gradients, the descent step, the range checks and the checkpoint.
    They share one dtype, float32 or float64 (anything else becomes
    float64), and the forward and backward run at it; ``sigma`` and
    ``raw_scale`` are float64.
    """

    hypotheses: DepthHypotheses
    w1: np.ndarray  # F x Hd
    b1: np.ndarray  # Hd
    w2: np.ndarray  # Hd x (bins or latent)
    w_out: np.ndarray | None = None  # latent readout, regression only
    raw_scale: float = 0.0
    sigma: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.b1 = float_array(self.b1)
        self.w1 = float_array(self.w1)
        self.w2 = float_array(self.w2)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise ValueError("hidden layer shapes inconsistent")
        if self.w2.ndim != 2 or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("output layer shapes inconsistent")
        if self.w_out is None:
            if self.w2.shape[1] != self.hypotheses.m:
                raise ValueError(
                    f"{self.w2.shape[1]} logits vs {self.hypotheses.m} hypotheses"
                )
        else:
            self.w_out = float_array(self.w_out)
            if self.w_out.shape != (self.w2.shape[1],):
                raise ValueError("latent readout length mismatch")
        dtypes = {w.dtype.name for w in self.weights().values()}
        if len(dtypes) != 1:
            raise ValueError(f"network weights mix dtypes {sorted(dtypes)}")
        if self.sigma.shape != (3,):
            raise ValueError("sigma must hold 3 weights")
        self.check_finite()

    @property
    def head(self) -> str:
        return "classification" if self.w_out is None else "regression"

    def weights(self) -> dict:
        """The network weights by name, in layer order; they share one dtype."""
        named = {"w1": self.w1, "b1": self.b1, "w2": self.w2}
        if self.w_out is not None:
            named["w_out"] = self.w_out
        return named

    def check_finite(self):
        if not all(np.all(np.isfinite(p)) for p in [*self.weights().values(), self.sigma, self.raw_scale]):
            raise ValueError("non-finite model parameters")

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """One toy run: its scenes, its model and its loss terms.

    The loss-term switches pick the ablation row.  Each field is named
    after the ``train-toy``/``ablate``/``demo-ause`` flag that fills it
    (``m`` is ``--bins``, ``include_soft`` is ``--soft``; ``ablate``
    has no loss-term flags, since it sets both per row).  Every field
    is checked here, so a bad run fails before it builds a scene or
    trains.
    """

    epochs: int = 10
    lr: float = 0.2
    lr_decay: float = 0.8
    decay_every: int = 2
    seed: int = 0
    head: str = "classification"
    include_soft: bool = True
    ranking: str | None = "hinge"
    m: int = 16  # hypothesis count, or latent size for regression
    d_min: float = 1.0
    d_max: float = 10.0
    gamma: float = 10.0
    hidden: int = 16
    features: int = 8
    height: int = 32
    width: int = 32
    train_scenes: int = 64
    eval_scenes: int = 16
    eta_lo: float = 0.02
    eta_hi: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {self.hidden}")
        if self.train_scenes < 1:
            raise ValueError("need at least one training scene")
        if self.eval_scenes < 1:
            raise ValueError("need at least one evaluation scene")
        if self.height < 4 or self.width < 4:
            raise ValueError(f"image extents must be >= 4, got {self.height}x{self.width}")
        if self.features < 1:
            raise ValueError(f"need >= 1 feature channel, got {self.features}")
        if not (0.0 <= self.eta_lo < self.eta_hi < np.inf):
            raise ValueError(f"need 0 <= eta_lo < eta_hi, got {self.eta_lo}, {self.eta_hi}")
        hyp = linear_hypotheses(self.d_min, self.d_max, self.m)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be a finite number > 0, got {self.lr}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be a finite number > 0, got {self.gamma}")
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
        if self.include_soft:
            # a depth midway between two hypotheses is the farthest any
            # scene depth lies from its nearest one; soft_labels raises
            # when gamma overflows that distance
            soft_labels(hyp, (hyp.values[:-1] + hyp.values[1:]) / 2.0, self.gamma)

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.decay_every)


def init_model(config: TrainConfig) -> ToyModel:
    """Small random float32 weights, zero bias, raw scale and sigmas at zero.

    Each weight matrix is drawn in float64 and rounded once to float32.
    """
    rng = np.random.default_rng(config.seed)
    hyp = linear_hypotheses(config.d_min, config.d_max, config.m)
    hd, nf = config.hidden, config.features
    w1 = rng.standard_normal((nf, hd)) / np.sqrt(nf)
    w2 = rng.standard_normal((hd, config.m)) / np.sqrt(hd)
    w_out = None
    if config.head == "regression":
        w_out = (rng.standard_normal(config.m) / np.sqrt(config.m)).astype(np.float32)
    return ToyModel(
        hypotheses=hyp, w1=w1.astype(np.float32), b1=np.zeros(hd, np.float32),
        w2=w2.astype(np.float32), w_out=w_out,
    )


def _hidden_and_z(model: ToyModel, f2: np.ndarray):
    """The tanh hidden layer of (pixels, F) feature rows and the head output z.

    The hidden layer comes back bins-first, (hidden, pixels), and z as a
    (pixels, M) view of an (M, pixels) array: the layout the losses run
    fast on (see the ``losses`` module docstring).  The feature rows are
    read through a transposed view, never copied.
    """
    if f2.shape[-1] != model.n_features:
        raise ValueError(
            f"scene has {f2.shape[-1]} feature channels, model wants {model.n_features}"
        )
    hid = model.w1.T @ f2.T
    hid += model.b1[:, None]
    np.tanh(hid, out=hid)
    return hid, (model.w2.T @ hid).T


def forward(model: ToyModel, scene: SyntheticScene):
    """Depth map, uncertainty map and softmax(z) for one scene.

    The hidden layer, then ``losses.head_forward``.  softmax(z) is the
    probability volume of the classification head and the pseudo
    distribution of the regression head.
    """
    feats = scene.features
    _, z = _hidden_and_z(model, feats.reshape(-1, feats.shape[-1]))
    z = z.reshape(*feats.shape[:-1], -1)
    return head_forward(z, model.raw_scale, model.hypotheses, model.w_out)


def scene_gradients(
    model: ToyModel,
    features: np.ndarray,
    config: TrainConfig,
    perm: PairPermutation | None,
    targets: LossTargets,
):
    """One scene's loss report and network-weight gradients.

    ``features`` are the scene's valid feature rows,
    ``scene.features[targets.mask]`` for its ``losses.loss_targets``;
    the step covers those pixels only.  ``perm`` is the step's pair
    permutation over them, which only the pair variants (hinge,
    no-max) read; it may be None for the others.  The step draws
    nothing itself.  ``forward``'s hidden layer and z on those rows,
    then the exact backward of the losses module: d(total)/d(z) for
    either head (plus the readout gradient of the regression head);
    the chain rule through the two-layer net does the rest.  The
    gradients are keyed like ``model.weights()``; the report holds
    ``grad_a`` and ``grad_sigma``.  Training and the finite-difference
    spot checks share this code path.
    """
    hid, z = _hidden_and_z(model, features)
    report = full_backward(
        z,
        model.raw_scale,
        model.sigma,
        model.hypotheses,
        targets,
        perm,
        ranking=config.ranking,
        readout=model.w_out,
    )

    # the chain rule runs bins-first too: (M, pixels) and (hidden, pixels)
    gz = report.grad_z.T
    # (1 - h^2) * d(total)/d(h), the tanh pullback, in one array
    grad_pre = np.square(hid)
    np.subtract(1.0, grad_pre, out=grad_pre)
    grad_pre *= model.w2 @ gz
    grads = {"w1": features.T @ grad_pre.T, "b1": grad_pre.sum(axis=1), "w2": hid @ gz.T}
    if report.grad_readout is not None:
        grads["w_out"] = report.grad_readout
    return report, grads


def _check_lockstep(runs):
    """ValueError unless the runs differ only in their loss terms."""
    model, config = runs[0]
    loss_terms = {"include_soft": None, "ranking": None}
    for other, other_config in runs[1:]:
        if {**vars(other_config), **loss_terms} != {**vars(config), **loss_terms}:
            raise ValueError("runs trained together may differ only in include_soft and ranking")
        if other.w1.dtype != model.w1.dtype or not np.array_equal(
            other.hypotheses.values, model.hypotheses.values
        ):
            raise ValueError("runs trained together need models of one dtype and one hypothesis grid")


def _descend(model: ToyModel, report, grads, lr: float, epoch: int):
    """One gradient-descent update of ``model`` in place.

    Each of its ``weights()`` steps on ``grads``; the raw scale and the
    boxed sigmas step on ``report``'s ``grad_a`` and ``grad_sigma``.
    """
    # a float32 weight or a float64 sigma step may overflow to inf here;
    # the range check below turns that into TrainingDivergedError
    with np.errstate(over="ignore"):
        for name, weight in model.weights().items():
            weight -= lr * grads[name]
        model.sigma = np.minimum(np.maximum(model.sigma - lr * report.grad_sigma, -SIGMA_BOUND), SIGMA_BOUND)
    model.raw_scale -= lr * report.grad_a
    # checked before the next step decodes: a huge finite weight
    # overflows z to inf and the softmax to NaN
    in_range = all(np.abs(w).max() <= _FLOAT32_MAX for w in model.weights().values())
    if not (in_range and all(abs(s) <= _FLOAT32_MAX for s in [model.raw_scale, *model.sigma.tolist()])):
        raise TrainingDivergedError(epoch, "a weight left the float32 range")


def train(runs, scenes):
    """Plain gradient descent for ``runs``, a list of ``(model, config)``, in lockstep.

    The runs share one scene list and differ only in their loss terms:
    configs that differ in a field other than ``include_soft`` and
    ``ranking``, or models that differ in dtype or hypotheses, are a
    ValueError before the first step.  Each run takes one step per
    scene visit (for each epoch, then each scene, then each run) and
    does the arithmetic of that run trained alone, in the same order,
    so its results are a one-run call's bit for bit.  What the runs
    share is built once.  Each scene's ``losses.loss_targets`` (mask,
    valid GT and, when some run has the soft-label term, soft-label rows
    at the shared gamma, which the other runs read without labels) and
    its valid feature rows are built before the first step, the targets
    at the models' dtype: at the defaults (64 scenes of 32 x 32, 16
    bins, 8 features, float32) one 4 MiB label set and one 2 MiB
    feature set per call.  Each step's pair permutation is drawn once
    from the shared seed, when some run ranks with pairs.
    Raises ``TrainingDivergedError`` with the epoch index if a run's
    total goes non-finite or a step leaves a weight beyond the float32
    range, which ``save_model`` could not store; the first run to
    diverge in step order raises.  Returns one ``(model, rows)`` per
    run, in order: the trained model (mutated in place) and one
    ``train_log.csv`` row per epoch, a dict keyed and ordered like that
    file's header (the mean loss total and terms over the epoch's
    steps, the loss weights and ``alpha`` after it, the mean sigma
    gradients).
    """
    runs = list(runs)
    scenes = list(scenes)
    if not runs:
        raise ValueError("need at least one run to train")
    if not scenes:
        raise ValueError("need at least one training scene")
    _check_lockstep(runs)
    first, config = runs[0]
    gamma = config.gamma if any(cfg.include_soft for _, cfg in runs) else None
    labelled = [loss_targets(first.hypotheses, scene.gt, gamma, first.w1.dtype) for scene in scenes]
    bare = labelled if gamma is None else [replace(t, labels=None) for t in labelled]
    features = [scene.features[t.mask] for scene, t in zip(scenes, labelled)]
    draws = any(cfg.ranking in ("hinge", "no-max") for _, cfg in runs)
    logs = [[] for _ in runs]
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        totals = np.zeros((len(runs), 4))
        gsig = np.zeros((len(runs), 3))
        for scene_features, with_labels, without_labels in zip(features, labelled, bare):
            perm = None
            if draws:
                perm = draw_permutation(with_labels.n, config.seed * _PERM_SEED_STRIDE + step)
            for (model, cfg), run_totals, run_gsig in zip(runs, totals, gsig):
                targets = with_labels if cfg.include_soft else without_labels
                try:
                    report, grads = scene_gradients(model, scene_features, cfg, perm, targets)
                except NonFiniteLossError as exc:
                    raise TrainingDivergedError(epoch) from exc
                _descend(model, report, grads, lr, epoch)
                run_totals += (report.total, report.value_r, report.value_p, report.value_u)
                run_gsig += report.grad_sigma
            step += 1
        k = len(scenes)
        for (model, _), rows, run_totals, run_gsig in zip(runs, logs, totals, gsig):
            mean = run_totals / k
            sigma, grad_sigma = model.sigma.tolist(), (run_gsig / k).tolist()
            rows.append({
                "epoch": epoch, "lr": lr, "total": mean[0],
                "loss_depth": mean[1], "loss_soft": mean[2], "loss_rank": mean[3],
                "sigma_depth": sigma[0], "sigma_soft": sigma[1], "sigma_rank": sigma[2],
                "alpha": float(softplus(model.raw_scale)),
                "grad_sigma_depth": grad_sigma[0], "grad_sigma_soft": grad_sigma[1],
                "grad_sigma_rank": grad_sigma[2],
            })
    return [(model, rows) for (model, _), rows in zip(runs, logs)]


def _none_mean(values):
    kept = [v for v in values if v is not None]
    if not kept:
        return None
    return float(np.mean(kept))


def evaluate_model(model: ToyModel, scenes) -> dict:
    """The ``eval.csv`` row: unweighted scene means of every metric.

    Each scene's row is ``accuracy_metrics``, then
    ``evaluate_uncertainty``, then ``noise_scc`` (the SCC of the
    uncertainty against the injected noise profile); each column's
    undefined entries are dropped from its mean, not zeroed, and a
    column undefined on every scene stays None.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("need at least one evaluation scene")
    rows = []
    for scene in scenes:
        depth, unc, vol = forward(model, scene)
        row = accuracy_metrics(depth, scene.gt).row()
        row.update(evaluate_uncertainty(
            depth, scene.gt, unc, vol=vol if model.w_out is None else None, hyp=model.hypotheses
        ).row())
        row["noise_scc"] = spearman(unc.ravel(), scene.noise_std.ravel())
        rows.append(row)
    return {k: _none_mean([r[k] for r in rows]) for k in rows[0]}


def pooled_errors(model: ToyModel, scenes):
    """Absolute errors and uncertainties over the valid pixels of all scenes.

    A pixel counts where its GT is valid, the rule ``metrics.valid_pixels``
    uses (``gridio.valid_mask``: finite and positive).
    """
    errs = []
    uncs = []
    for scene in scenes:
        depth, unc, _ = forward(model, scene)
        mask = valid_mask(scene.gt)
        errs.append(np.abs(depth[mask] - scene.gt[mask]))
        uncs.append(unc[mask])
    return np.concatenate(errs), np.concatenate(uncs)


ABLATION_ROWS = (
    ("depth_only", False, None),
    ("depth_soft", True, None),
    ("depth_rank", False, "hinge"),
    ("full", True, "hinge"),
    ("full_nomax", True, "no-max"),
    ("full_l1direct", True, "l1-direct"),
)


def ablate(seeds, base: TrainConfig | None = None):
    """Loss-term ablation: six configurations on shared scenes per seed.

    ``base`` (default ``TrainConfig()``) gives the scenes, the model and
    the training schedule; its seed, soft-label term and ranking term
    are set per run.  Every configuration of one seed trains from the
    same initialization on the same scene list, so rows differ only in
    the loss terms.
    Returns one flat dict per (configuration, seed), seeds outer and
    ``ABLATION_ROWS`` inner.  A repeated seed is a ValueError.

    Each distinct model trains once per seed, five runs for six rows:
    a run of one seed is keyed by (soft-label term, effective ranking), and
    ``no-max`` is keyed as no ranking term.  Over the bijection of
    ``draw_permutation`` each pixel's uncertainty enters one pair with
    +1 and one with -1, so the no-max gradient is exactly zero and that
    arm would train the ``depth_soft`` weights bitwise (only its unused
    rank sigma would move).  The ``full_nomax`` row therefore carries
    the ``depth_soft`` run's metrics.
    The five runs of a seed train in one ``train`` call on the caller's
    thread (a step is dozens of small NumPy calls, and threads only
    contended for the interpreter lock), in lockstep: one soft-label
    set (4 MiB at the defaults) and one feature-row set (2 MiB) per
    seed, one pair permutation per step.  When two runs diverge, the
    error names the epoch of the first to diverge in step order.
    """
    seeds = [int(seed) for seed in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seed in {seeds}")
    # the full model's terms at every seed: a base or a seed that some
    # row cannot take fails here, before the first run trains
    base = replace(base or TrainConfig(), include_soft=True, ranking="hinge")
    # (soft-label term, effective ranking) of each row, and the distinct
    # runs among them; no-max has a zero gradient: it trains the
    # ranking-free model
    row_keys = [(soft, None if ranking == "no-max" else ranking) for _, soft, ranking in ABLATION_ROWS]
    keys = list(dict.fromkeys(row_keys))
    rows = []
    for cfg_seed in [replace(base, seed=seed) for seed in seeds]:
        train_scenes, eval_scenes = make_dataset(cfg_seed)
        configs = [replace(cfg_seed, include_soft=soft, ranking=ranking) for soft, ranking in keys]
        runs = [(init_model(cfg), cfg) for cfg in configs]
        trained = train(runs, train_scenes)
        evaluated = {key: evaluate_model(model, eval_scenes) for key, (model, _) in zip(keys, trained)}
        for (name, _, _), key in zip(ABLATION_ROWS, row_keys):
            rows.append({"config": name, "seed": cfg_seed.seed, **evaluated[key]})
    return rows


def ablation_medians(rows, key: str = "scc"):
    """Per-configuration median of one metric across seeds."""
    out = {}
    for name, _, _ in ABLATION_ROWS:
        vals = [r[key] for r in rows if r["config"] == name and r[key] is not None]
        out[name] = float(np.median(vals)) if vals else None
    return out


def save_model(model: ToyModel, directory) -> Path:
    """Grid bundle plus a key=value manifest, written for inspection.

    The weights are stored as float32 ``.duv`` grids and ``raw_scale`` at
    full precision; nothing in the package reads the bundle back.  Every
    grid passes ``grid_payload`` before the first file is written, so a
    weight beyond float32 range writes nothing.
    """
    directory = Path(directory)
    named = {**model.weights(), "sigma": model.sigma}
    grids = {directory / f"{name}.duv": values for name, values in named.items()}
    for path, values in grids.items():
        grid_payload(path, values)
    directory.mkdir(parents=True, exist_ok=True)
    for path, values in grids.items():
        write_grid(path, values)
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
