"""Accuracy and uncertainty evaluation.

Accuracy: RMSE, Rel, log10, SqRel, logRMS and the delta threshold chain.
Uncertainty quality: sparsification curves against an oracle ordering
(AUSE/AURG), Spearman rank correlation between per-pixel error and
uncertainty (SCC), AUROC/FPR95 over delta1 outliers, and the bin-mass
negative log-likelihood.  ``ause_flaw_demo`` packages the constructive
counterexample showing AUSE moves under accuracy-preserving error
transforms while SCC does not.

Per-image metrics; dataset values are unweighted means across images,
with undefined entries (single-class AUROC, all-tied SCC) reported as
missing, never as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .discretize import DepthHypotheses, bilinear_bin_weights
from .gridio import valid_mask

DELTA_RATIO = 1.25
SPARSIFICATION_STEPS = 50
NLL_FLOOR = 1e-12
BASE_METRICS = ("rmse", "rel", "delta1err")


class DegenerateMetricError(ValueError):
    """Normalization impossible: the full-set base metric is zero."""


@dataclass(frozen=True)
class AccuracyReport:
    """The eight standard depth metrics plus bookkeeping counts."""

    rmse: float
    rel: float
    log10: float
    sq_rel: float
    log_rms: float
    delta1: float
    delta2: float
    delta3: float
    n_valid: int
    n_log_excluded: int  # valid pixels with pred <= 0, skipped by log metrics

    def row(self) -> dict:
        return {
            "rmse": self.rmse,
            "rel": self.rel,
            "log10": self.log10,
            "sq_rel": self.sq_rel,
            "log_rms": self.log_rms,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
        }


@dataclass(frozen=True)
class SparsificationCurve:
    """Normalized base metric as the worst pixels are progressively removed."""

    fractions: np.ndarray  # k/K for k = 0..K-1
    spars: np.ndarray  # removal by uncertainty, high first
    oracle: np.ndarray  # removal by true error, high first
    random_level: np.ndarray  # constant 1.0 reference


@dataclass(frozen=True)
class UncertaintyReport:
    """Uncertainty-quality summary; None marks undefined entries."""

    ause_rmse: float | None
    aurg_rmse: float | None
    ause_rel: float | None
    aurg_rel: float | None
    ause_delta1: float | None
    aurg_delta1: float | None
    scc: float | None
    auroc: float | None
    fpr95: float | None
    nll: float | None
    nll_excluded: int

    def row(self) -> dict:
        return {
            "ause_rmse": self.ause_rmse,
            "aurg_rmse": self.aurg_rmse,
            "ause_rel": self.ause_rel,
            "aurg_rel": self.aurg_rel,
            "ause_delta1": self.ause_delta1,
            "aurg_delta1": self.aurg_delta1,
            "scc": self.scc,
            "auroc": self.auroc,
            "fpr95": self.fpr95,
            "nll": self.nll,
        }


def _flat_valid(pred, gt, mask):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    if mask is None:
        mask = valid_mask(gt)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != gt.shape:
        raise ValueError(f"mask shape {mask.shape} != {gt.shape}")
    if not mask.any():
        raise ValueError("no valid pixels")
    return pred[mask], gt[mask]


def _valid_uncertainty(unc, gt, mask) -> np.ndarray:
    """Uncertainty on the valid pixels; a non-finite value there is a user error."""
    gt = np.asarray(gt)
    u = np.asarray(unc, dtype=np.float64)
    if u.shape != gt.shape:
        raise ValueError(f"uncertainty shape {u.shape} != {gt.shape}")
    if mask is None:
        mask = valid_mask(gt)
    uv = u[np.asarray(mask, bool)]
    bad = uv.size - int(np.count_nonzero(np.isfinite(uv)))
    if bad:
        raise ValueError(f"uncertainty is non-finite on {bad} valid pixel(s)")
    return uv


def delta_outliers(pred, gt) -> np.ndarray:
    """True where max(d/d̂, d̂/d) fails the first threshold.

    Non-positive predictions cannot satisfy a ratio test against a
    positive GT and count as outliers.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    ok = pred > 0
    ratio = np.where(ok, np.maximum(gt / np.where(ok, pred, 1.0), np.where(ok, pred, 1.0) / gt), np.inf)
    return ratio >= DELTA_RATIO


def accuracy_metrics(pred, gt, mask=None) -> AccuracyReport:
    """All eight metrics over valid pixels.

    Log-based metrics (log10, log_rms) skip valid pixels whose
    prediction is non-positive; the count is reported.  The delta chain
    treats those pixels as outliers at every threshold.
    """
    p, g = _flat_valid(pred, gt, mask)
    n = p.size
    diff = p - g
    rmse = float(np.sqrt(np.mean(diff**2)))
    rel = float(np.mean(np.abs(diff) / g))
    sq_rel = float(np.mean(diff**2 / g))

    pos = p > 0
    n_excluded = int(n - pos.sum())
    if pos.any():
        log10 = float(np.mean(np.abs(np.log10(g[pos]) - np.log10(p[pos]))))
        log_rms = float(np.sqrt(np.mean((np.log(g[pos]) - np.log(p[pos])) ** 2)))
    else:
        log10 = float("nan")
        log_rms = float("nan")

    ratio = np.where(pos, np.maximum(g / np.where(pos, p, 1.0), np.where(pos, p, 1.0) / g), np.inf)
    deltas = [float(np.mean(ratio < DELTA_RATIO**k)) for k in (1, 2, 3)]
    return AccuracyReport(
        rmse=rmse,
        rel=rel,
        log10=log10,
        sq_rel=sq_rel,
        log_rms=log_rms,
        delta1=deltas[0],
        delta2=deltas[1],
        delta3=deltas[2],
        n_valid=int(n),
        n_log_excluded=n_excluded,
    )


def _per_pixel_error(err_metric: str, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each pixel's contribution used for oracle ordering and subsets."""
    if err_metric == "rmse":
        return np.abs(p - g)
    if err_metric == "rel":
        return np.abs(p - g) / g
    if err_metric == "delta1err":
        return delta_outliers(p, g).astype(np.float64)
    raise ValueError(f"unknown base metric {err_metric!r}, want one of {BASE_METRICS}")


def _subset_value(err_metric: str, pixel_err: np.ndarray) -> float:
    if err_metric == "rmse":
        return float(np.sqrt(np.mean(pixel_err**2)))
    # rel and delta1err both reduce to plain means of their pixel values
    return float(np.mean(pixel_err))


def _sparsify_curve(err_metric, pixel_err, rank_unc, steps):
    """Shared removal loop for both orderings and the flaw demo."""
    n = pixel_err.size
    full = _subset_value(err_metric, pixel_err)
    if full == 0.0:
        raise DegenerateMetricError("full-set base metric is 0; nothing to normalize by")
    # descending by score; stable sort leaves ties in ascending pixel index
    by_unc = np.argsort(-rank_unc, kind="stable")
    by_err = np.argsort(-pixel_err, kind="stable")
    fractions = np.arange(steps, dtype=np.float64) / steps
    spars = np.empty(steps)
    oracle = np.empty(steps)
    for k in range(steps):
        drop = int(np.ceil(fractions[k] * n))
        drop = min(drop, n - 1)  # keep at least one pixel (tiny-N guard)
        spars[k] = _subset_value(err_metric, pixel_err[by_unc[drop:]]) / full
        oracle[k] = _subset_value(err_metric, pixel_err[by_err[drop:]]) / full
    return SparsificationCurve(
        fractions=fractions, spars=spars, oracle=oracle, random_level=np.ones(steps)
    )


def sparsification(
    err_metric: str, pred, gt, unc, mask=None, steps: int = SPARSIFICATION_STEPS
) -> SparsificationCurve:
    """Sparsification curve of ``err_metric`` under uncertainty removal.

    At fraction k/steps the ceil(k/steps * N) highest-uncertainty pixels
    (ties resolved toward the lower pixel index) are dropped, the base
    metric recomputed on the remainder and normalized by its full-set
    value.  The oracle column drops by true per-pixel error instead.
    """
    if steps < 2:
        raise ValueError(f"need >= 2 removal steps, got {steps}")
    p, g = _flat_valid(pred, gt, mask)
    uv = _valid_uncertainty(unc, gt, mask)
    pixel_err = _per_pixel_error(err_metric, p, g)
    return _sparsify_curve(err_metric, pixel_err, uv, steps)


def ause_aurg(curve: SparsificationCurve):
    """Signed areas: mean(spars - oracle) and mean(1 - spars)."""
    ause = float(np.mean(curve.spars - curve.oracle))
    aurg = float(np.mean(1.0 - curve.spars))
    return ause, aurg


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # ties get the mean of the rank span they cover
    return stats.rankdata(values, method="average")


def spearman(err, unc) -> float | None:
    """Rank correlation between two pixel vectors; None when undefined.

    Average ranks on both sides, then Pearson.  Returns None when either
    input is completely tied (zero rank variance).
    """
    a = np.asarray(err, dtype=np.float64).ravel()
    b = np.asarray(unc, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch {a.size} vs {b.size}")
    if a.size < 2:
        raise ValueError("need >= 2 pixels")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        return None
    return float(np.corrcoef(ra, rb)[0, 1])


def dataset_spearman(pairs):
    """Unweighted mean of per-image SCCs; counts undefined images.

    ``pairs`` yields (err, unc) per image.  Returns (mean or None,
    n_missing).
    """
    values = []
    missing = 0
    for err, unc in pairs:
        s = spearman(err, unc)
        if s is None:
            missing += 1
        else:
            values.append(s)
    if not values:
        return None, missing
    return float(np.mean(values)), missing


def auroc_fpr95(scores, outlier):
    """Separability of outliers by score; (None, None) if single-class.

    AUROC is the pairwise probability that an outlier outscores an
    inlier, ties counting half (computed via average ranks).  FPR95 is
    the false-positive rate at the first threshold, sweeping from strict
    to loose, whose TPR reaches 0.95 (classifier: score >= threshold).
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(outlier).astype(bool).ravel()
    if s.size != y.size:
        raise ValueError(f"length mismatch {s.size} vs {y.size}")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None, None
    ranks = _average_ranks(s)
    auroc = float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    pos = s[y]
    neg = s[~y]
    fpr95 = None
    for t in np.unique(s)[::-1]:
        if np.mean(pos >= t) >= 0.95:
            fpr95 = float(np.mean(neg >= t))
            break
    return auroc, fpr95


def nll(vol, gt, hyp: DepthHypotheses, mask=None):
    """Mean -ln of the bin mass around GT; skips out-of-range pixels.

    The mass is the bilinear split of GT depth over its two neighboring
    hypotheses, clamped at 1e-12 before the log.  Returns (value,
    n_excluded) where the count covers valid pixels outside the
    hypothesis range.
    """
    p = np.asarray(vol, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape[:-1] != g.shape:
        raise ValueError(f"volume pixels {p.shape[:-1]} vs gt {g.shape}")
    if p.shape[-1] != hyp.m:
        raise ValueError(f"volume bins {p.shape[-1]} vs hypotheses {hyp.m}")
    if mask is None:
        mask = valid_mask(g)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("no valid pixels")
    in_range = mask & (g >= hyp.d_min) & (g <= hyp.d_max)
    excluded = int(mask.sum() - in_range.sum())
    if not in_range.any():
        raise ValueError("no valid pixels inside the hypothesis range")
    gv = g[in_range]
    pv = p[in_range]
    lo, w_lo = bilinear_bin_weights(hyp, gv)
    idx = np.arange(gv.size)
    mass = w_lo * pv[idx, lo] + (1.0 - w_lo) * pv[idx, lo + 1]
    value = float(np.mean(-np.log(np.clip(mass, NLL_FLOOR, None))))
    return value, excluded


def joint_histogram(err, unc, bins: int):
    """Equal-width 2-D histogram; counts sum to the sample count.

    Degenerate ranges (all values equal) collapse into bin 0 on that
    axis.  Returns (counts[err_bin, unc_bin], err_edges, unc_edges).
    """
    bins = int(bins)
    if bins < 2:
        raise ValueError(f"need >= 2 bins, got {bins}")
    a = np.asarray(err, dtype=np.float64).ravel()
    b = np.asarray(unc, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("no samples")

    def bin_of(v):
        lo, hi = float(v.min()), float(v.max())
        edges = np.linspace(lo, hi, bins + 1)
        if hi == lo:
            return np.zeros(v.size, dtype=np.int64), edges
        idx = np.floor((v - lo) / (hi - lo) * bins).astype(np.int64)
        return np.clip(idx, 0, bins - 1), edges

    ia, err_edges = bin_of(a)
    ib, unc_edges = bin_of(b)
    counts = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(counts, (ia, ib), 1)
    return counts, err_edges, unc_edges


BUILTIN_TRANSFORMS = ("square", "sqrt", "affine")


@dataclass(frozen=True)
class TransformComparison:
    """SCC/AUSE of a model and its error-transformed twin."""

    transform: str
    scc_a: float | None
    scc_b: float | None
    ause_a: float
    ause_b: float

    @property
    def delta_scc(self) -> float:
        if self.scc_a is None or self.scc_b is None:
            return float("nan")
        return self.scc_b - self.scc_a

    @property
    def delta_ause(self) -> float:
        return self.ause_b - self.ause_a

    def verdict(self) -> str:
        return (
            f"scc: {self.scc_a} -> {self.scc_b} (delta {self.delta_scc:.3e}); "
            f"ause-rmse: {self.ause_a:.6f} -> {self.ause_b:.6f} (delta {self.delta_ause:.3e}); "
            "ranks preserved, area not: AUSE comparisons across accuracy regimes are confounded"
        )


def _resolve_transform(transform, scale: float = 0.5, offset: float = 0.0):
    if callable(transform):
        return "custom", transform
    if transform == "square":
        return "square", lambda e: e**2
    if transform == "sqrt":
        return "sqrt", np.sqrt
    if transform == "affine":
        if scale <= 0:
            raise ValueError(f"affine scale must be > 0, got {scale}")
        return f"affine(x{scale}+{offset})", lambda e: scale * e + offset
    raise ValueError(f"unknown transform {transform!r}, want one of {BUILTIN_TRANSFORMS}")


def ause_flaw_demo(
    err,
    unc,
    transform,
    scale: float = 0.5,
    offset: float = 0.0,
    steps: int = SPARSIFICATION_STEPS,
) -> TransformComparison:
    """Error-transform counterexample: SCC is rank-stable, AUSE is not.

    Model B's per-pixel errors are transform(model A's); uncertainties
    are untouched.  The transform must be strictly increasing on the
    observed error values (checked), so every ranking — and with it
    SCC — is preserved, while the RMSE-based sparsification areas move.
    """
    e = np.asarray(err, dtype=np.float64).ravel()
    u = np.asarray(unc, dtype=np.float64).ravel()
    if e.size != u.size:
        raise ValueError(f"length mismatch {e.size} vs {u.size}")
    name, fn = _resolve_transform(transform, scale, offset)
    uniq = np.unique(e)
    mapped = np.asarray(fn(uniq), dtype=np.float64)
    if uniq.size > 1 and not np.all(np.diff(mapped) > 0):
        raise ValueError(f"transform {name} not strictly increasing on the error range")
    e_b = np.asarray(fn(e), dtype=np.float64)

    curve_a = _sparsify_curve("rmse", e, u, steps)
    curve_b = _sparsify_curve("rmse", e_b, u, steps)
    return TransformComparison(
        transform=name,
        scc_a=spearman(e, u),
        scc_b=spearman(e_b, u),
        ause_a=ause_aurg(curve_a)[0],
        ause_b=ause_aurg(curve_b)[0],
    )


def evaluate_uncertainty(
    pred, gt, unc, vol=None, hyp: DepthHypotheses | None = None, mask=None,
    steps: int = SPARSIFICATION_STEPS,
) -> UncertaintyReport:
    """One image's full uncertainty-quality report.

    Degenerate pieces (perfect predictions, single-class outliers,
    all-tied ranks) come back as None rather than fabricated numbers.
    Non-finite uncertainty on a valid pixel is an input error and
    raises ValueError.  NLL needs the probability volume and
    hypotheses; omitted otherwise.
    """
    p, g = _flat_valid(pred, gt, mask)
    uv = _valid_uncertainty(unc, gt, mask)

    areas = {}
    for base in BASE_METRICS:
        try:
            curve = _sparsify_curve(base, _per_pixel_error(base, p, g), uv, steps)
            areas[base] = ause_aurg(curve)
        except DegenerateMetricError:
            areas[base] = (None, None)

    scc = spearman(np.abs(p - g), uv)
    auroc, fpr95 = auroc_fpr95(uv, delta_outliers(p, g))

    nll_value = None
    nll_excluded = 0
    if vol is not None and hyp is not None:
        try:
            nll_value, nll_excluded = nll(vol, gt, hyp, mask=mask)
        except ValueError:
            nll_value = None

    return UncertaintyReport(
        ause_rmse=areas["rmse"][0],
        aurg_rmse=areas["rmse"][1],
        ause_rel=areas["rel"][0],
        aurg_rel=areas["rel"][1],
        ause_delta1=areas["delta1err"][0],
        aurg_delta1=areas["delta1err"][1],
        scc=scc,
        auroc=auroc,
        fpr95=fpr95,
        nll=nll_value,
        nll_excluded=nll_excluded,
    )
