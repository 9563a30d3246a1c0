"""Accuracy and uncertainty evaluation.

Accuracy: RMSE, Rel, log10, SqRel, logRMS and the delta threshold chain.
Uncertainty quality: sparsification curves against an oracle ordering
(AUSE/AURG), Spearman rank correlation between per-pixel error and
uncertainty (SCC), AUROC/FPR95 over delta1 outliers, and the bin-mass
negative log-likelihood.  ``ause_flaw_demo`` packages the constructive
counterexample showing AUSE moves under accuracy-preserving error
transforms while SCC does not.

Every rank metric is a sweep over a ``_Ranking``, a score vector and
its stable descending order (``_ranking`` holds the module's one sort);
its tie groups and average ranks are built on first use.  SCC and AUROC
read the ranks, FPR95 cumulative outlier counts at tie-group ends (the
ROC sweep of Fawcett 2006), and a sparsification curve tail sums of the
per-pixel errors in two orders: the uncertainty's, and the errors' own,
which is the oracle (Ilg et al. 2018).  Plain NumPy at run time.

Input policy, shared by ``valid_pixels`` and ``_require_finite``: a
pixel is valid where its GT is finite and positive, and per-image
metrics read valid pixels only.  A non-finite prediction or uncertainty
on a valid pixel, or a non-finite entry of a vector handed to a rank
metric, raises ValueError with the count of such entries; an image
without a valid pixel raises ValueError too, and so does a probability
volume of the wrong shape or with a negative or non-finite entry.  So
does an error that overflows, per pixel (with the count), squared or
summed, rather than give NaN areas; only float64 calls reach that, as
float32 ``.duv`` errors square below 1.2e77.

Per-image metrics; undefined entries (single-class AUROC, all-tied SCC,
sparsification areas of one pixel, log metrics with no positive
prediction, NLL with no valid pixel in the hypothesis range) are
reported as None, never as 0 or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .discretize import DepthHypotheses, bilinear_bin_weights, check_probabilities
from .gridio import valid_mask

DELTA_RATIO = 1.25
SPARSIFICATION_STEPS = 50
NLL_FLOOR = 1e-12
BASE_METRICS = ("rmse", "rel", "delta1err")
_COUNT = {"count": True}  # a report's pixel counts stay out of its row


class DegenerateMetricError(ValueError):
    """The metric is undefined on this input, which is not itself wrong.

    Raised by the sparsification sweep when there is one pixel (nothing
    to remove) or the full-set base metric is zero (nothing to normalize
    by).
    """


class _Report:
    """A per-image report whose CSV row is its fields less the pixel counts."""

    def row(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if "count" not in f.metadata}


@dataclass(frozen=True)
class AccuracyReport(_Report):
    """The eight standard depth metrics plus bookkeeping counts."""

    rmse: float
    rel: float
    log10: float | None  # None when no valid prediction is positive
    sq_rel: float
    log_rms: float | None
    delta1: float
    delta2: float
    delta3: float
    n_valid: int = field(metadata=_COUNT)
    n_log_excluded: int = field(metadata=_COUNT)  # valid pred <= 0, skipped by log metrics


@dataclass(frozen=True)
class SparsificationCurve:
    """Normalized base metric as the worst pixels are progressively removed."""

    fractions: np.ndarray  # k/K for k = 0..K-1
    spars: np.ndarray  # removal by uncertainty, high first
    oracle: np.ndarray  # removal by true error, high first
    random_level: np.ndarray  # constant 1.0 reference


@dataclass(frozen=True)
class UncertaintyReport(_Report):
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
    nll_excluded: int = field(metadata=_COUNT)


def valid_pixels(pred, gt, unc=None):
    """Prediction, GT and (if given) uncertainty on the valid pixels.

    The input check of every per-image metric but ``nll``, which masks
    the full volume itself: shapes must match, the image must hold a
    valid pixel, and the prediction and uncertainty must be finite
    there.  ``unc`` comes back as None when not given.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    mask = valid_mask(gt)
    if not mask.any():
        raise ValueError("no valid pixels")
    p = _require_finite(pred[mask], "prediction", "valid pixel(s)")
    if unc is None:
        return p, gt[mask], None
    u = np.asarray(unc, dtype=np.float64)
    if u.shape != gt.shape:
        raise ValueError(f"uncertainty shape {u.shape} != {gt.shape}")
    return p, gt[mask], _require_finite(u[mask], "uncertainty", "valid pixel(s)")


def _require_finite(v: np.ndarray, name: str, where: str = "entry(ies)") -> np.ndarray:
    bad = v.size - int(np.count_nonzero(np.isfinite(v)))
    if bad:
        raise ValueError(f"{name} is non-finite on {bad} {where}")
    return v


def _delta_ratio(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """max(d/d̂, d̂/d) per pixel; inf where the prediction is non-positive.

    Non-positive predictions cannot satisfy a ratio test against a
    positive GT, so they fail every threshold.
    """
    ok = pred > 0
    safe = np.where(ok, pred, 1.0)
    return np.where(ok, np.maximum(gt / safe, safe / gt), np.inf)


def delta_outliers(pred, gt) -> np.ndarray:
    """True where max(d/d̂, d̂/d) fails the first threshold."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    return _delta_ratio(pred, gt) >= DELTA_RATIO


def accuracy_metrics(pred, gt) -> AccuracyReport:
    """All eight metrics over valid pixels.

    Log-based metrics (log10, log_rms) skip valid pixels whose
    prediction is non-positive; the count is reported, and with no
    positive prediction both are None.  The delta chain
    treats those pixels as outliers at every threshold.
    """
    p, g, _ = valid_pixels(pred, gt)
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
        log10 = log_rms = None

    ratio = _delta_ratio(p, g)
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


def check_steps(steps: int) -> None:
    """A sparsification curve needs the full set and at least one removal."""
    if steps < 2:
        raise ValueError(f"need >= 2 removal steps, got {steps}")


@dataclass(frozen=True)
class _Ranking:
    """A finite score vector and its stable descending order.

    Rank metrics and sparsification curves take one in place of a score
    vector, so that each ordering of an image is sorted once.
    """

    values: np.ndarray
    order: np.ndarray  # pixel indices, highest score first, ties by index

    @cached_property
    def ends(self) -> np.ndarray:  # exclusive end of each tie group in ``order``
        s = self.values[self.order]
        return np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1

    @cached_property
    def ranks(self) -> np.ndarray:  # 1-based average ascending ranks, per pixel
        n, ends = self.values.size, self.ends
        counts = np.diff(ends, prepend=0)
        # a tie group at descending positions [a, a + c) spans ascending ranks
        # n - a - c + 1 .. n - a; the mean is an exact half-integer
        ranks = np.empty(n)
        ranks[self.order] = np.repeat(n - (ends - counts) - (counts - 1) / 2.0, counts)
        return ranks


def _ranking(values, name: str) -> _Ranking:
    if isinstance(values, _Ranking):
        return values
    v = _require_finite(np.asarray(values, dtype=np.float64).ravel(), name)
    # stable sort leaves ties in ascending pixel index
    return _Ranking(values=v, order=np.argsort(-v, kind="stable"))


def _sparsify_curve(err_metric, err: _Ranking, unc: _Ranking, steps):
    """The removal sweep behind every sparsification curve.

    ``err`` ranks the per-pixel errors (its order is the oracle's) and
    ``unc`` the uncertainty.  Each ordering's kept-pixel sums are tail
    sums of the errors (squared for RMSE) in its order, summed from the
    low end so that short tails do not cancel; each curve is normalized
    by its own full-set value, which must be finite.
    """
    check_steps(steps)
    n = err.values.size
    if n < 2:
        raise DegenerateMetricError("one pixel; nothing to remove")
    x = err.values
    if err_metric == "rmse":
        x = _require_finite(x**2, "squared error")
    fractions = np.arange(steps, dtype=np.float64) / steps
    # keep at least one pixel (tiny-N guard)
    drop = np.minimum(np.ceil(fractions * n).astype(np.int64), n - 1)

    def removal(order):
        tail = np.cumsum(x[order][::-1])[::-1]
        value = tail[drop] / (n - drop)
        return np.sqrt(value) if err_metric == "rmse" else value

    spars = removal(unc.order)
    oracle = removal(err.order)
    if not np.isfinite((spars[0], oracle[0])).all():
        raise ValueError(f"the {err_metric} error sum overflows")
    if spars[0] == 0.0:
        raise DegenerateMetricError("full-set base metric is 0; nothing to normalize by")
    return SparsificationCurve(
        fractions=fractions,
        spars=spars / spars[0],
        oracle=oracle / oracle[0],
        random_level=np.ones(steps),
    )


def sparsification(
    err_metric: str, pred, gt, unc, steps: int = SPARSIFICATION_STEPS
) -> SparsificationCurve:
    """Sparsification curve of ``err_metric`` under uncertainty removal.

    At fraction k/steps the ceil(k/steps * N) highest-uncertainty pixels
    (ties resolved toward the lower pixel index) are dropped, the base
    metric recomputed on the remainder and normalized by its full-set
    value.  The oracle column drops by true per-pixel error instead,
    ties again toward the lower index.  An error that overflows, per
    pixel, squared or summed, raises ValueError.
    """
    p, g, u = valid_pixels(pred, gt, unc)
    err = _ranking(_per_pixel_error(err_metric, p, g), f"{err_metric} error")
    return _sparsify_curve(err_metric, err, _ranking(u, "uncertainty"), steps)


def ause_aurg(curve: SparsificationCurve):
    """Signed areas: mean(spars - oracle) and mean(1 - spars)."""
    ause = float(np.mean(curve.spars - curve.oracle))
    aurg = float(np.mean(1.0 - curve.spars))
    return ause, aurg


def spearman(err, unc) -> float | None:
    """Rank correlation between two pixel vectors; None when undefined.

    Average ranks on both sides, then Pearson.  Returns None when either
    input is completely tied (zero rank variance), one pixel included.
    Untied inputs in the same or the reverse order give exactly 1.0 or
    -1.0, which Pearson's rounding can miss by an ulp.  No pixels and
    non-finite values raise ValueError.
    """
    a = _ranking(err, "err")
    b = _ranking(unc, "unc")
    n = a.values.size
    if n != b.values.size:
        raise ValueError(f"length mismatch {n} vs {b.values.size}")
    if n == 0:
        raise ValueError("need >= 1 pixel")
    if a.ends.size == 1 or b.ends.size == 1:
        return None
    if a.ends.size == b.ends.size == n:  # untied: the orders decide
        if np.array_equal(a.order, b.order):
            return 1.0
        if np.array_equal(a.order, b.order[::-1]):
            return -1.0
    return float(np.corrcoef(a.ranks, b.ranks)[0, 1])


def auroc_fpr95(scores, outlier):
    """Separability of outliers by score; (None, None) if single-class.

    AUROC is the pairwise probability that an outlier outscores an
    inlier, ties counting half (computed via average ranks).  FPR95 is
    the false-positive rate at the first threshold, sweeping from strict
    to loose, whose TPR reaches 0.95 (classifier: score >= threshold).
    Non-finite scores raise ValueError.
    """
    r = _ranking(scores, "scores")
    y = np.asarray(outlier).astype(bool).ravel()
    if r.values.size != y.size:
        raise ValueError(f"length mismatch {r.values.size} vs {y.size}")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None, None
    auroc = float((r.ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    # outliers scoring >= each tie group's score; the last group reaches TPR 1
    tp = np.cumsum(y[r.order])[r.ends - 1]
    first = int(np.argmax(tp / n_pos >= 0.95))
    fpr95 = float((r.ends[first] - tp[first]) / n_neg)
    return auroc, fpr95


def nll(vol, gt, hyp: DepthHypotheses):
    """Mean -ln of the bin mass around GT; skips out-of-range pixels.

    The mass is the bilinear split of GT depth over its two neighboring
    hypotheses, clamped at 1e-12 before the log.  Returns (value,
    n_excluded) where the count covers valid pixels outside the
    hypothesis range.  A volume of the wrong shape or with a negative or
    non-finite entry is a ValueError; with no valid pixel inside the
    range the value is None.
    """
    p = np.asarray(vol, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape[:-1] != g.shape:
        raise ValueError(f"volume pixels {p.shape[:-1]} vs gt {g.shape}")
    if p.shape[-1] != hyp.m:
        raise ValueError(f"volume bins {p.shape[-1]} vs hypotheses {hyp.m}")
    check_probabilities(p)
    mask = valid_mask(g)
    in_range = mask & (g >= hyp.d_min) & (g <= hyp.d_max)
    excluded = int(mask.sum() - in_range.sum())
    if not in_range.any():
        return None, excluded
    gv = g[in_range]
    pv = p[in_range]
    lo, w_lo = bilinear_bin_weights(hyp, gv)
    idx = np.arange(gv.size)
    mass = w_lo * pv[idx, lo] + (1.0 - w_lo) * pv[idx, lo + 1]
    value = float(np.mean(-np.log(np.clip(mass, NLL_FLOOR, None))))
    return value, excluded


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
    def delta_scc(self) -> float | None:
        """SCC of B minus SCC of A; None when either SCC is undefined."""
        if self.scc_a is None or self.scc_b is None:
            return None
        return self.scc_b - self.scc_a

    @property
    def delta_ause(self) -> float:
        return self.ause_b - self.ause_a

    def verdict(self) -> str:
        """Both deltas and which of ranks and area moved; SCC and AUSE are O(1), so |delta| <= 1e-12 is rounding."""
        def moved(delta):
            return "undefined" if delta is None else "moved" if abs(delta) > 1e-12 else "preserved"

        ranks, area = moved(self.delta_scc), moved(self.delta_ause)
        reading = f"ranks {ranks}, area {area}: no confound shown"
        if (ranks, area) == ("preserved", "moved"):
            reading = "ranks preserved, area not: AUSE comparisons across accuracy regimes are confounded"
        shown = "undefined" if self.delta_scc is None else f"{self.delta_scc:.3e}"
        return (
            f"scc: {self.scc_a} -> {self.scc_b} (delta {shown}); "
            f"ause-rmse: {self.ause_a:.6f} -> {self.ause_b:.6f} (delta {self.delta_ause:.3e}); "
            + reading
        )


def check_affine(scale: float, offset: float) -> None:
    """``scale * e + offset`` is finite and strictly increasing."""
    if not (np.isfinite(scale) and np.isfinite(offset) and scale > 0):
        raise ValueError(
            f"affine transform needs a finite scale > 0 and a finite offset, "
            f"got scale={scale}, offset={offset}"
        )


def _resolve_transform(transform, scale: float = 0.5, offset: float = 0.0):
    if transform == "square":
        return "square", lambda e: e**2
    if transform == "sqrt":
        return "sqrt", np.sqrt
    if transform == "affine":
        check_affine(scale, offset)
        return f"affine(x{scale}+{offset})", lambda e: scale * e + offset
    raise ValueError(f"unknown transform {transform!r}, want one of {BUILTIN_TRANSFORMS}")


def ause_flaw_demo(
    err,
    unc,
    transform: str,
    scale: float = 0.5,
    offset: float = 0.0,
    steps: int = SPARSIFICATION_STEPS,
) -> TransformComparison:
    """Error-transform counterexample: SCC is rank-stable, AUSE is not.

    Model B's per-pixel errors are transform(model A's), the transform
    one of ``BUILTIN_TRANSFORMS``; uncertainties are untouched.  The
    transform must be strictly increasing on the observed error values
    (checked), so every ranking — and with it SCC — is preserved, while
    the RMSE-based sparsification areas move.
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

    # one sort per ordering, shared by the curves and SCC
    by_err, by_err_b, by_unc = _ranking(e, "err"), _ranking(e_b, "err"), _ranking(u, "unc")
    curve_a = _sparsify_curve("rmse", by_err, by_unc, steps)
    curve_b = _sparsify_curve("rmse", by_err_b, by_unc, steps)
    return TransformComparison(
        transform=name,
        scc_a=spearman(by_err, by_unc),
        scc_b=spearman(by_err_b, by_unc),
        ause_a=ause_aurg(curve_a)[0],
        ause_b=ause_aurg(curve_b)[0],
    )


def evaluate_uncertainty(
    pred, gt, unc, vol=None, hyp: DepthHypotheses | None = None
) -> UncertaintyReport:
    """One image's full uncertainty-quality report.

    Degenerate pieces (perfect predictions, single-class outliers,
    all-tied ranks) come back as None rather than fabricated numbers.
    Non-finite uncertainty on a valid pixel is an input error and
    raises ValueError.  NLL is None without a probability volume; a
    volume without its hypotheses, or a malformed one, raises ValueError.
    """
    if vol is not None and hyp is None:
        raise ValueError("a probability volume needs its depth hypotheses for NLL")
    p, g, u = valid_pixels(pred, gt, unc)
    by_unc = _ranking(u, "uncertainty")
    by_err = {b: _ranking(_per_pixel_error(b, p, g), f"{b} error") for b in BASE_METRICS}

    areas = {}
    for base in BASE_METRICS:
        try:
            curve = _sparsify_curve(base, by_err[base], by_unc, SPARSIFICATION_STEPS)
            areas[base] = ause_aurg(curve)
        except DegenerateMetricError:
            areas[base] = (None, None)

    # |pred - gt| is both the RMSE oracle's pixel error and SCC's error
    scc = spearman(by_err["rmse"], by_unc)
    # the delta1err pixel error is the delta1 outlier indicator
    auroc, fpr95 = auroc_fpr95(by_unc, by_err["delta1err"].values)

    nll_value, nll_excluded = None, 0
    if vol is not None:
        nll_value, nll_excluded = nll(vol, gt, hyp)

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
