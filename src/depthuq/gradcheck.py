"""Central finite-difference verification of every analytic gradient.

Each check draws random instances, numerically differentiates the
scalar loss with a symmetric stencil, and compares against the closed
form.  The comparison is scaled: a check entry passes when

    |analytic - numeric| <= max(abs_tol, rel_tol * max(|analytic|, |numeric|))

The ranking error branch is treated as a constant by the analytic
code, so the numeric oracle freezes that branch at the base point
before perturbing; otherwise the two sides legitimately disagree.
Redraw rule: a check redraws its instance until every absolute-value
or hinge kink lies more than ``KINK_CLEARANCE`` from the evaluation
point, where a finite difference is invalid, and keeps the last of
``MAX_REDRAWS`` draws if none does.

The numeric side of every total check differentiates
``losses.head_forward``, whose decode both evaluation and
``full_backward`` run, through the same term functions and
``auto_weighted_total`` that ``full_backward`` runs, on the masked
valid-pixel vectors.  So each total check ties the trainer's gradient
to the forward that evaluation runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discretize import linear_hypotheses, soft_labels, softmax_volume
from .losses import (
    auto_weighted_total,
    depth_l1,
    draw_permutation,
    full_backward,
    head_forward,
    loss_targets,
    ranking_loss_variants,
    soft_label_l1,
)

DEFAULT_STEP = 1e-6
DEFAULT_REL_TOL = 1e-4
DEFAULT_ABS_TOL = 1e-8
KINK_CLEARANCE = 1e-4
MAX_REDRAWS = 200
# hypotheses of every instance; the regression decode ignores them
_HYP = linear_hypotheses(1.0, 10.0, 4)
# soft-label sharpness of every classification instance
_GAMMA = 20.0


@dataclass(frozen=True)
class GradCheckResult:
    """Outcome of one operation's finite-difference sweep."""

    name: str
    trials: int
    max_scaled: float
    tol: float
    passed: bool
    elapsed_s: float

    def row(self) -> dict:
        return {
            "check": self.name,
            "trials": self.trials,
            "max_scaled": self.max_scaled,
            "tol": self.tol,
            "passed": int(self.passed),
        }


def central_difference(fn, x, h: float = DEFAULT_STEP) -> np.ndarray:
    """Symmetric-stencil gradient of scalar ``fn`` wrt array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size, dtype=np.float64)
    flat = x.ravel().copy()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn(flat.reshape(x.shape))
        flat[i] = keep - h
        lo = fn(flat.reshape(x.shape))
        flat[i] = keep
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(x.shape)


def scaled_error(analytic, numeric, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Worst entry of |a-n| / max(abs_tol/rel_tol, |a|, |n|).

    A value <= rel_tol means every entry satisfies the combined
    relative-or-absolute criterion.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    floor = abs_tol / rel_tol
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _redraw(rng, draw):
    """Draw under the redraw rule; ``draw(rng)`` returns (instance, kink distances)."""
    for _ in range(MAX_REDRAWS):
        instance, kinks = draw(rng)
        if np.min(np.abs(kinks)) > KINK_CLEARANCE:
            break
    return instance


def _mask_with_min(rng, shape, min_valid: int) -> np.ndarray:
    for _ in range(MAX_REDRAWS):
        mask = rng.random(shape) < 0.8
        if int(mask.sum()) >= min_valid:
            return mask
    return np.ones(shape, dtype=bool)


def _margins(r, u, perm):
    return (r - r[perm]) - (u - u[perm])


def _term_gradients(term, x):
    """``term(x).grad`` and the central difference of ``term(x).value``."""
    return term(x).grad, central_difference(lambda v: term(v).value, x)


def _check_depth_l1(rng):
    def draw(rng):
        mask = _mask_with_min(rng, (3, 4), 2)
        gt = rng.uniform(0.5, 9.5, mask.shape)
        pred = gt + rng.uniform(-2.0, 2.0, mask.shape)
        return (pred[mask], gt[mask]), (pred - gt)[mask]

    pred, gt = _redraw(rng, draw)
    return _term_gradients(lambda x: depth_l1(x, gt), pred)


def _check_soft_label_l1(rng):
    def draw(rng):
        mask = _mask_with_min(rng, (3, 4), 2)
        gt = rng.uniform(1.2, 9.8, mask.shape)
        vol = softmax_volume(rng.normal(size=mask.shape + (4,)))[mask]
        y = soft_labels(_HYP, gt, _GAMMA)[mask]
        return (vol, y), y - vol

    vol, y = _redraw(rng, draw)
    return _term_gradients(lambda x: soft_label_l1(x, y), vol)


def _check_ranking(rng, variant):
    def draw(rng):
        err = np.abs(rng.normal(size=12)) + 0.05
        unc = rng.normal(size=12)
        perm = draw_permutation(12, int(rng.integers(1 << 30)))
        kinks = err - unc if variant == "l1-direct" else _margins(err, unc, perm.perm)
        return (err, unc, perm), kinks

    err, unc, perm = _redraw(rng, draw)
    return _term_gradients(lambda u: ranking_loss_variants(err, u, perm, variant), unc)


def _total_forward(z, a, sigma, hyp, targets, perm, frozen_err, readout=None):
    """Weighted total of ``head_forward``'s output, from the term functions.

    ``frozen_err`` pins the ranking error branch (valid pixels only) so
    the difference quotient respects the stop-gradient.  The soft-label
    term is active when ``targets`` carry labels, never with a ``readout``.
    """
    depth, unc, p = head_forward(z, a, hyp, readout)
    mask, soft = targets.mask, targets.labels is not None
    v_r = depth_l1(depth[mask], targets.gt).value
    v_p = soft_label_l1(p[mask], targets.labels).value if soft else 0.0
    v_u = ranking_loss_variants(frozen_err, unc[mask], perm, "hinge").value
    return auto_weighted_total([v_r, v_p, v_u], sigma, (True, soft, True))[0]


def _draw_total(rng, regression):
    """One 2x2 instance for either head, with its kink distances.

    The regression latent is centred at 1.5 so readout depths land in
    the GT range and residuals take both signs; its soft-label term is
    off, so only the classification head has the soft-label kinks.
    """
    mask = _mask_with_min(rng, (2, 2), 3)
    gt = rng.uniform(1.2, 9.8, mask.shape)
    z = rng.normal(loc=1.5 if regression else 0.0, size=mask.shape + (4,))
    readout = rng.uniform(0.2, 1.5, size=4) if regression else None
    a = float(rng.normal())
    sigma = rng.normal(scale=0.5, size=3)
    perm = draw_permutation(int(mask.sum()), int(rng.integers(1 << 30)))

    depth, unc, p = head_forward(z, a, _HYP, readout)
    resid = (depth - gt)[mask]
    kinks = [resid, _margins(np.abs(resid), unc[mask], perm.perm)]
    if not regression:
        kinks.append((soft_labels(_HYP, gt, _GAMMA) - p)[mask].ravel())
    inputs = dict(z=z, a=a, sigma=sigma, readout=readout)
    return (inputs, mask, gt, perm, np.abs(resid)), np.concatenate(kinks)


def _check_total(rng, regression, wrt):
    """``full_backward``'s gradient wrt input ``wrt`` against the forward total."""
    inputs, mask, gt, perm, frozen = _redraw(rng, lambda rng: _draw_total(rng, regression))
    targets = loss_targets(_HYP, np.where(mask, gt, np.nan), None if regression else _GAMMA)
    # full_backward takes the valid rows of z, and its z gradient covers them only
    valid_rows = {**inputs, "z": inputs["z"][mask]}
    report = full_backward(hyp=_HYP, targets=targets, perm=perm, **valid_rows)
    numeric = central_difference(
        lambda x: _total_forward(
            hyp=_HYP, targets=targets, perm=perm, frozen_err=frozen, **{**inputs, wrt: x}
        ),
        inputs[wrt],
    )
    return getattr(report, f"grad_{wrt}"), numeric[mask] if wrt == "z" else numeric


def _check_auto_total(rng):
    values = np.abs(rng.normal(size=3)) + 0.1
    sigma = rng.normal(scale=0.8, size=3)
    _, analytic = auto_weighted_total(values, sigma)
    numeric = central_difference(lambda s: auto_weighted_total(values, s)[0], sigma)
    return analytic, numeric


_CHECKS = (
    ("depth_term_wrt_pred", _check_depth_l1),
    ("soft_term_wrt_probs", _check_soft_label_l1),
    ("ranking_hinge_wrt_unc", lambda rng: _check_ranking(rng, "hinge")),
    ("ranking_no_max_wrt_unc", lambda rng: _check_ranking(rng, "no-max")),
    ("ranking_l1_direct_wrt_unc", lambda rng: _check_ranking(rng, "l1-direct")),
    ("total_wrt_logits", lambda rng: _check_total(rng, False, "z")),
    ("total_wrt_entropy_scale", lambda rng: _check_total(rng, False, "a")),
    ("total_wrt_sigma", lambda rng: _check_total(rng, False, "sigma")),
    ("regression_total_wrt_latent", lambda rng: _check_total(rng, True, "z")),
    ("regression_total_wrt_readout", lambda rng: _check_total(rng, True, "readout")),
    ("auto_total_wrt_sigma", _check_auto_total),
)

def run_gradient_suite(trials: int = 100, seed: int = 0) -> list[GradCheckResult]:
    """Run every check for ``trials`` random instances each."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    results = []
    for idx, (name, fn) in enumerate(_CHECKS):
        started = time.perf_counter()
        worst = 0.0
        for t in range(trials):
            rng = np.random.default_rng((seed, idx, t))
            analytic, numeric = fn(rng)
            worst = max(worst, scaled_error(analytic, numeric))
        results.append(
            GradCheckResult(
                name=name,
                trials=trials,
                max_scaled=worst,
                tol=DEFAULT_REL_TOL,
                passed=worst <= DEFAULT_REL_TOL,
                elapsed_s=time.perf_counter() - started,
            )
        )
    return results


def suite_passed(results) -> bool:
    return all(r.passed for r in results)
