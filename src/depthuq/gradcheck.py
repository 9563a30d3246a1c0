"""Central finite-difference verification of every analytic gradient.

Each check draws random instances, numerically differentiates the
scalar loss with a symmetric stencil, and compares against the closed
form.  The comparison is scaled: a check entry passes when

    |analytic - numeric| <= max(abs_tol, rel_tol * max(|analytic|, |numeric|))

The ranking error branch is treated as a constant by the analytic
code, so the numeric oracle freezes that branch at the base point
before perturbing; otherwise the two sides legitimately disagree.
Instances are redrawn when any absolute-value or hinge kink sits too
close to the evaluation point, where a finite difference is invalid.

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

from .discretize import DEFAULT_GAMMA, linear_hypotheses, soft_labels, softmax_volume
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
# evaluation points closer than this to a kink are redrawn
KINK_CLEARANCE = 1e-4
MAX_REDRAWS = 200


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


def _mask_with_min(rng, shape, min_valid: int) -> np.ndarray:
    for _ in range(MAX_REDRAWS):
        mask = rng.random(shape) < 0.8
        if int(mask.sum()) >= min_valid:
            return mask
    return np.ones(shape, dtype=bool)


def _margins(r, u, perm):
    return (r - r[perm]) - (u - u[perm])


def _check_depth_l1(rng):
    shape = (3, 4)
    for _ in range(MAX_REDRAWS):
        mask = _mask_with_min(rng, shape, 2)
        gt = rng.uniform(0.5, 9.5, shape)
        pred = gt + rng.uniform(-2.0, 2.0, shape)
        if np.min(np.abs((pred - gt)[mask])) > KINK_CLEARANCE:
            break
    pred, gt = pred[mask], gt[mask]
    analytic = depth_l1(pred, gt).grad
    numeric = central_difference(lambda x: depth_l1(x, gt).value, pred)
    return analytic, numeric


def _check_soft_label_l1(rng):
    hyp = linear_hypotheses(1.0, 10.0, 4)
    shape = (3, 4)
    for _ in range(MAX_REDRAWS):
        mask = _mask_with_min(rng, shape, 2)
        gt = rng.uniform(1.2, 9.8, shape)
        vol = softmax_volume(rng.normal(size=shape + (4,)))
        y = soft_labels(hyp, gt).values
        if np.min(np.abs((y - vol)[mask])) > KINK_CLEARANCE:
            break
    vol, y = vol[mask], y[mask]
    analytic = soft_label_l1(vol, y).grad
    numeric = central_difference(lambda x: soft_label_l1(x, y).value, vol)
    return analytic, numeric


def _check_ranking(rng, variant):
    n = 12
    for _ in range(MAX_REDRAWS):
        err = np.abs(rng.normal(size=n)) + 0.05
        unc = rng.normal(size=n)
        perm = draw_permutation(n, int(rng.integers(1 << 30)))
        if variant == "l1-direct":
            clear = np.min(np.abs(err - unc)) > KINK_CLEARANCE
        else:
            clear = np.min(np.abs(_margins(err, unc, perm.perm))) > KINK_CLEARANCE
        if clear:
            break
    analytic = ranking_loss_variants(err, unc, perm, variant).grad
    numeric = central_difference(lambda u: ranking_loss_variants(err, u, perm, variant).value, unc)
    return analytic, numeric


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


def _full_instance(rng):
    hyp = linear_hypotheses(1.0, 10.0, 4)
    shape = (2, 2)
    for _ in range(MAX_REDRAWS):
        mask = _mask_with_min(rng, shape, 3)
        gt = rng.uniform(1.2, 9.8, shape)
        z = rng.normal(size=shape + (4,))
        a = float(rng.normal())
        sigma = rng.normal(scale=0.5, size=3)
        perm = draw_permutation(int(mask.sum()), int(rng.integers(1 << 30)))

        depth, unc, p = head_forward(z, a, hyp)
        resid = (depth - gt)[mask]
        y = soft_labels(hyp, gt).values
        m = _margins(np.abs(resid), unc[mask], perm.perm)
        clear = (
            np.min(np.abs(resid)) > KINK_CLEARANCE
            and np.min(np.abs((y - p)[mask])) > KINK_CLEARANCE
            and np.min(np.abs(m)) > KINK_CLEARANCE
        )
        if clear:
            break
    return dict(z=z, a=a, sigma=sigma, readout=None), hyp, mask, gt, perm, np.abs(resid)


def _regression_instance(rng):
    shape = (2, 2)
    latent = 4
    hyp = linear_hypotheses(1.0, 10.0, latent)  # unused by the regression decode
    for _ in range(MAX_REDRAWS):
        mask = _mask_with_min(rng, shape, 3)
        gt = rng.uniform(1.2, 9.8, shape)
        # readout depths near the GT range, so residuals take both signs
        z = rng.normal(loc=1.5, size=shape + (latent,))
        w_out = rng.uniform(0.2, 1.5, size=latent)
        a = float(rng.normal())
        sigma = rng.normal(scale=0.5, size=3)
        perm = draw_permutation(int(mask.sum()), int(rng.integers(1 << 30)))

        depth, unc, _ = head_forward(z, a, hyp, w_out)
        resid = (depth - gt)[mask]
        m = _margins(np.abs(resid), unc[mask], perm.perm)
        if np.min(np.abs(resid)) > KINK_CLEARANCE and np.min(np.abs(m)) > KINK_CLEARANCE:
            break
    return dict(z=z, a=a, sigma=sigma, readout=w_out), hyp, mask, gt, perm, np.abs(resid)


def _check_total(rng, build, wrt):
    """``full_backward``'s gradient wrt input ``wrt`` against the forward total.

    ``build`` draws the instance: ``_full_instance`` for the
    classification head, ``_regression_instance`` for the regression head.
    """
    inputs, hyp, mask, gt, perm, frozen = build(rng)
    gamma = DEFAULT_GAMMA if inputs["readout"] is None else None
    targets = loss_targets(hyp, np.where(mask, gt, np.nan), gamma)
    report = full_backward(hyp=hyp, targets=targets, perm=perm, **inputs)
    numeric = central_difference(
        lambda x: _total_forward(
            hyp=hyp, targets=targets, perm=perm, frozen_err=frozen, **{**inputs, wrt: x}
        ),
        inputs[wrt],
    )
    return getattr(report, f"grad_{wrt}"), numeric


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
    ("total_wrt_logits", lambda rng: _check_total(rng, _full_instance, "z")),
    ("total_wrt_entropy_scale", lambda rng: _check_total(rng, _full_instance, "a")),
    ("total_wrt_sigma", lambda rng: _check_total(rng, _full_instance, "sigma")),
    ("regression_total_wrt_latent", lambda rng: _check_total(rng, _regression_instance, "z")),
    ("regression_total_wrt_readout", lambda rng: _check_total(rng, _regression_instance, "readout")),
    ("auto_total_wrt_sigma", _check_auto_total),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_gradient_suite(trials: int = 100, seed: int = 0) -> list[GradCheckResult]:
    """Run every check for ``trials`` random instances each."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
