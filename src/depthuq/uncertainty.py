"""Entropy-based uncertainty with a learnable positive scale.

u = -alpha * sum_m p_m ln p_m, with alpha = softplus(a) so the learned
raw scalar a can roam the whole real line while the scale stays
positive.  The regression head reads its uncertainty the same way,
from the pseudo distribution softmax(z) of its latent.  Training and
evaluation both take softmax(z) from the one decode in ``losses``.
Evaluation (``losses.head_forward``) and ``raw_entropy`` take the
floor-clamped entropy of ``clamped_entropy``; a training step with the
ranking term on takes it, with its gradient, from
``clamped_entropy_parts``.  The toy model keeps a as ``raw_scale`` and
reads alpha as ``softplus(raw_scale)``.
"""

from __future__ import annotations

import numpy as np

from .discretize import check_probabilities

# probabilities below this are clamped before ln; keeps gradients finite
# and costs at most ~1e-10 in the value
PROB_FLOOR = 1e-12


def _floored_log(p: np.ndarray) -> np.ndarray:
    # np.maximum is np.clip's lower bound, NaN included; the log runs in
    # the one new array
    logp = np.maximum(p, PROB_FLOOR)
    return np.log(logp, out=logp)


def clamped_entropy(p: np.ndarray, logp: np.ndarray | None = None) -> np.ndarray:
    """Entropy per row under the probability floor: -sum p ln(max(p, floor)).

    A p = 0 entry contributes 0 * ln(floor) = 0, the 0 * ln 0 := 0
    convention.  ``logp`` is ``_floored_log(p)`` when the caller has it.
    """
    if logp is None:
        logp = _floored_log(p)
    return -(p * logp).sum(axis=-1)


def clamped_entropy_parts(p: np.ndarray):
    """``clamped_entropy`` plus d(entropy)/dp under the probability floor.

    The value uses ln(max(p, floor)), so for p <= floor the term is
    linear in p and its exact derivative is ln(floor); above the floor
    it is ln(p) + 1.  Returning the true derivative of the computed
    value keeps finite differences honest.  The derivative is built in
    the log's array, after the value has read it: (-x) - b is exactly
    -(x + b).
    """
    logp = _floored_log(p)
    h = clamped_entropy(p, logp)
    dh_dp = np.negative(logp, out=logp)
    dh_dp -= p > PROB_FLOOR
    return h, dh_dp


def softplus(x):
    """ln(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Derivative of softplus, of one scalar (a training step's raw scale)."""
    x = np.float64(x)
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    ex = np.exp(x)
    return ex / (1.0 + ex)


def raw_entropy(vol) -> np.ndarray:
    """Unscaled Shannon entropy per pixel, natural log, 0*ln0 := 0.

    ValueError unless every entry is finite and >= 0.
    """
    p = np.asarray(vol, dtype=np.float64)
    check_probabilities(p)
    return clamped_entropy(p)


def combine_mean(vols) -> np.ndarray:
    """Arithmetic per-entry mean of probability volumes (still a simplex)."""
    vols = list(vols)
    if not vols:
        raise ValueError("need >= 1 volumes")
    arrs = [np.asarray(v, dtype=np.float64) for v in vols]
    shape = arrs[0].shape
    for i, a in enumerate(arrs[1:], start=1):
        if a.shape != shape:
            raise ValueError(f"volume {i} shape {a.shape} != {shape}")
    return sum(arrs) / len(arrs)
