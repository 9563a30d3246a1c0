"""Entropy-based uncertainty with a learnable positive scale.

u = -alpha * sum_m p_m ln p_m, with alpha = softplus(a) so the learned
raw scalar a can roam the whole real line while the scale stays
positive.  The regression head reads its uncertainty the same way,
from the pseudo distribution softmax(z) of its latent (see
``losses.head_forward``); training and evaluation use the floor-clamped
entropy of ``losses.clamped_entropy_parts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# probabilities below this are clamped before ln; keeps gradients finite
# and costs at most ~1e-10 in the value
PROB_FLOOR = 1e-12
NEG_TOLERANCE = 1e-9


def softplus(x):
    """ln(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Derivative of softplus."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class UncertaintyScale:
    """Learnable output scale: raw parameter a, effective alpha = softplus(a)."""

    raw: float = 0.0

    @property
    def alpha(self) -> float:
        return float(softplus(self.raw))


def raw_entropy(vol) -> np.ndarray:
    """Unscaled Shannon entropy per pixel, natural log, 0*ln0 := 0."""
    p = np.asarray(vol, dtype=np.float64)
    if np.any(p < -NEG_TOLERANCE):
        raise ValueError(f"negative probability below -{NEG_TOLERANCE}")
    p = np.clip(p, 0.0, None)
    # p=0 entries contribute 0 * ln(PROB_FLOOR) = 0, the required convention
    return -(p * np.log(np.clip(p, PROB_FLOOR, None))).sum(axis=-1)


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
