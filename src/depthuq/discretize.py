"""Depth hypothesis grids, expectation decoding, and soft labels.

Depth is predicted as a per-pixel categorical distribution over M fixed
hypothesis values.  This module owns the hypothesis grid, the expected
depth read-out, the distance-shaped soft target distributions used for
the probability loss, and the one stable softmax, which the soft
labels use too.  The softmax allocates one array: it shifts z by the
row max into a new array, then runs ``exp`` and the divide by the row
sum in that array.  Its row sum's order follows the memory layout (the
rule is in the ``losses`` module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridio import valid_mask


@dataclass(frozen=True)
class DepthHypotheses:
    """Strictly increasing vector of candidate depths (meters)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-D vector of >= 2 hypotheses")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("hypotheses must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def d_min(self) -> float:
        return float(self.values[0])

    @property
    def d_max(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class SoftLabelVolume:
    """Per-pixel target distributions peaked at the hypothesis nearest GT.

    ``valid`` is False where the ground truth was missing; those rows
    are all zero and must be excluded from losses.
    """

    values: np.ndarray
    valid: np.ndarray


def float_array(x) -> np.ndarray:
    """``x`` as an array that keeps a float32 or float64 dtype; anything else becomes float64."""
    a = np.asarray(x)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def linear_hypotheses(d_min: float, d_max: float, m: int) -> DepthHypotheses:
    """Endpoint-inclusive linear grid of ``m`` depths over [d_min, d_max]."""
    d_min = float(d_min)
    d_max = float(d_max)
    m = int(m)
    if not (0.0 < d_min < d_max < np.inf):
        raise ValueError(f"need 0 < d_min < d_max, got [{d_min}, {d_max}]")
    if m < 2:
        raise ValueError(f"need >= 2 hypotheses, got {m}")
    return DepthHypotheses(np.linspace(d_min, d_max, m))


def check_probabilities(vol) -> None:
    """ValueError if any entry of a probability volume is negative or non-finite."""
    if np.any(vol < 0.0) or not np.all(np.isfinite(vol)):
        raise ValueError("probability volume must be finite and >= 0")


def expectation_depth(hyp: DepthHypotheses, vol) -> np.ndarray:
    """Expected depth per pixel: the probability-weighted hypothesis sum.

    ``vol`` has the hypothesis axis last; any leading shape is allowed.
    The result is clipped to [d_min, d_max], which only trims float
    round-off (the exact value is a convex combination).
    """
    p = float_array(vol)
    if p.shape[-1] != hyp.m:
        raise ValueError(f"volume has {p.shape[-1]} bins, hypotheses {hyp.m}")
    # maximum then minimum is np.clip's result, NaN included, without
    # its wrapper; no out= here, since a 1-D ``vol`` gives a 0-d value
    depth = p @ hyp.values.astype(p.dtype, copy=False)
    return np.minimum(np.maximum(depth, hyp.d_min), hyp.d_max)


def soft_labels(hyp: DepthHypotheses, gt, gamma: float) -> SoftLabelVolume:
    """Distance-shaped target distribution for each valid GT pixel.

    y_m ∝ exp(-gamma * |s_m - d|), normalized per pixel.  Larger gamma
    concentrates mass on the nearest hypothesis.  Invalid pixels (NaN
    or <= 0 GT) get an all-zero row and valid=False.  A gamma so large
    that gamma * |s_m - d| overflows for every hypothesis of a valid
    pixel is a ValueError: that row would be NaN.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be a finite number > 0, got {gamma}")
    d = np.asarray(gt, dtype=np.float64)
    valid = valid_mask(d)
    with np.errstate(over="ignore"):
        dist = gamma * np.abs(hyp.values - np.where(valid, d, hyp.d_min)[..., None])
    # the contiguous any() first: the row test runs along the short axis
    if np.isinf(dist).any() and np.isinf(dist).all(axis=-1).any():
        raise ValueError(
            f"gamma {gamma} is too large: gamma * |s - d| overflows for every hypothesis of a pixel"
        )
    y = softmax_volume(-dist)
    y[~valid] = 0.0
    return SoftLabelVolume(values=y, valid=valid)


def softmax_volume(z) -> np.ndarray:
    """Stable softmax along the last axis, at ``z``'s float precision.

    Rows sum to 1 within a few units of that precision's last place:
    about 1e-15 for float64, 1e-6 for float32.  ``exp`` and the divide
    run in the shifted array, the one new array; ``z`` is only read.
    """
    zz = float_array(z)
    e = zz - zz.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def bilinear_bin_weights(hyp: DepthHypotheses, depth):
    """Lower bin index and its weight for depths inside the grid.

    A depth d with s_lo <= d <= s_hi gets weight (s_hi-d)/(s_hi-s_lo)
    on the lower bin and the remainder on the upper one; a depth equal
    to a hypothesis puts full weight there.  Caller must pre-filter
    depths to [d_min, d_max].

    Returns (lo, w_lo) with lo in [0, M-2].
    """
    d = np.asarray(depth, dtype=np.float64)
    s = hyp.values
    lo = np.searchsorted(s, d, side="right") - 1
    lo = np.clip(lo, 0, hyp.m - 2)
    width = s[lo + 1] - s[lo]
    w_lo = (s[lo + 1] - d) / width
    return lo, np.clip(w_lo, 0.0, 1.0)
