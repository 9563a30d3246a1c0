"""Training losses and their analytic gradients.

Three terms drive training:

* depth_l1              — L1 on the decoded depth.
* soft_label_l1         — L1 between the predicted distribution and the
                          distance-shaped soft target.
* ranking_loss_variants — hinge on pairs of pixels: the uncertainty gap
                          must cover the (gradient-detached) error gap.
                          ``no-max`` drops the hinge, ``l1-direct``
                          matches uncertainty to error by value.

The total is the auto-weighted sum  sum_i L_i * exp(-sigma_i) + sigma_i
with learned sigma_i.  ``full_backward`` runs the whole chain from
either head's output z, raw scale a and the sigmas to the total, and
returns exact gradients for all of them (softmax Jacobian applied in
closed form).
Gradients here are the reference the trainer consumes; every one is
checked against central finite differences in the test suite.

Reduction is ``mean`` over valid pixels by default; ``sum`` is kept as
a flag.  L1 subgradients use sign(0) := 0, the hinge uses 0 at its kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DEFAULT_GAMMA, DepthHypotheses, SoftLabelVolume, soft_labels, softmax_volume
from .gridio import valid_mask
from .uncertainty import PROB_FLOOR, sigmoid, softplus

RANKING_VARIANTS = ("hinge", "no-max", "l1-direct")


@dataclass(frozen=True)
class LossWeights:
    """Learned log-variance weights of the three loss terms."""

    sigma_r: float = 0.0
    sigma_p: float = 0.0
    sigma_u: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_r, self.sigma_p, self.sigma_u], dtype=np.float64)

    @staticmethod
    def from_array(arr) -> "LossWeights":
        r, p, u = (float(v) for v in arr)
        return LossWeights(r, p, u)


@dataclass(frozen=True)
class PairPermutation:
    """Bijection over the valid-pixel vector used to build ranking pairs."""

    perm: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("permutation must be 1-D")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("not a bijection over valid pixels")
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return self.perm.size


def draw_permutation(n_valid: int, seed: int) -> PairPermutation:
    """Seeded random bijection over ``n_valid`` pixels."""
    rng = np.random.default_rng(seed)
    return PairPermutation(rng.permutation(int(n_valid)), seed=int(seed))


@dataclass
class LossValue:
    """A single loss term: scalar value, gradient, pre-reduction terms."""

    value: float
    grad: np.ndarray
    terms: np.ndarray


def _reduction_weight(n_valid: int, reduction: str) -> float:
    if reduction == "mean":
        return 1.0 / n_valid
    if reduction == "sum":
        return 1.0
    raise ValueError(f"unknown reduction {reduction!r}")


def _resolve_mask(shape, gt, mask):
    if mask is None:
        mask = valid_mask(gt)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != {shape}")
    return mask


def depth_l1(pred, gt, mask=None, reduction: str = "mean") -> LossValue:
    """L1 between decoded and true depth over valid pixels.

    Gradient wrt pred is sign(pred-gt) scaled by the reduction weight.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    mask = _resolve_mask(pred.shape, gt, mask)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    w = _reduction_weight(n, reduction)
    diff = np.where(mask, pred - gt, 0.0)
    terms = np.abs(diff[mask])
    grad = np.sign(diff) * w
    return LossValue(value=float(terms.sum() * w), grad=grad, terms=terms)


def soft_label_l1(vol, labels, mask=None, reduction: str = "mean") -> LossValue:
    """Per-pixel L1 between probability rows and soft-label rows.

    ``labels`` may be a SoftLabelVolume (its validity mask is used when
    ``mask`` is None) or a plain array.  Gradient is wrt the probability
    volume.
    """
    p = np.asarray(vol, dtype=np.float64)
    if isinstance(labels, SoftLabelVolume):
        y = labels.values
        if mask is None:
            mask = labels.valid
    else:
        y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    if mask is None:
        mask = np.ones(p.shape[:-1], dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != p.shape[:-1]:
        raise ValueError(f"mask shape {mask.shape} != {p.shape[:-1]}")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    w = _reduction_weight(n, reduction)
    diff = y - p
    terms = np.abs(diff[mask]).sum(axis=-1)
    grad = np.where(mask[..., None], -np.sign(diff) * w, 0.0)
    return LossValue(value=float(terms.sum() * w), grad=grad, terms=terms)


def _ranking_core(r: np.ndarray, u: np.ndarray, perm: np.ndarray, variant: str, w: float):
    """Value, per-pair terms and du-gradient on the valid-pixel vectors.

    The error branch is a constant (stop-gradient): only u and its
    shuffled partner receive gradient.
    """
    if variant == "l1-direct":
        # pairs unused: match uncertainty to error by value
        diff = r - u
        terms = np.abs(diff)
        gu = -np.sign(diff) * w
        return terms, float(terms.sum() * w), gu
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    margin = (r - r[perm]) - (u - u[perm])
    if variant == "hinge":
        active = (margin > 0.0).astype(np.float64)
        terms = np.maximum(margin, 0.0)
        # u_k enters its own pair with -1 and its inverse partner's with +1
        gu = w * (-active + active[inv])
        return terms, float(terms.sum() * w), gu
    if variant == "no-max":
        # signed differences; the symmetric +-1 contributions cancel over a
        # bijection, leaving a zero gradient (and a telescoping zero sum)
        ones = np.ones_like(margin)
        gu = w * (-ones + ones[inv])
        return margin, float(margin.sum() * w), gu
    raise ValueError(f"unknown ranking variant {variant!r}, want one of {RANKING_VARIANTS}")


def ranking_loss_variants(
    err,
    unc,
    perm: PairPermutation,
    variant: str = "hinge",
    mask=None,
    reduction: str = "mean",
) -> LossValue:
    """Pairwise uncertainty-ordering loss; gradient is wrt ``unc``."""
    r = np.asarray(err, dtype=np.float64)
    u = np.asarray(unc, dtype=np.float64)
    if r.shape != u.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {u.shape}")
    if mask is None:
        mask = np.ones(r.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    if perm.n != n:
        raise ValueError(f"permutation covers {perm.n} pixels, mask has {n}")
    w = _reduction_weight(n, reduction)
    terms, value, gu = _ranking_core(r[mask], u[mask], perm.perm, variant, w)
    grad = np.zeros_like(u)
    grad[mask] = gu
    return LossValue(value=value, grad=grad, terms=terms)


def auto_weighted_total(values, weights: LossWeights):
    """Auto-weighted total and its sigma gradients.

    total = sum_i v_i * exp(-sigma_i) + sigma_i
    d/dsigma_i = -v_i * exp(-sigma_i) + 1
    """
    v = np.asarray(values, dtype=np.float64)
    sig = weights.as_array() if isinstance(weights, LossWeights) else np.asarray(weights, dtype=np.float64)
    if v.shape != sig.shape:
        raise ValueError(f"{v.size} values vs {sig.size} weights")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(sig))):
        raise ValueError("non-finite inputs")
    ew = np.exp(-sig)
    total = float((v * ew + sig).sum())
    grad_sigma = -v * ew + 1.0
    return total, grad_sigma


def softmax_backward(p: np.ndarray, grad_p: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back through the softmax.

    dL/dz_k = p_k * (g_k - sum_m g_m p_m), rows independent.
    """
    dot = (grad_p * p).sum(axis=-1, keepdims=True)
    return p * (grad_p - dot)


def clamped_entropy_parts(p: np.ndarray):
    """Entropy per row plus d(entropy)/dp under the probability floor.

    The value uses ln(max(p, floor)), so for p <= floor the term is
    linear in p and its exact derivative is ln(floor); above the floor
    it is ln(p) + 1.  Returning the true derivative of the computed
    value keeps finite differences honest.
    """
    logp = np.log(np.clip(p, PROB_FLOOR, None))
    h = -(p * logp).sum(axis=-1)
    dh_dp = -(logp + (p > PROB_FLOOR))
    return h, dh_dp


@dataclass
class LossReport:
    """Values of the three terms, the weighted total, and all gradients."""

    value_r: float
    value_p: float
    value_u: float
    total: float
    grad_z: np.ndarray
    grad_a: float
    grad_sigma: np.ndarray
    alpha: float
    active: tuple[bool, bool, bool]
    n_valid: int
    grad_readout: np.ndarray | None = None  # latent readout, regression only

    def values(self) -> np.ndarray:
        return np.array([self.value_r, self.value_p, self.value_u], dtype=np.float64)

    def row(self) -> dict:
        """Flat numeric view for CSV training logs."""
        return {
            "loss_depth": self.value_r,
            "loss_soft": self.value_p,
            "loss_rank": self.value_u,
            "total": self.total,
            "alpha": self.alpha,
        }


def full_backward(
    z,
    a: float,
    sigma,
    hyp: DepthHypotheses,
    gt,
    perm: PairPermutation | None,
    gamma: float = DEFAULT_GAMMA,
    include_soft: bool = True,
    ranking: str | None = "hinge",
    mask=None,
    reduction: str = "mean",
    readout=None,
) -> LossReport:
    """Forward + exact backward for the whole loss of either head.

    Depth is softmax(z) @ hyp.values for classification logits, or
    z @ readout for a regression latent (whose gradient is reported);
    the uncertainty is the scaled entropy of softmax(z) either way.  The
    auto-weighted total yields gradients wrt z (through the softmax
    Jacobian), the raw scale a (through softplus), and the sigmas.
    ``include_soft=False`` or ``ranking=None`` drop terms from the
    total entirely (their sigma stops moving too).
    """
    z = np.asarray(z, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if z.shape[:-1] != gt.shape:
        raise ValueError(f"logit pixels {z.shape[:-1]} vs gt {gt.shape}")
    if readout is None:
        if z.shape[-1] != hyp.m:
            raise ValueError(f"logit bins {z.shape[-1]} vs hypotheses {hyp.m}")
    else:
        readout = np.asarray(readout, dtype=np.float64)
        if readout.shape != z.shape[-1:]:
            raise ValueError(f"latent size {z.shape[-1]} vs readout {readout.shape}")
        if include_soft:
            raise ValueError("the soft-label term needs the classification head")
    sig = sigma.as_array() if isinstance(sigma, LossWeights) else np.asarray(sigma, dtype=np.float64)
    if sig.shape != (3,):
        raise ValueError("sigma must hold 3 weights")
    mask = _resolve_mask(gt.shape, gt, mask)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    if ranking in ("hinge", "no-max"):
        if perm is None:
            raise ValueError("ranking variant needs a pair permutation")
        if perm.n != n:
            raise ValueError(f"permutation covers {perm.n} pixels, mask has {n}")
    elif ranking not in (None, "l1-direct"):
        raise ValueError(f"unknown ranking variant {ranking!r}")

    w = _reduction_weight(n, reduction)
    alpha = float(softplus(a))

    if readout is None:
        pv = softmax_volume(z)[mask]
        depth = pv @ hyp.values
    else:
        zv = z[mask]
        depth = zv @ readout
        # softmax(z) feeds only the entropy of the ranking term
        pv = softmax_volume(z)[mask] if ranking is not None else None
    gv = gt[mask]
    resid = depth - gv
    value_r = float(np.abs(resid).sum() * w)

    active = [True, include_soft, ranking is not None]
    ew = np.exp(-sig)

    # d(weighted depth term)/d(depth); the probability-space gradient
    # accumulates every term that flows through p, each already carrying
    # its exp(-sigma) weight, for one softmax pullback at the end
    grad_depth = np.sign(resid) * (w * ew[0])
    grad_p = grad_depth[:, None] * hyp.values if readout is None else None

    value_p = 0.0
    if include_soft:
        y = soft_labels(hyp, gt, gamma).values[mask]
        diff = y - pv
        value_p = float(np.abs(diff).sum() * w)
        grad_p += -np.sign(diff) * (w * ew[1])

    value_u = 0.0
    grad_a = 0.0
    if ranking is not None:
        h, dh_dp = clamped_entropy_parts(pv)
        r = np.abs(resid)  # stop-gradient branch
        u = alpha * h
        _, value_u, gu = _ranking_core(r, u, perm.perm if perm is not None else None, ranking, w)
        gu_eff = gu * ew[2]
        grad_p_u = (alpha * gu_eff)[:, None] * dh_dp
        # add in place: one more (n, M) temporary per training step
        # roughly triples the page faults of a 1024 x 16 step
        if grad_p is None:
            grad_p = grad_p_u
        else:
            grad_p += grad_p_u
        grad_a = float((gu_eff * h).sum() * sigmoid(np.float64(a)))

    grad_readout = None
    if readout is None:
        gz_valid = softmax_backward(pv, grad_p)
    else:
        gz_valid = grad_depth[:, None] * readout
        grad_readout = grad_depth @ zv
        if grad_p is not None:
            gz_valid += softmax_backward(pv, grad_p)
    grad_z = np.zeros_like(z)
    grad_z[mask] = gz_valid

    values = np.array([value_r, value_p, value_u])
    act = np.array(active)
    total = float(((values * ew + sig) * act).sum())
    grad_sigma = np.where(act, -values * ew + 1.0, 0.0)

    return LossReport(
        value_r=value_r,
        value_p=value_p,
        value_u=value_u,
        total=total,
        grad_z=grad_z,
        grad_a=grad_a,
        grad_sigma=grad_sigma,
        alpha=alpha,
        active=tuple(active),
        n_valid=n,
        grad_readout=grad_readout,
    )
