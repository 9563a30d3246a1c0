"""Training losses and their analytic gradients.

Three terms drive training:

* depth_l1              — L1 on the decoded depth.
* soft_label_l1         — L1 between the predicted distribution and the
                          distance-shaped soft target.
* ranking_loss_variants — hinge on pairs of pixels: the uncertainty gap
                          must cover the (gradient-detached) error gap.
                          ``no-max`` drops the hinge, ``l1-direct``
                          matches uncertainty to error by value.

``auto_weighted_total`` combines them as  sum_i L_i * exp(-sigma_i) + sigma_i
with learned sigma_i.  Each term function takes valid-pixel vectors and
returns its mean over those pixels with the exact gradient, so each
term's math exists once.  ``full_backward`` composes the four on one
row of z per valid pixel of a GT map's ``loss_targets`` (the caller
applies the mask once, where its features enter the step), scales each
term's gradient by its exp(-sigma) weight, and pulls the
probability-space gradient back through the softmax in closed form,
giving exact gradients wrt either head's output z, the raw scale a and
the sigmas.
``_decode`` is the one decode of a head's output into softmax(z) and
depth: ``head_forward``, which evaluation runs, adds the uncertainty,
and ``full_backward`` runs it on the valid pixels.  Every gradient is
checked against central finite differences of ``head_forward`` by
``gradcheck``, so the suite checks the decode that training runs.

Memory layout.  NumPy runs a row reduction or broadcast along the axis
that is contiguous in memory, and a row sum's bits depend on that
order, so the math here follows its input's layout.  A C-ordered
(..., M) input, as ``eval``, ``combine`` and ``gradcheck`` pass, gets
the pixel-major loops and their pairwise row sums.  The training step
holds its arrays bins-first, (M, pixels) and (hidden, pixels) in
memory, and passes (pixels, M) views: every row reduction is then a
sum of M contiguous pixel vectors, several times faster, and rounds
differently in the last bits.  Arrays made here copy z's layout
(``np.empty_like``), since one C-ordered operand sends a whole
expression to the slow loops.  The ``loss_targets`` labels are
bins-first for every caller; against a C-ordered z NumPy works in C
order, so such a caller keeps its bits.

Precision.  The math here follows its input's dtype too, by one rule
(``discretize.float_array``): a float32 or float64 array keeps its
dtype, anything else becomes float64.  The toy model trains in
float32, the precision its checkpoints store; ``eval``, ``combine``
and ``gradcheck`` pass float64 and keep their bits.  One float64
operand sends a whole float32 expression back to float64, so the
scalars that meet these arrays (the exp(-sigma) weights, alpha, 1/n)
are Python floats, which NumPy treats as "weak" and casts to the
array's dtype, and the hypothesis vector is cast to the array's dtype
where the two meet.

L1 subgradients use sign(0) := 0, the hinge uses 0 at its kink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import DepthHypotheses, expectation_depth, float_array, soft_labels, softmax_volume
from .gridio import valid_mask
from .uncertainty import clamped_entropy, clamped_entropy_parts, sigmoid, softplus

RANKING_VARIANTS = ("hinge", "no-max", "l1-direct")


class NonFiniteLossError(ValueError):
    """The auto-weighted total is inf or NaN; in training, a divergence."""


@dataclass(frozen=True)
class PairPermutation:
    """Bijection over the valid-pixel vector used to build ranking pairs.

    ``inverse`` is its inverse, ``perm[inverse] == arange(n)``, built
    once by the bijection check.  Both are read-only views: the runs of
    one ``toytrain.train`` call share each step's permutation.
    """

    perm: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("permutation must be 1-D")
        # O(n): range first, since a negative index would wrap in the
        # scatter ([0, -1, 1] would fill every slot), then the scatter of
        # the positions; a slot left at -1 means a repeated entry
        inverse = np.full(perm.size, -1, dtype=np.int64)
        if not np.any((perm < 0) | (perm >= perm.size)):
            inverse[perm] = np.arange(perm.size)
        if np.any(inverse < 0):
            raise ValueError("not a bijection over valid pixels")
        object.__setattr__(self, "perm", read_only(perm))
        object.__setattr__(self, "inverse", read_only(inverse))

    @property
    def n(self) -> int:
        return self.perm.size


def draw_permutation(n_valid: int, seed: int) -> PairPermutation:
    """Seeded random bijection over ``n_valid`` pixels."""
    rng = np.random.default_rng(seed)
    return PairPermutation(rng.permutation(int(n_valid)))


@dataclass
class LossValue:
    """A single loss term: its mean over valid pixels and the gradient."""

    value: float
    grad: np.ndarray


def _mean_weight(n_valid: int) -> float:
    if n_valid == 0:
        raise ValueError("no valid pixels")
    return 1.0 / n_valid


def read_only(a) -> np.ndarray:
    """A read-only view of ``a``; the caller's own array keeps its flags."""
    view = np.asarray(a).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class LossTargets:
    """What the loss terms compare one GT map against; see ``loss_targets``.

    The arrays are read-only views: every training step of every run
    of one ``toytrain.train`` call shares one set per scene.
    """

    mask: np.ndarray  # finite, positive GT pixels
    gt: np.ndarray  # the valid GT vector, in gt[mask] order
    labels: np.ndarray | None  # (n, M) view of bins-first rows, None with the term off

    def __post_init__(self):
        for name in ("mask", "gt", "labels"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.gt.size


def loss_targets(hyp: DepthHypotheses, gt, gamma: float | None, dtype=np.float64) -> LossTargets:
    """Valid-GT mask, valid GT vector and soft labels; no labels for ``gamma=None``.

    All three depend on the GT, the hypotheses and gamma, never on the
    weights, so ``toytrain.train`` builds them once per scene, and the
    labels always belong to this mask and one gamma.  The labels are
    ``soft_labels``' rows, computed in float64 and copied bins-first at
    ``dtype`` (the precision of the model they train; see the module
    docstring), so at float64 they are those rows bit for bit.  The GT
    vector is stored at ``dtype`` too.  Raises ValueError when no pixel
    is valid.
    """
    gt = np.asarray(gt, dtype=np.float64)
    mask = valid_mask(gt)
    gv = gt[mask]
    if gv.size == 0:
        raise ValueError("no valid pixels")
    labels = None
    if gamma is not None:
        labels = soft_labels(hyp, gv, gamma).values.T.astype(dtype, order="C").T
    return LossTargets(mask=mask, gt=gv.astype(dtype, copy=False), labels=labels)


def depth_l1(pred, gt) -> LossValue:
    """Mean L1 between decoded and true depth on valid-pixel vectors.

    Gradient wrt pred is sign(pred-gt) / n.
    """
    pred = float_array(pred)
    gt = float_array(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    w = _mean_weight(pred.size)
    resid = pred - gt
    return LossValue(value=float(np.abs(resid).sum() * w), grad=np.sign(resid) * w)


def soft_label_l1(probs, labels) -> LossValue:
    """Mean per-pixel L1 between (n, M) probability and soft-label rows.

    Gradient is wrt the probability rows.
    """
    p = float_array(probs)
    y = float_array(labels)
    if p.ndim != 2 or p.shape != y.shape:
        raise ValueError(f"want matching (n, M) rows, got {p.shape} vs {y.shape}")
    w = _mean_weight(p.shape[0])
    diff = y - p
    value = float(np.abs(diff).sum() * w)
    # the gradient reuses diff's buffer: a training step allocates one
    # (n, M) array fewer
    grad = np.sign(diff, out=diff)
    grad *= -w
    return LossValue(value=value, grad=grad)


def ranking_loss_variants(err, unc, perm: PairPermutation | None, variant: str = "hinge") -> LossValue:
    """Mean pairwise uncertainty-ordering loss on valid-pixel vectors.

    The gradient is wrt ``unc``; the error branch is a constant
    (stop-gradient).  ``l1-direct`` uses no pairs, so ``perm`` may be None.
    """
    r = float_array(err)
    u = float_array(unc)
    if r.shape != u.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {u.shape}")
    w = _mean_weight(r.size)
    if variant == "l1-direct":
        # pairs unused: match uncertainty to error by value
        diff = r - u
        return LossValue(value=float(np.abs(diff).sum() * w), grad=-np.sign(diff) * w)
    if variant not in RANKING_VARIANTS:
        raise ValueError(f"unknown ranking variant {variant!r}, want one of {RANKING_VARIANTS}")
    if perm is None:
        raise ValueError("ranking variant needs a pair permutation")
    if perm.n != r.size:
        raise ValueError(f"permutation covers {perm.n} pixels, the vectors {r.size}")
    margin = (r - r[perm.perm]) - (u - u[perm.perm])
    if variant == "no-max":
        # signed differences: the -1 and +1 each u_k gets from its two
        # pairs cancel over a bijection, and the sum telescopes to zero
        return LossValue(value=float(margin.sum() * w), grad=np.zeros_like(u))
    active = (margin > 0.0).astype(u.dtype)
    # u_k enters its own pair with -1 and its inverse partner's with +1
    return LossValue(
        value=float(np.maximum(margin, 0.0).sum() * w), grad=w * (-active + active[perm.inverse])
    )


def auto_weighted_total(values, sigma, active=True):
    """Auto-weighted total and its sigma gradients.

    total = sum_i active_i * (v_i * exp(-sigma_i) + sigma_i)
    d/dsigma_i = -v_i * exp(-sigma_i) + 1 for active terms, else 0.
    Raises NonFiniteLossError when the total is not finite.
    """
    v = np.asarray(values, dtype=np.float64)
    sig = np.asarray(sigma, dtype=np.float64)
    if v.shape != sig.shape:
        raise ValueError(f"{v.size} values vs {sig.size} weights")
    act = np.asarray(active, dtype=bool)
    ew = np.exp(-sig)
    total = float(((v * ew + sig) * act).sum())
    if not np.isfinite(total):
        raise NonFiniteLossError(f"non-finite loss total (values {v}, sigmas {sig})")
    return total, np.where(act, -v * ew + 1.0, 0.0)


def softmax_backward(p: np.ndarray, grad_p: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back through the softmax.

    dL/dz_k = p_k * (g_k - sum_m g_m p_m), rows independent.  The
    result is the one new (..., M) array besides the row dots; neither
    input is written.
    """
    dot = (grad_p * p).sum(axis=-1, keepdims=True)
    grad_z = grad_p - dot
    grad_z *= p
    return grad_z


def _decode(z, hyp: DepthHypotheses, readout):
    """softmax(z) and the depth of either head, row by row.

    Classification: the expectation of softmax(z) over ``hyp``, clipped
    to its range (the clip trims round-off; the backward passes through
    it).  Regression: z @ readout, softmax(z) the pseudo distribution.
    """
    p = softmax_volume(z)
    depth = expectation_depth(hyp, p) if readout is None else float_array(z) @ readout
    return p, depth


def head_forward(z, a, hyp: DepthHypotheses, readout=None):
    """Depth, uncertainty and softmax(z) decoded from either head's output.

    ``_decode`` plus softplus(a) times the floor-clamped entropy of
    softmax(z).  Evaluation scores it; ``gradcheck`` differentiates it.
    """
    p, depth = _decode(z, hyp, readout)
    return depth, float(softplus(np.float64(a))) * clamped_entropy(p), p


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


def full_backward(
    z,
    a: float,
    sigma,
    hyp: DepthHypotheses,
    targets: LossTargets,
    perm: PairPermutation | None,
    ranking: str | None = "hinge",
    readout=None,
) -> LossReport:
    """Forward + exact backward for the whole loss of either head.

    z holds one row per valid pixel of ``targets``, shape (targets.n, M)
    in ``targets.gt`` order: the caller applies the GT mask where its
    features enter the step.  Those rows go through ``head_forward``'s
    ``_decode``: classification logits, or a regression latent whose
    readout gradient is reported.  The uncertainty is the scaled entropy
    of softmax(z) for both heads.  The auto-weighted total of the term
    functions yields gradients wrt z (through the softmax Jacobian, in
    z's shape), the raw scale a (through softplus), and the sigmas.
    Targets without soft labels, or ``ranking=None``, drop that term
    from the total entirely (its sigma stops moving too).
    """
    z = float_array(z)
    if z.shape[:-1] != targets.gt.shape:
        raise ValueError(f"logit rows {z.shape[:-1]} vs targets {targets.gt.shape}")
    include_soft = targets.labels is not None
    if readout is None:
        if z.shape[-1] != hyp.m:
            raise ValueError(f"logit bins {z.shape[-1]} vs hypotheses {hyp.m}")
    else:
        readout = float_array(readout)
        if readout.shape != z.shape[-1:]:
            raise ValueError(f"latent size {z.shape[-1]} vs readout {readout.shape}")
        if include_soft:
            raise ValueError("the soft-label term needs the classification head")
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.shape != (3,):
        raise ValueError("sigma must hold 3 weights")

    alpha = float(softplus(a))
    ew = np.exp(-sig).tolist()  # Python floats: they keep z's dtype

    pv, depth = _decode(z, hyp, readout)

    # d(weighted depth term)/d(depth); the probability-space gradient
    # accumulates every term that flows through p, each scaled in place
    # by its exp(-sigma) weight, for one softmax pullback at the end
    depth_term = depth_l1(depth, targets.gt)
    grad_depth = depth_term.grad
    grad_depth *= ew[0]
    grad_p = None
    if readout is None:
        values = hyp.values.astype(pv.dtype, copy=False)
        grad_p = np.multiply(grad_depth[:, None], values, out=np.empty_like(pv))

    value_p = 0.0
    if include_soft:
        soft = soft_label_l1(pv, targets.labels)
        value_p = soft.value
        soft.grad *= ew[1]
        grad_p += soft.grad

    value_u = 0.0
    grad_a = 0.0
    if ranking is not None:
        h, dh_dp = clamped_entropy_parts(pv)
        err = np.abs(depth - targets.gt)  # the error branch, a constant to the gradient
        rank = ranking_loss_variants(err, alpha * h, perm, ranking)
        value_u = rank.value
        gu_eff = rank.grad * ew[2]
        # dh_dp is this step's own array: scale it and add it in place
        dh_dp *= (alpha * gu_eff)[:, None]
        if grad_p is None:
            grad_p = dh_dp
        else:
            grad_p += dh_dp
        grad_a = float((gu_eff * h).sum() * sigmoid(np.float64(a)))

    grad_readout = None
    if readout is None:
        grad_z = softmax_backward(pv, grad_p)
    else:
        grad_z = np.multiply(grad_depth[:, None], readout, out=np.empty_like(pv))
        grad_readout = grad_depth @ z
        if grad_p is not None:
            grad_z += softmax_backward(pv, grad_p)

    active = (True, include_soft, ranking is not None)
    total, grad_sigma = auto_weighted_total(
        [depth_term.value, value_p, value_u], sig, active
    )
    return LossReport(
        value_r=depth_term.value,
        value_p=value_p,
        value_u=value_u,
        total=total,
        grad_z=grad_z,
        grad_a=grad_a,
        grad_sigma=grad_sigma,
        alpha=alpha,
        active=active,
        n_valid=targets.n,
        grad_readout=grad_readout,
    )
