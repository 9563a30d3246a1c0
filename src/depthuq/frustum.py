"""Probability-frustum voxelization and novel-view rendering.

The per-pixel depth distribution lives on hypothesis planes of a
pinhole frustum.  Each probability sample is unprojected to 3-D,
splatted with trilinear weights into a sparse voxel grid as opacity
(colors carried from the source image along the ray), and the grid is
volume-rendered from arbitrary poses with front-to-back
emission-absorption compositing.

Voxel bounds are padded by half a cell around the sample cloud, so
every sample keeps its full 8-neighbor stencil in-grid and splat mass
is conserved exactly; samples on the cloud hull land exactly on voxel
centers.  The splat and the ray march share one low-corner routine and
one trilinear corner stencil over flat voxel indices: the splat
scatters through it, into accumulators over only the voxels it touches,
and the march gathers through it.  Every per-sample quantity is one
array per axis or per color channel.  On the hypothesis planes a
sample's X depends only on its column and plane, its Y on its row and
plane, its Z on its plane and its color on its pixel, so the splat's
geometry and colors run on small arrays; only the flat low corner and
the corner weights are broadcast to every sample.  The march reads the
stencil only where a per-render occupancy map, alpha > 0 dilated by
one cell, says that some corner holds alpha; every sample position is
still visited, so skipping empty cells does not change the image.

The march advances every live ray by ``MARCH_BLOCK`` samples per pass.
Sample positions come from a sequential ``cumsum`` of the step, so they
are exactly those of repeated ``t += step``; transmittance is a running
product over the block, and color is added one compositing sample at a
time in march order, so the image does not depend on the block length.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discretize import DepthHypotheses, bilinear_bin_weights, check_probabilities
from .gridio import MAX_ELEMENTS, keyvalue_numbers, read_grid, read_keyvalue, valid_mask, write_grid, write_keyvalue

ALPHA_EPSILON = 1e-4
DEFAULT_RESOLUTION = 96
DEFAULT_MIN_TRANSMITTANCE = 1e-3
ORTHONORMAL_TOL = 1e-9
MARCH_BLOCK = 16  # samples per ray per pass of the ray march
MAX_AXIS = 2**24 + 1  # voxel indices up to 2**24 are exact in float32 .duv storage


@dataclass(frozen=True)
class Pinhole:
    """Intrinsics: focal length in pixels, principal point, extents."""

    f: float
    cx: float
    cy: float
    h: int
    w: int

    def __post_init__(self):
        # "all inside" checks, so that NaN fails too
        if not (0.0 < self.f < np.inf):
            raise ValueError(f"focal length must be a finite number > 0, got {self.f}")
        if self.h < 1 or self.w < 1:
            raise ValueError(f"bad image extents {self.h}x{self.w}")
        if not (0.0 <= self.cx <= self.w - 1 and 0.0 <= self.cy <= self.h - 1):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside {self.h}x{self.w} image"
            )


def centered_pinhole(h: int, w: int, f: float) -> Pinhole:
    return Pinhole(f=f, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0, h=h, w=w)


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rigid transform; translation is the center."""

    rotation: np.ndarray  # 3x3, orthonormal, det +1
    translation: np.ndarray  # 3

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("non-finite pose")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"rotation not orthonormal (|R'R - I| = {err:.2e})")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


def identity_pose() -> CameraPose:
    return CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def orbit_pose(target, radius: float, azimuth: float, elevation: float = 0.0) -> CameraPose:
    """Camera on a sphere around ``target``, optical axis aimed at it."""
    target = np.asarray(target, dtype=np.float64)
    if not (0.0 < radius < np.inf):
        raise ValueError(f"orbit radius must be a finite number > 0, got {radius}")
    if not np.all(np.isfinite([azimuth, elevation, *target])):
        raise ValueError(f"orbit angles and target must be finite, got azimuth {azimuth}, elevation {elevation}, target {target.tolist()}")
    ce, se = np.cos(elevation), np.sin(elevation)
    ca, sa = np.cos(azimuth), np.sin(azimuth)
    offset = radius * np.array([ce * sa, -se, -ce * ca])
    center = target + offset
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, -1.0, 0.0])  # image y runs down
    right = np.cross(up, fwd)
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        up = np.array([0.0, 0.0, 1.0])
        right = np.cross(up, fwd)
        nr = np.linalg.norm(right)
    right = right / nr
    true_up = np.cross(fwd, right)
    r = np.stack([right, -true_up, fwd], axis=1)
    if np.linalg.det(r) < 0:
        r[:, 0] = -r[:, 0]
    # re-orthonormalize against accumulated rounding
    u, _, vt = np.linalg.svd(r)
    r = u @ vt
    return CameraPose(rotation=r, translation=center)


def _camera_axes(cam: Pinhole, h, w, depth):
    """X, Y and Z of ``unproject``, each broadcast only over what it reads.

    X = (w - cx) * depth / f reads (w, depth), Y = (h - cy) * depth / f
    reads (h, depth) and Z = depth.
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if not np.all(depth > 0):
        raise ValueError("depth must be > 0")
    return (w - cam.cx) * depth / cam.f, (h - cam.cy) * depth / cam.f, depth


def unproject(cam: Pinhole, h, w, depth):
    """Pixel plus depth to camera-frame 3-D point(s).

    X = (w - cx) * depth / f, Y = (h - cy) * depth / f, Z = depth.
    Broadcasts over arrays; the last axis of the result holds (X, Y, Z).
    """
    x, y, z = _camera_axes(cam, h, w, depth)
    return np.stack([x, y, np.broadcast_to(z, x.shape)], axis=-1)


def _check_resolution(resolution) -> tuple[int, int, int]:
    """Three axis lengths in [2, ``MAX_AXIS``], at most ``MAX_ELEMENTS`` voxels (``.duv`` bounds)."""
    res = tuple(int(n) for n in resolution)
    if len(res) != 3 or any(n < 2 for n in res):
        raise ValueError(f"resolution must be >= 2 per axis, got {res}")
    count = math.prod(res)  # Python ints: the product cannot wrap
    if count > MAX_ELEMENTS:
        raise ValueError(f"resolution {res} has {count} voxels, more than {MAX_ELEMENTS}")
    for axis, n in zip("xyz", res):
        if n > MAX_AXIS:
            raise ValueError(f"resolution {res}: axis {axis} has {n} cells, more than {MAX_AXIS}")
    return res


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Axis-aligned sparse opacity grid with per-voxel color.

    Only voxels with alpha above the sparsity threshold are stored, each
    index at most once (a repeat is a ValueError).  ``deposited_mass``
    records the total splat mass before clamping, for conservation
    checks.
    """

    lo: np.ndarray  # 3, meters
    hi: np.ndarray  # 3
    resolution: tuple[int, int, int]
    indices: np.ndarray  # K x 3 int
    alpha: np.ndarray  # K in (eps, 1]
    color: np.ndarray  # K x 3 in [0, 1]
    deposited_mass: float = 0.0

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, 3)
        alpha = np.asarray(self.alpha, dtype=np.float64).ravel()
        color = np.asarray(self.color, dtype=np.float64).reshape(-1, 3)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("bounds must be 3-vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(hi <= lo):
            raise ValueError("upper bound must exceed lower bound")
        res = _check_resolution(self.resolution)
        if not (idx.shape[0] == alpha.shape[0] == color.shape[0]):
            raise ValueError("index/alpha/color row counts differ")
        if idx.size and (np.any(idx < 0) or np.any(idx >= np.array(res))):
            raise ValueError("voxel index outside resolution")
        seen = np.zeros(math.prod(res), dtype=bool)  # unsorted duplicate check
        seen[np.ravel_multi_index(tuple(idx.T), res)] = True
        if np.count_nonzero(seen) != idx.shape[0]:
            raise ValueError("duplicate voxel index")
        # written as "all inside" so that NaN fails too
        if not np.all((alpha > ALPHA_EPSILON) & (alpha <= 1.0)):
            raise ValueError(f"stored alphas must lie in ({ALPHA_EPSILON}, 1]")
        if not np.all((color >= 0.0) & (color <= 1.0)):
            raise ValueError("colors must lie in [0, 1]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "color", color)

    @property
    def n_voxels(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def cell(self) -> np.ndarray:
        return (self.hi - self.lo) / np.array(self.resolution, dtype=np.float64)

    @property
    def voxel_size(self) -> float:
        """Isotropic reference length: cube root of the cell volume."""
        return float(np.prod(self.cell) ** (1.0 / 3.0))

    def dense(self):
        """Raveled dense alpha and (3, voxels) premultiplied color.

        Both are indexed by flat voxel index, as the ray march reads them;
        each color channel is one contiguous voxel array.
        """
        a = np.zeros(math.prod(self.resolution))
        pm = np.zeros((3, a.size))
        flat = np.ravel_multi_index(tuple(self.indices.T), self.resolution)
        a[flat] = self.alpha
        for ch in range(3):
            pm[ch][flat] = self.alpha * self.color[:, ch]
        return a, pm


def _frame_bounds(axes, res: np.ndarray):
    """Half-cell padded bounds: cloud hull points sit on voxel centers.

    ``axes`` holds the samples' X, Y and Z coordinates, one array each.
    """
    plo = np.array([x.min() for x in axes])
    phi = np.array([x.max() for x in axes])
    span = phi - plo
    cell = np.where(span > 0, span / np.maximum(res - 1, 1), 1.0)
    lo = plo - cell / 2.0
    hi = lo + res * cell
    return lo, hi


def _lattice_corner(g: np.ndarray, n):
    """Clamp-to-edge low corner of center-lattice coordinates ``g``.

    ``n`` is the axis length.  Returns the corner as an integral float
    and the fraction past it.  The corner is clamped to n - 2, so its +1
    neighbor is always in-grid.
    """
    frac = np.clip(g, 0.0, n - 1.0)  # guards float spill at the hull
    i0 = np.floor(frac)
    np.minimum(i0, n - 2.0, out=i0)  # keep the +1 corner addressable
    frac -= i0
    return i0, frac


def _low_corner(g, res: np.ndarray):
    """Flat low corners and X, Y and Z fractions of center-lattice coordinates.

    ``g`` holds one coordinate array per axis; they broadcast to the
    points' shape, as does the returned flat index (i*ny + j)*nz + k.
    """
    i0, frac = zip(*map(_lattice_corner, g, res))
    _, ny, nz = (int(n) for n in res)
    # integral floats: exact in float64, so one int cast of the flat index
    return ((i0[0] * ny + i0[1]) * nz + i0[2]).astype(np.int64), frac


def _corners(frac, res: np.ndarray):
    """The 8 trilinear corners of points at ``frac`` past their low corner.

    ``frac`` holds the X, Y and Z fractions, one array each, which
    broadcast to the points' shape.  Yields each corner's flat offset and
    per-point weight (wx * wy) * wz, whose per-axis factors are frac or
    1 - frac.  Corners come one at a time, so temporaries stay one point
    count in size.
    """
    _, ny, nz = (int(n) for n in res)
    wx, wy, wz = ((1.0 - f, f) for f in frac)
    for ox in (0, 1):
        for oy in (0, 1):
            wxy = wx[ox] * wy[oy]
            for oz in (0, 1):
                yield (ox * ny + oy) * nz + oz, wxy * wz[oz]


def _splat(mass: np.ndarray, colors, axes, resolution) -> SparseVoxelGrid:
    """Trilinear 8-neighbor scatter of sample mass into a fresh grid.

    ``mass`` (N,) holds the N samples' masses; ``colors`` their R, G and
    B and ``axes`` their X, Y and Z, three arrays each that broadcast to
    a shape whose C-order ravel is the sample order: (N,) arrays, or
    arrays that each vary only along what they depend on.  Bounds,
    lattice coordinates and low corners are worked out on the axes; only
    the flat low corner and the corner weights take the sample shape.

    Mass accumulates only over the touched voxels: the low corners
    dilated by one cell toward the high side, numbered in flat-index
    order.  Each corner's ``bincount`` adds the same terms in the same
    order as a full-grid one, so every voxel's alpha and color are the
    same bits; ``deposited_mass`` is summed over the full grid, untouched
    voxels included, so it is too.
    """
    shape = _check_resolution([resolution] * 3 if np.isscalar(resolution) else resolution)
    res = np.array(shape, dtype=np.int64)
    if mass.shape[0] == 0:
        raise ValueError("no samples to voxelize")
    lo, hi = _frame_bounds(axes, res)
    cell = (hi - lo) / res

    g = [(x - l) / c - 0.5 for x, l, c in zip(axes, lo, cell)]  # center-lattice coordinates
    base, frac = _low_corner(g, res)
    mass = mass.reshape(base.shape)
    base = base.reshape(-1)
    n = math.prod(shape)
    touched = np.zeros(shape, dtype=bool)
    touched.reshape(-1)[base] = True
    touched[1:] |= touched[:-1]
    touched[:, 1:] |= touched[:, :-1]
    touched[:, :, 1:] |= touched[:, :, :-1]
    touched = np.flatnonzero(touched)
    k = touched.size
    compact = np.empty(n, dtype=np.int64)
    compact[touched] = np.arange(k)
    acc_a = np.zeros(k)
    acc_c = np.zeros((3, k))  # channel-major: one bincount per row
    for off, wgt in _corners(frac, res):
        key = compact[base + off]
        wgt *= mass
        acc_a += np.bincount(key, weights=wgt.reshape(-1), minlength=k)
        for acc, c in zip(acc_c, colors):
            acc += np.bincount(key, weights=(wgt * c).reshape(-1), minlength=k)

    full_a = np.zeros(n)
    full_a[touched] = acc_a
    deposited = float(full_a.sum())
    keep = np.flatnonzero(acc_a > ALPHA_EPSILON)
    idx = np.stack(np.unravel_index(touched[keep], shape), axis=1)
    raw = acc_a[keep]
    color = acc_c[:, keep].T / raw[:, None]
    return SparseVoxelGrid(
        lo=lo,
        hi=hi,
        resolution=shape,
        indices=idx,
        alpha=np.clip(raw, None, 1.0),
        color=np.clip(color, 0.0, 1.0),
        deposited_mass=deposited,
    )


def _check_image(cam: Pinhole, rgb) -> np.ndarray:
    """The checked image as three contiguous (H, W) channels; strided views slow the splat."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.shape != (cam.h, cam.w, 3):
        raise ValueError(f"image shape {rgb.shape} vs camera {cam.h}x{cam.w}x3")
    if not np.all((rgb >= 0.0) & (rgb <= 1.0)):
        raise ValueError("image colors must lie in [0, 1]")
    return np.ascontiguousarray(np.moveaxis(rgb, -1, 0))


def voxelize_prediction(
    vol, hyp: DepthHypotheses, cam: Pinhole, rgb, resolution=DEFAULT_RESOLUTION
) -> SparseVoxelGrid:
    """Splat the probability volume into frustum voxels as opacity.

    Every sample (pixel, hypothesis) is unprojected at its hypothesis
    depth and its probability deposited trilinearly; voxel color is the
    mass-weighted average of contributing source pixels.  Alphas clamp
    to [0, 1] after accumulation; ``deposited_mass`` keeps the
    pre-clamp total.  A sample's X depends only on its column and
    hypothesis, its Y on its row and hypothesis and its Z on its
    hypothesis, so ``unproject``'s formulas run on (M, 1, W), (M, H, 1)
    and (M, 1, 1) arrays; broadcast, they order the samples
    m * H * W + pixel, as the mass; the image's (H, W) channels broadcast.
    """
    vol = np.asarray(vol, dtype=np.float64)
    if vol.shape != (cam.h, cam.w, hyp.m):
        raise ValueError(f"volume shape {vol.shape} vs {(cam.h, cam.w, hyp.m)}")
    check_probabilities(vol)
    colors = _check_image(cam, rgb)

    rows, cols = np.arange(cam.h)[:, None], np.arange(cam.w)
    axes = _camera_axes(cam, rows, cols, hyp.values[:, None, None])
    return _splat(np.moveaxis(vol, -1, 0).ravel(), colors, axes, resolution)


def voxelize_ground_truth(
    gt, hyp: DepthHypotheses, cam: Pinhole, rgb, resolution=DEFAULT_RESOLUTION
):
    """Bilinear two-plane assignment of GT depth, then the splat path.

    GT depth between neighboring hypothesis planes splits its unit mass
    proportionally to plane proximity.  Pixels with invalid or
    out-of-range depth are skipped; returns (grid, skipped count).
    """
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape != (cam.h, cam.w):
        raise ValueError(f"depth shape {gt.shape} vs camera {cam.h}x{cam.w}")
    colors = _check_image(cam, rgb)

    ok = valid_mask(gt) & (gt >= hyp.d_min) & (gt <= hyp.d_max)
    skipped = int(gt.size - ok.sum())
    if not ok.any():
        raise ValueError("no in-range pixels to voxelize")
    rows, cols = np.nonzero(ok)
    lo_idx, w_lo = bilinear_bin_weights(hyp, gt[rows, cols])
    mass = np.concatenate([w_lo, 1.0 - w_lo])  # the near plane's samples, then the far plane's
    keep = mass > 0.0  # a weightless plane sample would only skew the bounds
    rows, cols = np.tile(rows, 2)[keep], np.tile(cols, 2)[keep]
    planes = np.concatenate([lo_idx, lo_idx + 1])[keep]
    axes = _camera_axes(cam, rows, cols, hyp.values[planes])
    return _splat(mass[keep], colors[:, rows, cols], axes, resolution), skipped


def _occupancy(flat_a: np.ndarray, res) -> np.ndarray:
    """Raveled map: does any of the 8 corners above this low corner hold alpha?

    Alpha > 0 on the ``res`` grid, dilated by one cell toward the low side
    on each axis: entry i0 covers the corners i0 + {0, 1}^3 of the stencil.
    """
    occ = flat_a.reshape(res) > 0
    occ[:-1] |= occ[1:]
    occ[:, :-1] |= occ[:, 1:]
    occ[:, :, :-1] |= occ[:, :, 1:]
    return occ.reshape(-1)


def _trilerp(flat_a, flat_pm, res, base, frac):
    """Clamp-to-edge trilinear read of the arrays of ``SparseVoxelGrid.dense()``.

    ``base`` and ``frac`` are the flat low corners and per-axis fractions
    of ``_low_corner``, one entry per sample.  Returns alpha (n,) and
    premultiplied color (3, n), gathered one channel at a time.
    """
    a = np.zeros(base.shape[0])
    pm = np.zeros((3, base.shape[0]))
    for off, wgt in _corners(frac, res):
        key = base + off
        a += wgt * flat_a[key]
        for ch in range(3):
            pm[ch] += wgt * flat_pm[ch][key]
    return a, pm


def render(
    grid: SparseVoxelGrid,
    pose: CameraPose,
    cam: Pinhole,
    background=(0.0, 0.0, 0.0),
    step: float | None = None,
    min_transmittance: float = DEFAULT_MIN_TRANSMITTANCE,
    threads: int = 1,
) -> np.ndarray:
    """Front-to-back emission-absorption march through the grid.

    Rays start at the grid boundary and advance by ``step`` meters
    (default: the isotropic voxel size); each sample converts its
    trilinear alpha via 1 - (1 - a)^(step / voxel_size) so the result
    is step-size independent, composites C += T * a_s * c_s,
    T *= (1 - a_s), and stops once T < ``min_transmittance``.  The
    leftover transmittance lets the background through.  The trilinear
    stencil is read only at samples whose low corner is set in the
    dilated occupancy map of ``_occupancy``; the others would read
    alpha 0.  Each pass of ``_march`` takes ``MARCH_BLOCK`` samples per
    ray, at the positions of repeated ``t += step``; the image does not
    depend on the block length.  The rays are split into ``threads``
    chunks (at most one per ray), marched by one thread pool of
    min(``threads``, chunks, CPUs) workers; rays are independent, so
    the image depends on neither.  ``threads`` below 1 is a ValueError.
    """
    bg = np.asarray(background, dtype=np.float64).reshape(3)
    if not np.all((bg >= 0.0) & (bg <= 1.0)):
        raise ValueError(f"background color must lie in [0, 1], got {bg.tolist()}")
    if step is None:
        step = grid.voxel_size
    if not (0.0 < step < np.inf):
        raise ValueError(f"step length must be a finite number > 0, got {step}")
    if not (0.0 < min_transmittance < 1.0):
        raise ValueError("termination threshold must lie in (0, 1)")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    flat_a, flat_pm = grid.dense()
    occ = _occupancy(flat_a, grid.resolution)  # read-only, shared by every chunk
    dirs = np.asfortranarray(camera_rays(cam, pose))
    chunks = np.array_split(dirs, min(threads, dirs.shape[0]))  # no empty chunks

    def march(rays):
        return _march(
            grid, flat_a, flat_pm, occ, pose.translation, rays, bg, step, min_transmittance
        )

    with ThreadPoolExecutor(max_workers=min(threads, len(chunks), os.cpu_count() or 1)) as pool:
        out_c = np.concatenate(list(pool.map(march, chunks)))
    return out_c.reshape(cam.h, cam.w, 3)


def camera_rays(cam: Pinhole, pose: CameraPose) -> np.ndarray:
    """Unit world-space ray direction per pixel, row-major (H*W, 3)."""
    ys, xs = np.mgrid[0 : cam.h, 0 : cam.w].astype(np.float64)
    dirs = unproject(cam, ys, xs, 1.0).reshape(-1, 3) @ pose.rotation.T
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _march(grid, flat_a, flat_pm, occ, origin, dirs, bg, step, min_transmittance):
    """Composite a batch of rays; independent per ray (chunk-safe).

    Every live ray advances by ``MARCH_BLOCK`` samples per pass.  A
    block's sample positions come from a sequential ``cumsum`` over
    [t, step, step, ...], which gives exactly the t of repeated
    ``t += step``.  Transmittance is a running product over the block,
    read at the sample where the ray stops; a sample that does not
    composite multiplies by 1.0.  Color is added by ``np.add.at``, one
    term per compositing sample before the stop, in march order: the
    terms of repeated C += T * a_s * c_s in their order.  So the image
    does not depend on the block length.  Only samples whose low corner
    is set in ``occ`` are interpolated; the rest have all eight corners
    at alpha 0 and would not composite.
    """
    res = np.array(grid.resolution, dtype=np.float64)
    cell = grid.cell

    # slab intersection with the voxel bounds
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (grid.lo[None, :] - origin[None, :]) * inv
        t1 = (grid.hi[None, :] - origin[None, :]) * inv
    near = np.nanmax(np.minimum(t0, t1), axis=1)
    far = np.nanmin(np.maximum(t0, t1), axis=1)
    near = np.maximum(near, 0.0)

    n_rays = dirs.shape[0]
    out_c = np.zeros((n_rays, 3), order="F")
    trans = np.ones(n_rays)
    exponent = step / grid.voxel_size
    live = np.flatnonzero(far > near)
    t = near[live] + step / 2.0  # midpoint sampling: cell-aligned steps hit centers
    while live.size:
        n = live.size
        ts = np.full((n, MARCH_BLOCK), step)
        ts[:, 0] = t
        np.cumsum(ts, axis=1, out=ts)
        # t only grows along a row, so ``ok`` is a run of leading samples;
        # a ray's first sample is taken even past far
        ok = ts <= far[live, None]
        ok[:, 0] = True
        row, col = np.nonzero(ok)
        ray = live[row]
        t_ok = ts[ok]  # row-major, as nonzero
        g = [(origin[ax] + t_ok * dirs[:, ax][ray] - grid.lo[ax]) / cell[ax] - 0.5 for ax in range(3)]
        base, frac = _low_corner(g, res)
        near_alpha = occ[base]
        a, pm = _trilerp(flat_a, flat_pm, res, base[near_alpha], [f[near_alpha] for f in frac])
        contrib = a > 0
        # sample j of a block goes to column j + 1 of the running product,
        # whose column j holds the transmittance before sample j
        row, col = row[near_alpha][contrib], col[near_alpha][contrib] + 1
        a = a[contrib]
        a_s = 1.0 - (1.0 - np.clip(a, 0.0, 1.0)) ** exponent

        run = np.ones((n, MARCH_BLOCK + 1))
        run[:, 0] = trans[live]
        run[row, col] = 1.0 - a_s
        np.multiply.accumulate(run, axis=1, out=run)
        weight = run[row, col - 1] * a_s
        # a ray stops after the last sample within far whose transmittance
        # before it is still >= min_transmittance
        taken = np.count_nonzero(ok & (run[:, :-1] >= min_transmittance), axis=1)
        trans[live] = run[np.arange(n), taken]
        kept = col <= taken[row]  # composited before the ray stops
        ray, weight, a = live[row[kept]], weight[kept], a[kept]
        src = np.flatnonzero(contrib)[kept]
        for ch in range(3):
            np.add.at(out_c[:, ch], ray, weight * (pm[ch][src] / a))

        t = ts[:, -1] + step
        going = (taken == MARCH_BLOCK) & (t <= far[live]) & (trans[live] >= min_transmittance)
        live, t = live[going], t[going]

    out_c += trans[:, None] * bg[None, :]
    return np.clip(out_c, 0.0, 1.0)


def save_voxel_grid(grid: SparseVoxelGrid, basepath) -> Path:
    """Index grid + value grid + key=value header next to each other; never an empty grid."""
    if grid.n_voxels == 0:
        raise ValueError(f"no voxel has alpha above ALPHA_EPSILON ({ALPHA_EPSILON}); nothing to save")
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    write_grid(f"{base}.idx.duv", grid.indices.astype(np.float64))
    write_grid(f"{base}.val.duv", np.concatenate([grid.alpha[:, None], grid.color], axis=1))
    write_keyvalue(
        f"{base}.meta.txt",
        {
            "lo": grid.lo,
            "hi": grid.hi,
            "resolution": grid.resolution,
            "deposited_mass": grid.deposited_mass,
            "voxels": grid.n_voxels,
        },
    )
    return base


def load_voxel_grid(basepath) -> SparseVoxelGrid:
    """Read a bundle from ``save_voxel_grid``; ValueError if it is malformed.

    The error names the bundle: rows that disagree in count or with
    ``voxels=``, a voxel index that is not an integer, and every check of
    ``SparseVoxelGrid`` (duplicate or out-of-range indices among them).
    Stored values are not clipped: NaN, an alpha above 1, a color outside
    [0, 1] and non-finite bounds are errors.  Voxels whose positive alpha
    fell to ``ALPHA_EPSILON`` are dropped.
    """
    base = Path(basepath)
    path = f"{base}.meta.txt"
    meta = read_keyvalue(path, required=("lo", "hi", "resolution", "deposited_mass", "voxels"))
    voxels = keyvalue_numbers(path, meta, "voxels", int)
    vals = read_grid(f"{base}.val.duv").reshape(-1, 4)
    idx = read_grid(f"{base}.idx.duv").reshape(-1, 3)
    if not idx.shape[0] == vals.shape[0] == voxels:
        raise ValueError(
            f"{base}: {idx.shape[0]} index rows, {vals.shape[0]} value rows, voxels={voxels}"
        )
    with np.errstate(invalid="ignore"):  # NaN and inf cast to a value they do not equal
        ints = idx.astype(np.int64)
    if not np.array_equal(ints, idx):
        raise ValueError(f"{base}.idx.duv: voxel indices must be integers")
    idx, alpha, color = ints, vals[:, 0], vals[:, 1:]
    # float32 storage can nudge a saved alpha down onto the threshold
    straggler = (alpha > 0.0) & (alpha <= ALPHA_EPSILON)
    if straggler.any():
        keep = ~straggler
        idx, alpha, color = idx[keep], alpha[keep], color[keep]
    lo = np.array(keyvalue_numbers(path, meta, "lo", float, 3))
    hi = np.array(keyvalue_numbers(path, meta, "hi", float, 3))
    res = keyvalue_numbers(path, meta, "resolution", int, 3)
    mass = keyvalue_numbers(path, meta, "deposited_mass")
    try:
        return SparseVoxelGrid(lo, hi, res, idx, alpha, color, mass)
    except ValueError as err:
        raise ValueError(f"{base}: {err}") from None
