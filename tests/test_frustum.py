import os
import re

import numpy as np
import pytest

from depthuq import frustum
from depthuq.discretize import DepthHypotheses, bilinear_bin_weights, linear_hypotheses
from depthuq.frustum import (
    ALPHA_EPSILON,
    MAX_AXIS,
    CameraPose,
    Pinhole,
    SparseVoxelGrid,
    _frame_bounds,
    _low_corner,
    _splat,
    _trilerp,
    camera_rays,
    centered_pinhole,
    identity_pose,
    load_voxel_grid,
    orbit_pose,
    render,
    save_voxel_grid,
    unproject,
    voxelize_ground_truth,
    voxelize_prediction,
)
from depthuq.gridio import write_grid, write_keyvalue, write_ppm


def _splat_oracle(points, mass, rgb, resolution):
    # reference splat: per-corner np.add.at into 3-D accumulators
    res = np.array(
        [resolution] * 3 if np.isscalar(resolution) else list(resolution), dtype=np.int64
    )
    lo, hi = _frame_bounds(points.T, res)
    cell = (hi - lo) / res
    g = (points - lo) / cell - 0.5
    g = np.clip(g, 0.0, res - 1.0)
    i0 = np.minimum(np.floor(g).astype(np.int64), res - 2)
    frac = g - i0
    acc_a = np.zeros(tuple(res))
    acc_c = np.zeros(tuple(res) + (3,))
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        wgt = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1) * mass
        ix, iy, iz = (i0 + off).T
        np.add.at(acc_a, (ix, iy, iz), wgt)
        np.add.at(acc_c, (ix, iy, iz), wgt[:, None] * rgb)
    keep = acc_a > ALPHA_EPSILON
    raw = acc_a[keep]
    return SparseVoxelGrid(
        lo=lo, hi=hi, resolution=tuple(int(n) for n in res), indices=np.argwhere(keep),
        alpha=np.clip(raw, None, 1.0), color=np.clip(acc_c[keep] / raw[:, None], 0.0, 1.0),
        deposited_mass=float(acc_a.sum()),
    )


def _splat_oracle_on_axes(mass, colors, axes, resolution):
    # ``_splat``'s arguments, with the coordinate and color arrays broadcast
    # to (N, 3) points and (N, 3) colors
    full = np.broadcast_arrays(*axes, *colors)
    pts = np.stack(full[:3], axis=-1).reshape(-1, 3)
    rgb = np.stack(full[3:], axis=-1).reshape(-1, 3)
    return _splat_oracle(pts, mass, rgb, resolution)


def _trilerp_oracle(dense_a, dense_pm, res, g):
    # reference read: np.where/np.prod weights, three-axis fancy indexing
    g = np.clip(g, 0.0, res - 1.0)
    i0 = np.minimum(np.floor(g).astype(np.int64), (res - 2).astype(np.int64))
    frac = g - i0
    a = np.zeros(g.shape[0])
    pm = np.zeros((g.shape[0], 3))
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        wgt = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1)
        ix, iy, iz = (i0 + off).T
        a += wgt * dense_a[ix, iy, iz]
        pm += wgt[:, None] * dense_pm[ix, iy, iz]
    return a, pm


# reference march: one pass per sample, t += step, as before the block march
def _march_oracle(grid, flat_a, flat_pm, occ, origin, dirs, bg, step, min_transmittance):
    """Composite a batch of rays; independent per ray (chunk-safe).

    Only samples whose low corner is set in ``occ`` are interpolated;
    the rest have all eight corners at alpha 0 and would not composite.
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
    hit = far > near

    n_rays = dirs.shape[0]
    out_c = np.zeros((n_rays, 3))
    trans = np.ones(n_rays)
    t = near + step / 2.0  # midpoint sampling: cell-aligned steps hit centers
    active = hit.copy()
    exponent = step / grid.voxel_size
    while np.any(active):
        ai = np.nonzero(active)[0]
        pos = origin[None, :] + t[ai, None] * dirs[ai]
        g = (pos - grid.lo[None, :]) / cell[None, :] - 0.5
        base, frac = _low_corner(g.T, res)
        near_alpha = occ[base]
        a, pm = _trilerp(flat_a, flat_pm, res, base[near_alpha], [f[near_alpha] for f in frac])
        contrib = a > 0
        if np.any(contrib):
            ci = ai[near_alpha][contrib]
            a = a[contrib]
            a_s = 1.0 - (1.0 - np.clip(a, 0.0, 1.0)) ** exponent
            c_s = pm.T[contrib] / a[:, None]
            out_c[ci] += (trans[ci] * a_s)[:, None] * c_s
            trans[ci] *= 1.0 - a_s
        t[ai] += step
        active[ai] = (t[ai] <= far[ai]) & (trans[ai] >= min_transmittance)

    out_c += trans[:, None] * bg[None, :]
    return np.clip(out_c, 0.0, 1.0)


def _empty_grid():
    return SparseVoxelGrid(
        lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
        indices=np.zeros((0, 3), dtype=np.int64), alpha=np.zeros(0),
        color=np.zeros((0, 3)),
    )


def _axis_grid(entries):
    # 2x2x2 box in front of the camera; entries: {index: (alpha, color)}
    idx = np.array(list(entries), dtype=np.int64)
    alpha = np.array([entries[k][0] for k in entries])
    color = np.array([entries[k][1] for k in entries])
    return SparseVoxelGrid(
        lo=np.array([-1.0, -1.0, 1.0]), hi=np.array([1.0, 1.0, 3.0]),
        resolution=(2, 2, 2), indices=idx, alpha=alpha, color=color,
    )


def _principal_probe():
    # principal ray walks the center column of voxel (0,0,:): samples at
    # t = 1.5 and 2.5 hit the two voxel centers exactly (step = cell = 1)
    cam = Pinhole(f=20.0, cx=1.0, cy=1.0, h=3, w=3)
    pose = CameraPose(rotation=np.eye(3), translation=np.array([-0.5, -0.5, 0.0]))
    return cam, pose


def test_pinhole_validation():
    for f in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"focal length must be a finite number > 0, got {f}"):
            Pinhole(f=f, cx=1.0, cy=1.0, h=4, w=4)
    with pytest.raises(ValueError):
        Pinhole(f=5.0, cx=9.0, cy=1.0, h=4, w=4)
    with pytest.raises(ValueError):
        Pinhole(f=5.0, cx=1.0, cy=1.0, h=0, w=4)


def test_centered_pinhole():
    cam = centered_pinhole(5, 9, 12.0)
    assert cam.cx == 4.0 and cam.cy == 2.0 and cam.f == 12.0


def test_pose_validation():
    with pytest.raises(ValueError):
        CameraPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    with pytest.raises(ValueError):
        CameraPose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))
    with pytest.raises(ValueError):
        CameraPose(rotation=np.eye(2), translation=np.zeros(3))
    p = identity_pose()
    np.testing.assert_array_equal(p.rotation, np.eye(3))


def test_orbit_pose_geometry():
    target = np.array([1.0, -2.0, 4.0])
    for az, el in ((0.0, 0.0), (1.1, 0.4), (-2.0, -0.7), (np.pi, 0.0)):
        pose = orbit_pose(target, radius=3.0, azimuth=az, elevation=el)
        r = pose.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert abs(np.linalg.norm(pose.translation - target) - 3.0) < 1e-9
        # optical axis (third column) aims at the target
        fwd = (target - pose.translation) / 3.0
        np.testing.assert_allclose(r[:, 2], fwd, atol=1e-9)


def test_orbit_pose_rejects_bad_radius():
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"orbit radius must be a finite number > 0, got {radius}"):
            orbit_pose(np.zeros(3), radius=radius, azimuth=0.0)


def test_orbit_pose_rejects_nonfinite_angles_and_target():
    for azimuth, elevation, target in ((np.nan, 0.0, [0.0, 0.0, 0.0]), (0.0, -np.inf, [0.0, 0.0, 0.0]),
                                       (0.0, 0.0, [0.0, np.nan, 0.0])):
        message = f"orbit angles and target must be finite, got azimuth {azimuth}, elevation {elevation}, target {target}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orbit_pose(target, radius=1.0, azimuth=azimuth, elevation=elevation)


def test_unproject_principal_point():
    cam = centered_pinhole(5, 5, 10.0)
    np.testing.assert_allclose(unproject(cam, cam.cy, cam.cx, 2.0), [0.0, 0.0, 2.0])


def test_unproject_known_offset():
    cam = Pinhole(f=10.0, cx=2.0, cy=2.0, h=5, w=10)
    # column cx + f/depth puts X exactly at 1
    p = unproject(cam, 2.0, 7.0, 2.0)
    np.testing.assert_allclose(p, [1.0, 0.0, 2.0])


def test_unproject_rejects_nonpositive_depth():
    cam = centered_pinhole(4, 4, 5.0)
    with pytest.raises(ValueError):
        unproject(cam, 1.0, 1.0, 0.0)


def test_unproject_broadcasts():
    cam = centered_pinhole(4, 4, 5.0)
    ys, xs = np.mgrid[0:4, 0:4].astype(np.float64)
    pts = unproject(cam, ys, xs, np.full((4, 4), 2.0))
    assert pts.shape == (4, 4, 3)
    assert np.all(pts[..., 2] == 2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.zeros(3), resolution=(2, 2, 2),
                        indices=np.zeros((0, 3)), alpha=np.zeros(0), color=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(1, 2, 2),
                        indices=np.zeros((0, 3)), alpha=np.zeros(0), color=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.array([[2, 0, 0]]), alpha=np.array([0.5]),
                        color=np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.array([[0, 0, 0]]), alpha=np.array([1.5]),
                        color=np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError, match="stored alphas"):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.array([[0, 0, 0]]), alpha=np.array([np.nan]),
                        color=np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError, match="colors"):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.array([[0, 0, 0]]), alpha=np.array([0.5]),
                        color=np.array([[0.5, np.nan, 0.5]]))
    with pytest.raises(ValueError, match="bounds must be finite"):
        SparseVoxelGrid(lo=np.array([np.nan, 0.0, 0.0]), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.zeros((0, 3)), alpha=np.zeros(0), color=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="duplicate voxel index"):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
                        indices=np.array([[1, 1, 1], [0, 1, 1], [1, 1, 1]]),
                        alpha=np.array([0.5, 0.4, 0.6]), color=np.full((3, 3), 0.5))


@pytest.mark.parametrize("axis", range(3))
def test_grid_axis_beyond_float32_indices_is_refused(tmp_path, axis):
    # ``.duv`` stores voxel indices as float32, exact up to 2**24: index
    # 2**24 + 1 would load back as 2**24, so 2**24 + 2 cells are refused
    res = [2, 2, 2]
    res[axis] = 2**24 + 2
    idx = np.zeros((1, 3))
    idx[0, axis] = 2**24 + 1
    message = f"axis {'xyz'[axis]} has {2**24 + 2} cells, more than {MAX_AXIS}"
    with pytest.raises(ValueError, match=message):
        SparseVoxelGrid(lo=np.zeros(3), hi=np.ones(3), resolution=tuple(res), indices=idx,
                        alpha=np.array([0.5]), color=np.full((1, 3), 0.5))
    base = tmp_path / "g"
    write_grid(f"{base}.idx.duv", np.zeros((1, 3)))
    write_grid(f"{base}.val.duv", np.full((1, 4), 0.5))
    write_keyvalue(f"{base}.meta.txt", {"lo": np.zeros(3), "hi": np.ones(3), "resolution": res,
                                        "deposited_mass": 0.5, "voxels": 1})
    with pytest.raises(ValueError, match=message):
        load_voxel_grid(base)
    assert frustum._check_resolution((2, 2, MAX_AXIS)) == (2, 2, 2**24 + 1)


def test_splat_lattice_points_land_exactly():
    # hull-on-centers framing: integer-spaced points on the x axis each
    # own one voxel outright
    pts = np.array([[float(k), 0.0, 0.0] for k in range(5)])
    grid = _splat(np.full(5, 0.5), np.tile([1.0, 0.0, 0.0], (5, 1)).T, pts.T, (5, 2, 2))
    assert grid.n_voxels == 5
    order = np.argsort(grid.indices[:, 0])
    np.testing.assert_array_equal(grid.indices[order, 0], np.arange(5))
    np.testing.assert_allclose(grid.alpha, 0.5, atol=1e-12)


def test_splat_midpoint_splits_evenly():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    grid = _splat(np.array([0.0, 0.0, 0.5]), np.tile([0.0, 1.0, 0.0], (3, 1)).T, pts.T, (2, 2, 2))
    # the two anchor samples carry no mass; the midpoint splits 50/50
    assert grid.n_voxels == 2
    np.testing.assert_allclose(np.sort(grid.alpha), [0.25, 0.25], atol=1e-12)


def test_splat_conserves_mass():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        pts = rng.uniform(-2, 2, size=(n, 3))
        mass = rng.uniform(0.05, 0.9, size=n)
        rgb = rng.uniform(size=(n, 3))
        grid = _splat(mass, rgb.T, pts.T, (6, 5, 4))
        assert abs(grid.deposited_mass - mass.sum()) < 1e-9


STENCIL_RESOLUTIONS = [(6, 5, 4), (2, 2, 2), 3, 7]


def _cloud(rng, n):
    # random interior points plus the 8 hull corners, which land on voxel centers
    pts = rng.uniform(-2.0, 2.0, size=(n, 3))
    corners = np.array([[x, y, z] for x in (-2.5, 2.5) for y in (-1.5, 3.0) for z in (0.5, 4.0)])
    pts = np.concatenate([pts, corners])
    return pts, rng.uniform(0.0, 0.9, size=len(pts)), rng.uniform(size=(len(pts), 3))


@pytest.mark.parametrize("resolution", STENCIL_RESOLUTIONS)
@pytest.mark.parametrize("n", [1, 40, 3000])
def test_splat_matches_add_at_oracle(resolution, n):
    # n=3000 puts several (7^3 grid) to thousands (2^3 grid) of samples per voxel
    rng = np.random.default_rng([n, np.prod(resolution)])
    pts, mass, rgb = _cloud(rng, n)
    got = _splat(mass, rgb.T, pts.T, resolution)
    ref = _splat_oracle(pts, mass, rgb, resolution)
    assert got.resolution == ref.resolution
    np.testing.assert_array_equal(got.lo, ref.lo)
    np.testing.assert_array_equal(got.hi, ref.hi)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_allclose(got.alpha, ref.alpha, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.color, ref.color, rtol=1e-12, atol=0)
    assert abs(got.deposited_mass - ref.deposited_mass) <= 1e-12 * ref.deposited_mass


@pytest.mark.parametrize("res", [(9, 8, 7), (12, 10, 8), (8, 8, 8)])
def test_splat_sparse_clamped_corners_match_oracle_bitwise(res):
    # distinct low corners, so every voxel gets at most one sample per
    # corner and both splats add the same terms in the same order; the
    # hull corners frame the lattice at 0 and res - 1, and samples with a
    # coordinate at res - 1 take the low corner clamped to res - 2
    rng = np.random.default_rng(list(res))
    top = np.array(res) - 1
    cells = np.stack(np.meshgrid(*(np.arange(k - 1) for k in res), indexing="ij"), -1)
    cells = cells.reshape(-1, 3)[1:-1]  # the two hull corners own the first and last
    faces = cells[(cells == top - 1).any(axis=1)]
    picks = np.concatenate([
        faces[rng.permutation(len(faces))[:6]],
        cells[rng.permutation(len(cells))[:6]],
    ])
    picks = np.unique(picks, axis=0)
    pts = picks + rng.uniform(0.1, 0.9, size=picks.shape)
    clamp = (picks == top - 1) & (rng.uniform(size=picks.shape) < 0.7)
    pts[clamp] = np.broadcast_to(top, picks.shape)[clamp]
    pts = np.concatenate([[np.zeros(3)], pts, [top]]).astype(np.float64)
    mass = rng.uniform(0.05, 0.9, size=len(pts))
    rgb = rng.uniform(size=(len(pts), 3))
    base, _ = _low_corner(pts.T, top + 1.0)
    assert np.unique(base).size == len(pts) and clamp.any()

    got = _splat(mass, rgb.T, pts.T, res)
    ref = _splat_oracle(pts, mass, rgb, res)
    assert 0 < got.n_voxels <= 8 * len(pts) < np.prod(res) // 2  # a sparse touched set
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.alpha, ref.alpha)
    np.testing.assert_array_equal(got.color, ref.color)
    assert got.deposited_mass == ref.deposited_mass


@pytest.mark.parametrize("resolution", STENCIL_RESOLUTIONS)
def test_trilerp_matches_oracle_bitwise(resolution):
    res = (resolution,) * 3 if np.isscalar(resolution) else resolution
    rng = np.random.default_rng(list(res))
    dense_a = rng.uniform(size=res)
    dense_pm = rng.uniform(size=res + (3,))
    resf = np.array(res, dtype=np.float64)
    # in-lattice, lattice-exact and out-of-range (clamped) coordinates
    g = np.concatenate([
        rng.uniform(-1.0, resf, size=(500, 3)),
        rng.integers(0, res, size=(50, 3)).astype(np.float64),
        np.array([[0.0, 0.0, 0.0], resf - 1.0, -resf, 2.0 * resf]),
    ])
    base, frac = _low_corner(g.T, resf)
    flat_pm = np.moveaxis(dense_pm, -1, 0).reshape(3, -1)  # the (3, voxels) color of dense()
    a, pm = _trilerp(dense_a.reshape(-1), flat_pm, resf, base, frac)
    ref_a, ref_pm = _trilerp_oracle(dense_a, dense_pm, resf, g)
    np.testing.assert_array_equal(a, ref_a)
    np.testing.assert_array_equal(pm.T, ref_pm)


def test_orbit_renders_match_oracle_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    cam = centered_pinhole(12, 16, 14.0)
    hyp = linear_hypotheses(1.0, 6.0, 6)
    vol = rng.dirichlet(np.ones(hyp.m), size=(cam.h, cam.w))
    rgb = rng.uniform(size=(cam.h, cam.w, 3))
    grid = voxelize_prediction(vol, hyp, cam, rgb, resolution=(9, 8, 7))

    def oracle_trilerp(flat_a, flat_pm, res, base, frac):
        # the clamped lattice point is exactly low corner + fraction
        shape = tuple(int(n) for n in res)
        g = np.stack(np.unravel_index(base, shape), axis=1) + np.stack(frac, axis=1)
        dense_pm = np.moveaxis(flat_pm.reshape((3,) + shape), 0, -1)
        a, pm = _trilerp_oracle(flat_a.reshape(shape), dense_pm, res, g)
        return a, pm.T

    with monkeypatch.context() as patch:
        patch.setattr(frustum, "_splat", _splat_oracle_on_axes)
        patch.setattr(frustum, "_trilerp", oracle_trilerp)
        ref_grid = voxelize_prediction(vol, hyp, cam, rgb, resolution=(9, 8, 7))
        target = (ref_grid.lo + ref_grid.hi) / 2.0
        radius = 1.5 * float(np.linalg.norm(ref_grid.hi - ref_grid.lo))
        poses = [orbit_pose(target, radius, np.deg2rad(az), 0.2) for az in (0.0, 70.0, 200.0)]
        refs = [render(ref_grid, pose, cam, background=(0.1, 0.2, 0.3)) for pose in poses]

    assert grid.n_voxels == ref_grid.n_voxels
    for k, (pose, ref) in enumerate(zip(poses, refs)):
        img = render(grid, pose, cam, background=(0.1, 0.2, 0.3))
        write_ppm(tmp_path / f"got{k}.ppm", cam.w, cam.h, img)
        write_ppm(tmp_path / f"ref{k}.ppm", cam.w, cam.h, ref)
        assert (tmp_path / f"got{k}.ppm").read_bytes() == (tmp_path / f"ref{k}.ppm").read_bytes()


def test_voxelize_prediction_single_pixel():
    cam = Pinhole(f=5.0, cx=0.0, cy=0.0, h=1, w=1)
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    vol = np.array([[[0.3, 0.7]]])
    rgb = np.array([[[0.2, 0.4, 0.6]]])
    grid = voxelize_prediction(vol, hyp, cam, rgb, resolution=(2, 2, 2))
    assert abs(grid.deposited_mass - 1.0) < 1e-12
    assert abs(grid.alpha.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(grid.color, [[0.2, 0.4, 0.6]] * grid.n_voxels)


PREDICTION_CASES = {
    # name: (camera, hypotheses, resolution, random colors or mid-gray)
    "tuple-res": (centered_pinhole(12, 16, 14.0), linear_hypotheses(1.0, 6.0, 6), (9, 6, 5), True),
    "off-centre": (Pinhole(f=11.0, cx=2.75, cy=9.5, h=12, w=16), linear_hypotheses(0.5, 4.0, 5), 7, True),
    "two-planes": (Pinhole(f=6.0, cx=4.5, cy=1.0, h=5, w=7), DepthHypotheses(np.array([1.5, 4.0])), (4, 6, 3), True),
    "one-pixel": (Pinhole(f=5.0, cx=0.0, cy=0.0, h=1, w=1), linear_hypotheses(1.0, 3.0, 4), (3, 2, 4), True),
    "gray": (centered_pinhole(10, 8, 9.0), linear_hypotheses(2.0, 9.0, 7), 6, False),
}


@pytest.mark.parametrize("case", PREDICTION_CASES)
def test_voxelize_prediction_matches_splat_of_unprojected_points(case):
    # per-axis coordinates give the bits of unprojecting every sample
    cam, hyp, res, colored = PREDICTION_CASES[case]
    rng = np.random.default_rng(list(case.encode()))
    vol = rng.dirichlet(np.ones(hyp.m), size=(cam.h, cam.w))
    rgb = rng.uniform(size=(cam.h, cam.w, 3)) if colored else np.full((cam.h, cam.w, 3), 0.5)
    ys, xs = np.mgrid[0 : cam.h, 0 : cam.w].astype(np.float64)
    pts = np.concatenate([unproject(cam, ys, xs, d).reshape(-1, 3) for d in hyp.values])
    colors = np.tile(rgb.reshape(-1, 3), (hyp.m, 1))
    want = _splat(np.moveaxis(vol, -1, 0).ravel(), colors.T, pts.T, res)
    got = voxelize_prediction(vol, hyp, cam, rgb, resolution=res)
    assert got.resolution == want.resolution and got.n_voxels > 0
    for field in ("lo", "hi", "indices", "alpha", "color"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert got.deposited_mass == want.deposited_mass


def test_voxelize_prediction_splats_the_image_channels(monkeypatch):
    # each color channel reaches the splat as one contiguous (H, W) array
    # that broadcasts over the planes, not as a copy per hypothesis plane
    rng = np.random.default_rng(5)
    cam = centered_pinhole(6, 8, 7.0)
    hyp = linear_hypotheses(1.0, 4.0, 5)
    vol = rng.dirichlet(np.ones(hyp.m), size=(cam.h, cam.w))
    rgb = rng.uniform(size=(cam.h, cam.w, 3))
    calls = []

    def record(mass, colors, axes, resolution):
        calls.append(colors)
        return _splat(mass, colors, axes, resolution)

    monkeypatch.setattr(frustum, "_splat", record)
    voxelize_prediction(vol, hyp, cam, rgb, resolution=6)
    (colors,) = calls
    assert len(colors) == 3
    for ch, c in enumerate(colors):
        assert c.shape == (cam.h, cam.w) and c.flags.c_contiguous
        np.testing.assert_array_equal(c, rgb[..., ch])


def test_voxelize_prediction_validation():
    cam = Pinhole(f=5.0, cx=0.0, cy=0.0, h=1, w=1)
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    rgb = np.zeros((1, 1, 3))
    with pytest.raises(ValueError):
        voxelize_prediction(np.zeros((1, 1, 3)), hyp, cam, rgb)
    with pytest.raises(ValueError):
        voxelize_prediction(np.array([[[-0.1, 1.1]]]), hyp, cam, rgb)
    for bad in (2.0, np.nan):
        with pytest.raises(ValueError, match=r"^image colors must lie in \[0, 1\]$"):
            voxelize_prediction(np.array([[[0.5, 0.5]]]), hyp, cam, rgb + bad)


def test_voxelize_ground_truth_two_plane_split():
    cam = Pinhole(f=5.0, cx=0.0, cy=0.0, h=1, w=1)
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    gt = np.array([[1.5]])
    rgb = np.full((1, 1, 3), 0.8)
    grid, skipped = voxelize_ground_truth(gt, hyp, cam, rgb, resolution=(2, 2, 2))
    assert skipped == 0
    assert abs(grid.deposited_mass - 1.0) < 1e-12
    np.testing.assert_allclose(np.sort(grid.alpha)[-2:], [0.5, 0.5], atol=1e-12)


def test_voxelize_ground_truth_skips_and_drops_empty_planes():
    cam = Pinhole(f=5.0, cx=0.5, cy=0.0, h=1, w=2)
    hyp = DepthHypotheses(np.array([1.0, 2.0]))
    gt = np.array([[1.0, np.nan]])
    grid, skipped = voxelize_ground_truth(gt, hyp, cam, np.full((1, 2, 3), 0.5), resolution=(2, 2, 2))
    assert skipped == 1
    # on-plane depth: the far plane gets zero weight and must not
    # stretch the bounds
    assert grid.n_voxels == 1
    assert abs(grid.deposited_mass - 1.0) < 1e-12
    with pytest.raises(ValueError):
        voxelize_ground_truth(np.full((1, 2), np.nan), hyp, cam, np.full((1, 2, 3), 0.5))


def _ground_truth_by_points(gt, hyp, cam, rgb, resolution):
    # the two-plane split with every kept sample unprojected to an (n, 3)
    # point; returns the grid, the skipped pixels and the dropped samples
    ok = np.isfinite(gt) & (gt > 0) & (gt >= hyp.d_min) & (gt <= hyp.d_max)
    ys, xs = np.mgrid[0 : cam.h, 0 : cam.w].astype(np.float64)
    lo_idx, w_lo = bilinear_bin_weights(hyp, gt[ok])
    pts = np.concatenate([unproject(cam, ys[ok], xs[ok], hyp.values[lo_idx + k]) for k in (0, 1)])
    mass = np.concatenate([w_lo, 1.0 - w_lo])
    keep = mass > 0.0
    colors = np.concatenate([rgb[ok], rgb[ok]])
    grid = _splat(mass[keep], colors[keep].T, pts[keep].T, resolution)
    return grid, int(gt.size - ok.sum()), int(np.count_nonzero(~keep))


GROUND_TRUTH_CASES = {
    # name: (camera, hypotheses, resolution)
    "off-centre": (Pinhole(f=11.0, cx=2.75, cy=9.5, h=12, w=16), linear_hypotheses(1.0, 6.0, 6), (9, 6, 5)),
    "two-planes": (Pinhole(f=6.0, cx=4.5, cy=1.0, h=5, w=7), DepthHypotheses(np.array([1.5, 4.0])), 4),
    "one-row": (centered_pinhole(1, 9, 5.0), linear_hypotheses(2.0, 9.0, 7), (5, 2, 6)),
}


@pytest.mark.parametrize("case", GROUND_TRUTH_CASES)
def test_voxelize_ground_truth_matches_splat_of_unprojected_points(case):
    # NaN, inf, non-positive and out-of-range GT is skipped; GT on a plane
    # (the end planes included) leaves a zero-weight sample to drop
    cam, hyp, res = GROUND_TRUTH_CASES[case]
    rng = np.random.default_rng(list(case.encode()))
    gt = rng.uniform(hyp.d_min - 1.0, hyp.d_max + 1.0, size=(cam.h, cam.w)).ravel()
    spots = rng.permutation(gt.size)
    gt[spots[:4]] = [np.nan, np.inf, 0.0, -1.0]
    gt[spots[4:7]] = [hyp.d_min, hyp.d_max, hyp.values[hyp.m // 2]]
    gt = gt.reshape(cam.h, cam.w)
    rgb = rng.uniform(size=(cam.h, cam.w, 3))
    want, want_skipped, dropped = _ground_truth_by_points(gt, hyp, cam, rgb, res)
    got, skipped = voxelize_ground_truth(gt, hyp, cam, rgb, resolution=res)
    assert dropped >= 3 and skipped == want_skipped >= 4
    assert got.resolution == want.resolution and got.n_voxels > 0
    for field in ("lo", "hi", "indices", "alpha", "color"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert got.deposited_mass == want.deposited_mass


def test_render_empty_grid_is_background():
    cam = centered_pinhole(4, 6, 8.0)
    bg = (0.2, 0.5, 0.9)
    img = render(_empty_grid(), identity_pose(), cam, background=bg)
    assert img.shape == (4, 6, 3)
    np.testing.assert_array_equal(img, np.broadcast_to(bg, (4, 6, 3)))


def test_render_single_opaque_voxel():
    cam, pose = _principal_probe()
    grid = _axis_grid({(0, 0, 0): (1.0, (1.0, 0.0, 0.0))})
    img = render(grid, pose, cam, background=(0.0, 0.0, 1.0), step=1.0)
    np.testing.assert_allclose(img[1, 1], [1.0, 0.0, 0.0], atol=1e-9)


def test_render_two_sample_compositing():
    cam, pose = _principal_probe()
    grid = _axis_grid({
        (0, 0, 0): (0.5, (1.0, 0.0, 0.0)),
        (0, 0, 1): (0.6, (0.0, 0.0, 1.0)),
    })
    img = render(grid, pose, cam, background=(0.0, 1.0, 0.0), step=1.0,
                 min_transmittance=1e-9)
    # C = 0.5 red + 0.5*0.6 blue, T = 0.5*0.4 lets the green bg through
    np.testing.assert_allclose(img[1, 1], [0.5, 0.2, 0.3], atol=1e-9)


def test_render_opaque_back_stops_ray():
    cam, pose = _principal_probe()
    grid = _axis_grid({
        (0, 0, 0): (0.5, (1.0, 0.0, 0.0)),
        (0, 0, 1): (1.0, (0.0, 0.0, 1.0)),
    })
    img = render(grid, pose, cam, background=(0.0, 1.0, 0.0), step=1.0)
    np.testing.assert_allclose(img[1, 1], [0.5, 0.0, 0.5], atol=1e-9)


def _back_to_front_reference(grid, cam, pose, bg, step):
    # per ray: the same sample points as render, composited back to front
    # through _trilerp_oracle; min_transmittance is taken as 0
    flat_a, flat_pm = grid.dense()
    dense_a = flat_a.reshape(grid.resolution)
    dense_pm = np.moveaxis(flat_pm.reshape((3,) + grid.resolution), 0, -1)
    dirs = camera_rays(cam, pose)
    origin = pose.translation
    resf = np.array(grid.resolution, dtype=np.float64)
    expo = step / grid.voxel_size
    img = np.empty((dirs.shape[0], 3))
    for r in range(dirs.shape[0]):
        d = dirs[r]
        near, far = 0.0, np.inf
        for ax in range(3):
            if d[ax] == 0.0:
                if not (grid.lo[ax] <= origin[ax] <= grid.hi[ax]):
                    near, far = np.inf, -np.inf
                continue
            ta = (grid.lo[ax] - origin[ax]) / d[ax]
            tb = (grid.hi[ax] - origin[ax]) / d[ax]
            near = max(near, min(ta, tb))
            far = min(far, max(ta, tb))
        if far <= near:
            img[r] = bg
            continue
        ts = np.arange(near + step / 2.0, far, step)
        colour = bg.copy()
        for t in ts[::-1]:
            pos = origin + t * d
            g = (pos - grid.lo) / grid.cell - 0.5
            a, pm = _trilerp_oracle(dense_a, dense_pm, resf, g.reshape(1, 3))
            if a[0] <= 0:
                continue
            a_s = 1.0 - (1.0 - min(a[0], 1.0)) ** expo
            colour = a_s * (pm[0] / a[0]) + (1.0 - a_s) * colour
        img[r] = np.clip(colour, 0, 1)
    return img


def test_render_matches_back_to_front_reference():
    # same sample points, opposite compositing recursion
    rng = np.random.default_rng(5)
    for trial in range(4):
        n = int(rng.integers(4, 12))
        res = (4, 4, 4)
        cells = np.array(res)
        flat = rng.choice(np.prod(cells), size=n, replace=False)
        idx = np.stack(np.unravel_index(flat, res), axis=1)
        grid = SparseVoxelGrid(
            lo=np.array([-1.0, -1.0, 2.0]), hi=np.array([1.0, 1.0, 4.0]),
            resolution=res, indices=idx,
            alpha=rng.uniform(0.2, 0.9, size=n), color=rng.uniform(size=(n, 3)),
        )
        cam = centered_pinhole(5, 5, 6.0)
        pose = identity_pose()
        bg = np.array([0.1, 0.2, 0.3])
        step = grid.voxel_size / 3.0
        img = render(grid, pose, cam, background=tuple(bg), step=step,
                     min_transmittance=1e-12).reshape(-1, 3)
        ref = _back_to_front_reference(grid, cam, pose, bg, step)
        np.testing.assert_allclose(img, ref, atol=1e-9)


@pytest.mark.parametrize("res", [(2, 2, 2), (9, 8, 7), (5, 5, 5)])
def test_occupancy_lookup_matches_corner_brute_force(res):
    rng = np.random.default_rng(list(res))
    resf = np.array(res, dtype=np.float64)
    for trial in range(6):
        dense_a = np.zeros(res)
        n = int(rng.integers(1, 4))
        idx = np.stack([rng.integers(0, k, size=n) for k in res], axis=1)
        # pin voxels to the index-0 and res - 1 faces of every axis
        for ax in range(3):
            idx[rng.integers(n), ax] = 0
            idx[rng.integers(n), ax] = res[ax] - 1
        dense_a[tuple(idx.T)] = rng.uniform(0.1, 1.0, size=n)
        occ = frustum._occupancy(dense_a.reshape(-1), res)
        corners = np.stack(np.meshgrid(*(np.arange(k - 1) for k in res), indexing="ij"), -1)
        corners = corners.reshape(-1, 3)
        # points in every low corner's cell, on its lattice point, and out
        # of range; g = res - 1 and beyond read the clamped corner res - 2
        g = np.concatenate([
            corners + rng.uniform(0.0, 1.0, size=corners.shape),
            corners.astype(np.float64),
            rng.uniform(-1.0, resf + 1.0, size=(100, 3)),
            [resf - 1.0],
        ])
        base, _ = frustum._low_corner(g.T, resf)
        i0 = np.minimum(np.floor(np.clip(g, 0.0, resf - 1.0)), resf - 2).astype(np.int64)
        want = np.array([(dense_a[i:i + 2, j:j + 2, k:k + 2] > 0).any() for i, j, k in i0])
        np.testing.assert_array_equal(occ[base], want)


def test_render_mostly_empty_grid_matches_reference():
    # five voxels of a 9x8x7 grid, two on the res - 1 faces where the low
    # corner is clamped to res - 2; the step is not cell-aligned
    res = (9, 8, 7)
    idx = np.array([[8, 3, 2], [4, 7, 6], [4, 4, 3], [0, 0, 0], [5, 2, 6]])
    rng = np.random.default_rng(23)
    grid = SparseVoxelGrid(
        lo=np.array([-1.0, -1.0, 2.0]), hi=np.array([1.0, 1.0, 4.0]),
        resolution=res, indices=idx,
        alpha=rng.uniform(0.3, 1.0, size=len(idx)), color=rng.uniform(size=(len(idx), 3)),
    )
    cam = centered_pinhole(9, 11, 7.0)
    bg = np.array([0.1, 0.2, 0.3])
    step = 0.37 * grid.voxel_size
    target = (grid.lo + grid.hi) / 2.0
    for pose in (identity_pose(), orbit_pose(target, 3.0, np.deg2rad(130.0), 0.4)):
        img = render(grid, pose, cam, background=tuple(bg), step=step, min_transmittance=1e-12)
        ref = _back_to_front_reference(grid, cam, pose, bg, step)
        assert np.any(np.abs(ref - bg).max(axis=1) > 0.05)  # some rays hit a voxel
        np.testing.assert_allclose(img.reshape(-1, 3), ref, atol=1e-9)
        threaded = render(grid, pose, cam, background=tuple(bg), step=step,
                          min_transmittance=1e-12, threads=3)
        np.testing.assert_array_equal(threaded, img)


def _oracle_render(monkeypatch, grid, pose, cam, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(frustum, "_march", _march_oracle)
        return render(grid, pose, cam, **kwargs)


def _march_scene(res, mode):
    # prediction mode is translucent; ground truth puts unit mass on two
    # planes, so its voxels saturate and rays stop partway through a block
    rng = np.random.default_rng([*res, mode == "gt"])
    cam = centered_pinhole(12, 16, 14.0)
    hyp = linear_hypotheses(1.0, 6.0, 6)
    rgb = rng.uniform(size=(cam.h, cam.w, 3))
    if mode == "prediction":
        vol = rng.dirichlet(np.ones(hyp.m), size=(cam.h, cam.w))
        grid = voxelize_prediction(vol, hyp, cam, rgb, resolution=res)
    else:
        gt = rng.uniform(1.0, 6.0, size=(cam.h, cam.w))
        grid, _ = voxelize_ground_truth(gt, hyp, cam, rgb, resolution=res)
    target = (grid.lo + grid.hi) / 2.0
    radius = 1.5 * float(np.linalg.norm(grid.hi - grid.lo))
    poses = [identity_pose()] + [
        orbit_pose(target, radius, np.deg2rad(az), 0.2) for az in (0.0, 70.0, 200.0)
    ]
    return grid, cam, poses


def _march_settings(grid):
    # the last step is longer than the grid: a ray's first sample lies past far
    return [
        {},
        {"min_transmittance": 0.999},
        {"step": 0.37 * grid.voxel_size},
        {"step": 2.0 * float(np.linalg.norm(grid.hi - grid.lo))},
    ]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("mode", ["prediction", "gt"])
@pytest.mark.parametrize("res", [(2, 2, 2), (9, 8, 7)])
def test_block_march_matches_step_oracle(res, mode, threads, monkeypatch):
    grid, cam, poses = _march_scene(res, mode)
    for kwargs in _march_settings(grid):
        for pose in poses:
            want = _oracle_render(monkeypatch, grid, pose, cam, background=(0.1, 0.2, 0.3), **kwargs)
            got = render(grid, pose, cam, background=(0.1, 0.2, 0.3), threads=threads, **kwargs)
            assert np.array_equal(got, want), (kwargs, pose.translation)


@pytest.mark.parametrize("block", [16, 5])
def test_block_march_stops_and_exits_mid_block_like_step_oracle(block, monkeypatch):
    # a 12-cell-deep box of translucent voxels in front of the camera:
    # rays composite several samples per block, and either fall below the
    # threshold or leave the box before the block ends
    res = (7, 6, 12)
    rng = np.random.default_rng(29)
    idx = np.argwhere(rng.uniform(size=res) < 0.6)
    grid = SparseVoxelGrid(
        lo=np.array([-1.0, -1.0, 2.0]), hi=np.array([1.0, 1.0, 6.0]), resolution=res,
        indices=idx, alpha=rng.uniform(0.2, 0.5, size=len(idx)),
        color=np.column_stack([rng.uniform(size=len(idx)), np.zeros(len(idx)), rng.uniform(size=len(idx))]),
    )
    cam = centered_pinhole(9, 11, 8.0)
    monkeypatch.setattr(frustum, "MARCH_BLOCK", block)
    target = (grid.lo + grid.hi) / 2.0
    kwargs = dict(background=(0.0, 1.0, 0.0), min_transmittance=0.05)
    for pose in (identity_pose(), orbit_pose(target, 6.0, np.deg2rad(20.0), 0.3)):
        want = _oracle_render(monkeypatch, grid, pose, cam, **kwargs)
        # voxels hold no green, so the green channel is the final transmittance
        trans = want[..., 1]
        assert np.any(trans < 0.05)  # rays that stopped at the threshold
        assert np.any((trans >= 0.05) & (trans < 1.0))  # rays that left the box
        for threads in (1, 2):
            got = render(grid, pose, cam, threads=threads, **kwargs)
            assert np.array_equal(got, want), (block, threads, pose.translation)


def test_block_march_continues_at_exact_threshold(monkeypatch):
    # a_s = 0.5 at the first voxel center leaves T = 0.5 exactly; T equal
    # to min_transmittance keeps the ray going into the second voxel
    cam, pose = _principal_probe()
    grid = _axis_grid({
        (0, 0, 0): (0.5, (1.0, 0.0, 0.0)),
        (0, 0, 1): (0.6, (0.0, 0.0, 1.0)),
    })
    kwargs = dict(background=(0.0, 1.0, 0.0), step=1.0, min_transmittance=0.5)
    for block in (1, 16):
        monkeypatch.setattr(frustum, "MARCH_BLOCK", block)
        img = render(grid, pose, cam, **kwargs)
        np.testing.assert_allclose(img[1, 1], [0.5, 0.2, 0.3], atol=1e-9)
        assert np.array_equal(img, _oracle_render(monkeypatch, grid, pose, cam, **kwargs))


def test_block_length_does_not_change_the_image(monkeypatch):
    scenes = [_march_scene((9, 8, 7), mode) for mode in ("prediction", "gt")]
    want = [
        _oracle_render(monkeypatch, grid, poses[1], cam, **kwargs).tobytes()
        for grid, cam, poses in scenes
        for kwargs in _march_settings(grid)
    ]
    for block in (1, 2, 3, 16, 1000):
        monkeypatch.setattr(frustum, "MARCH_BLOCK", block)
        got = [
            render(grid, poses[1], cam, **kwargs).tobytes()
            for grid, cam, poses in scenes
            for kwargs in _march_settings(grid)
        ]
        assert got == want, block


@pytest.mark.parametrize("threads", [0, -3])
def test_render_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        render(_empty_grid(), identity_pose(), centered_pinhole(2, 2, 4.0), threads=threads)


def test_render_pool_has_one_worker_per_ray_at_most(monkeypatch):
    grid, _, poses = _march_scene((9, 8, 7), "prediction")
    cam = centered_pinhole(2, 2, 4.0)
    chunks = []
    march = frustum._march

    def counting_march(*args):
        chunks.append(args[5].shape[0])
        return march(*args)

    single = render(grid, poses[1], cam)
    monkeypatch.setattr(frustum, "_march", counting_march)
    img = render(grid, poses[1], cam, threads=100)
    assert sorted(chunks) == [1, 1, 1, 1]
    assert np.array_equal(img, single)


class _SerialPool:
    """Stands in for ``ThreadPoolExecutor``: starts no thread, runs each job
    in the caller and records every pool's [max_workers, jobs]."""

    def __init__(self):
        self.pools = []

    def __call__(self, max_workers):
        self.pools.append([max_workers, 0])
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.pools[-1][1] = len(jobs)
        return map(fn, jobs)


@pytest.mark.parametrize("threads, cpus, workers, chunks", [
    (1, 4, 1, 1), (3, 2, 2, 3), (100_000, 4, 4, 16), (100_000, None, 1, 16),
])
def test_render_pool_is_bounded_by_cpus(monkeypatch, threads, cpus, workers, chunks):
    # one pool path for every thread count; the chunk count follows
    # --threads alone, so the image does not depend on the host
    grid, _, poses = _march_scene((9, 8, 7), "prediction")
    cam = centered_pinhole(4, 4, 4.0)
    want = render(grid, poses[1], cam)
    pool = _SerialPool()
    monkeypatch.setattr(frustum, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    img = render(grid, poses[1], cam, threads=threads)
    assert pool.pools == [[workers, chunks]]
    assert img.tobytes() == want.tobytes()


def test_source_pose_rerender_at_aligned_pixel():
    # constant-depth plane on a hypothesis, one voxel per pixel: the
    # principal ray never leaves its center column, so the source color
    # must come back within quantization
    cam = Pinhole(f=10.0, cx=4.0, cy=4.0, h=9, w=9)
    hyp = linear_hypotheses(1.0, 3.0, 3)
    gt = np.full((9, 9), 2.0)
    ys, xs = np.mgrid[0:9, 0:9]
    src = np.stack([xs / 8.0, ys / 8.0, np.full((9, 9), 0.25)], axis=-1)
    grid, skipped = voxelize_ground_truth(gt, hyp, cam, src, resolution=(9, 9, 2))
    assert skipped == 0
    img = render(grid, identity_pose(), cam, background=(1.0, 1.0, 1.0))
    assert np.abs(img[4, 4] - src[4, 4]).max() <= 1.0 / 255.0


def test_render_validation():
    cam = centered_pinhole(2, 2, 4.0)
    grid = _empty_grid()
    for bg in ((2.0, 0.0, 0.0), (0.0, np.nan, 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"background color must lie in [0, 1], got {list(bg)}")):
            render(grid, identity_pose(), cam, background=bg)
    for step in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"step length must be a finite number > 0, got {step}"):
            render(grid, identity_pose(), cam, step=step)
    with pytest.raises(ValueError):
        render(grid, identity_pose(), cam, min_transmittance=1.5)


def test_camera_rays_shape_and_axis():
    cam = centered_pinhole(3, 5, 7.0)
    pose = orbit_pose(np.array([0.0, 0.0, 2.0]), radius=2.0, azimuth=0.7, elevation=0.2)
    dirs = camera_rays(cam, pose)
    assert dirs.shape == (15, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # center pixel rides the optical axis
    center = 1 * 5 + 2
    np.testing.assert_allclose(dirs[center], pose.rotation[:, 2], atol=1e-12)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    n = 7
    idx = np.stack([rng.permutation(4)[:3] for _ in range(n)])  # distinct rows at this seed
    grid = SparseVoxelGrid(
        lo=np.array([-0.3, 0.1, 1.7]), hi=np.array([0.9, 1.1, 3.3]),
        resolution=(4, 4, 4), indices=np.clip(idx, 0, 3),
        alpha=rng.uniform(0.01, 0.99, size=n), color=rng.uniform(size=(n, 3)),
        deposited_mass=12.75,
    )
    save_voxel_grid(grid, tmp_path / "g")
    loaded = load_voxel_grid(tmp_path / "g")
    assert loaded.resolution == grid.resolution
    np.testing.assert_array_equal(loaded.lo, grid.lo)
    np.testing.assert_array_equal(loaded.hi, grid.hi)
    assert loaded.deposited_mass == 12.75
    assert loaded.n_voxels == grid.n_voxels
    np.testing.assert_array_equal(loaded.indices, grid.indices)
    np.testing.assert_array_equal(
        loaded.alpha, grid.alpha.astype(np.float32).astype(np.float64)
    )


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf])
def test_load_rejects_non_integral_index(tmp_path, bad):
    grid = SparseVoxelGrid(
        lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
        indices=[[0, 0, 0], [1, 1, 1]], alpha=[0.5, 0.25], color=np.full((2, 3), 0.5),
    )
    save_voxel_grid(grid, tmp_path / "g")
    idx = np.array([[0.0, 0.0, 0.0], [1.0, bad, 1.0]])
    write_grid(tmp_path / "g.idx.duv", idx)
    with pytest.raises(ValueError, match=r"g\.idx\.duv: voxel indices must be integers"):
        load_voxel_grid(tmp_path / "g")


def test_load_rejects_voxel_count_mismatch(tmp_path):
    grid = SparseVoxelGrid(
        lo=np.zeros(3), hi=np.ones(3), resolution=(2, 2, 2),
        indices=[[0, 0, 0], [1, 1, 1]], alpha=[0.5, 0.25], color=np.full((2, 3), 0.5),
    )
    save_voxel_grid(grid, tmp_path / "g")
    meta = tmp_path / "g.meta.txt"
    meta.write_text(meta.read_text().replace("voxels=2", "voxels=3"))
    with pytest.raises(ValueError, match="2 index rows, 2 value rows, voxels=3"):
        load_voxel_grid(tmp_path / "g")
