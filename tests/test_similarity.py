"""Histogram, entropy, NMI and objective-gradient tests.

Gradient checks compare the analytic derivatives against central finite
differences of the same objective, on interior crops of the target so
the set of in-range warped samples stays fixed.
"""

import numpy as np
import pytest
from scipy import ndimage

from vertseg import similarity
from vertseg.bspline import BLOCK_POINTS, support_weights
from vertseg.registration import (RegistrationConfig, _penalty_grid,
                                  register_ffd)
from vertseg.similarity import (IntensityWindow, NmiObjective, SplineImage,
                                _contract_taps, _nmi_terms, _parzen_counts,
                                nmi)
from vertseg.transform import (AffineTransform, ComposedTransform,
                               FFDTransform, bending_energy, compose_apply,
                               lattice_covering)
from vertseg.volume import BoundingBox, GridGeometry, ScalarVolume, crop


def _vol(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    data = np.asarray(data, dtype=np.float64)
    return ScalarVolume(GridGeometry(data.shape, spacing, origin), data)


def test_window_validation_and_binning():
    with pytest.raises(ValueError):
        IntensityWindow(lo=10.0, hi=10.0)
    with pytest.raises(ValueError):
        IntensityWindow(bins=4)
    w = IntensityWindow(lo=0.0, hi=63.0, bins=64)
    assert w.bin_coord(0.0) == 0.0
    assert w.bin_coord(63.0) == 63.0
    assert w.bin_coord(-100.0) == 0.0  # clamped
    assert w.bin_coord(1000.0) == 63.0


def test_joint_histogram_parzen_mass():
    rng = np.random.default_rng(1)
    a = _vol(rng.normal(100, 50, (6, 6, 6)))
    b = _vol(rng.normal(100, 50, (6, 6, 6)))
    w = IntensityWindow(lo=-100, hi=300, bins=16)
    counts, _, _ = _parzen_counts(
        np.round(w.bin_coord(a.data.ravel())).astype(np.int64) * w.bins,
        w.bin_coord(b.data.ravel()), w.bins)
    assert counts.sum() == pytest.approx(216, abs=1e-6)


def test_joint_histogram_known_placement():
    # every voxel pair lands in bin (0, 63): one occupied bin scores 2
    a = _vol(np.full((2, 2, 2), 0.0))
    b = _vol(np.full((2, 2, 2), 63.0))
    w = IntensityWindow(lo=0.0, hi=63.0, bins=64)
    assert nmi(a, b, w) == 2.0


def _entropies(counts):
    """H1, H2 and H12 (nats) of a count table, from the H12 and the logs
    `_nmi_terms` returns."""
    nb = len(counts)
    nmi_val, logs, n, h12 = _nmi_terms(counts.ravel(), nb)
    p1, p2 = counts.sum(axis=1) / n, counts.sum(axis=0) / n
    h1, h2 = (float(-np.sum((p * lp)[p > 0]))
              for p, lp in zip((p1, p2), logs))
    assert nmi_val == (h1 + h2) / h12
    return h1, h2, h12


def test_entropies_hand_computed():
    # two half/half images: H1 = H2 = H12 = ln 2 when perfectly aligned
    counts = np.zeros((8, 8))
    counts[0, 0] = 4
    counts[5, 5] = 4
    h1, h2, h12 = _entropies(counts)
    assert h1 == pytest.approx(np.log(2))
    assert h2 == pytest.approx(np.log(2))
    assert h12 == pytest.approx(np.log(2))
    assert _nmi_terms(counts.ravel(), 8)[0] == pytest.approx(2.0)


def test_entropy_of_independent_histogram():
    # uniform product histogram: H12 = H1 + H2, NMI = 1
    counts = np.ones((8, 8))
    h1, h2, h12 = _entropies(counts)
    assert h12 == pytest.approx(h1 + h2)
    assert _nmi_terms(counts.ravel(), 8)[0] == pytest.approx(1.0)


def test_nmi_identical_images_is_two():
    rng = np.random.default_rng(2)
    data = rng.normal(200, 150, (10, 10, 10))
    a = _vol(data)
    b = _vol(data.copy())
    assert nmi(a, b) == pytest.approx(2.0, abs=1e-12)


def test_nmi_symmetry():
    rng = np.random.default_rng(3)
    a = _vol(rng.normal(0, 100, (8, 8, 8)))
    b = _vol(rng.normal(0, 100, (8, 8, 8)))
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_nmi_mask_restricts_region():
    rng = np.random.default_rng(4)
    data = rng.normal(0, 100, (8, 8, 8))
    a = _vol(data)
    scrambled = data.copy()
    scrambled[4:] = rng.normal(0, 100, (4, 8, 8))
    b = _vol(scrambled)
    box = BoundingBox((0, 0, 0), (3, 7, 7))
    inside = nmi(crop(a, box), crop(b, box))
    assert inside == pytest.approx(2.0, abs=1e-12)
    assert nmi(a, b) < 2.0


# ----------------------------------------------------------- spline image

def test_spline_image_interpolates_grid_values():
    rng = np.random.default_rng(6)
    vol = _vol(rng.normal(0, 100, (9, 9, 9)), spacing=(0.7, 1.0, 1.3))
    sp = SplineImage(vol)
    pts = vol.geometry.grid_world_points().reshape(-1, 3)
    vals, _, _ = sp.sample(pts)
    assert np.allclose(vals, vol.data.ravel(), atol=1e-9)


def test_spline_image_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    vol = _vol(rng.normal(0, 100, (12, 12, 12)), spacing=(0.8, 1.0, 1.2))
    sp = SplineImage(vol)
    pts = vol.geometry.voxel_to_world(rng.uniform(2.0, 9.0, (200, 3)))
    _, grad, _ = sp.sample(pts)
    h = 1e-5
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (sp.sample(pts + e)[0] - sp.sample(pts - e)[0]) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad[:, a] - fd) / denom <= 1e-6


def test_spline_image_clamps_and_zeroes_outside_gradient():
    vol = _vol(np.arange(64, dtype=float).reshape(4, 4, 4))
    sp = SplineImage(vol)
    inside_val, _, inside = sp.sample(np.array([[3.0, 0.0, 0.0]]))
    out_val, out_grad, outside = sp.sample(np.array([[10.0, 0.0, 0.0]]))
    assert (inside, outside) == (1, 0)
    assert out_val[0] == pytest.approx(inside_val[0])
    assert out_grad[0, 0] == 0.0


# ------------------------------------------------------------- objective

def _objective_fixture(seed, dims=(16, 16, 16)):
    rng = np.random.default_rng(seed)
    data = rng.normal(200, 120, dims)
    target = _vol(data + rng.normal(0, 5, dims))
    floating = _vol(data)
    window = IntensityWindow(lo=-400, hi=900, bins=32)
    box = BoundingBox((2, 2, 2), tuple(d - 3 for d in dims))
    return crop(target, box), floating, window, rng


def test_objective_identity_on_identical_images():
    rng = np.random.default_rng(8)
    data = rng.normal(100, 80, (10, 10, 10))
    obj = NmiObjective(_vol(data), _vol(data.copy()),
                       IntensityWindow(lo=-300, hi=500, bins=32))
    val = obj.value(ComposedTransform.identity())
    shifted = obj.value(ComposedTransform(
        AffineTransform(np.eye(3), np.array([1.5, 0.0, 0.0])), None))
    # kernel smoothing keeps the aligned value below the discrete 2.0,
    # but alignment must still clearly dominate a misalignment
    assert val > 1.2
    assert val > shifted + 0.05


def test_objective_ffd_gradient_matches_finite_differences():
    target, floating, window, rng = _objective_fixture(9)
    obj = NmiObjective(target, floating, window)
    geom = lattice_covering((-4.0, -4.0, -4.0), (19.0, 19.0, 19.0), 5.0)
    ffd = FFDTransform(geom, rng.normal(0, 0.3, geom.dims + (3,)))
    comp = ComposedTransform(AffineTransform.identity(), ffd)
    _, grad = obj.value_and_ffd_gradient(comp)

    d = rng.normal(size=ffd.coefficients.shape)
    eps = 1e-4

    def at(c):
        return obj.value(ComposedTransform(
            AffineTransform.identity(), FFDTransform(geom, c)))

    fd = (at(ffd.coefficients + eps * d)
          - at(ffd.coefficients - eps * d)) / (2 * eps)
    an = float(np.sum(grad * d))
    assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4


def test_objective_subsampling_is_deterministic():
    target, floating, window, _ = _objective_fixture(12)
    a = NmiObjective(target, floating, window, max_points=500)
    b = NmiObjective(target, floating, window, max_points=500)
    assert a.points.shape == (500, 3)
    assert np.array_equal(a.points, b.points)
    v1 = a.value(ComposedTransform.identity())
    v2 = b.value(ComposedTransform.identity())
    assert v1 == v2


@pytest.mark.parametrize("max_points", [None, 500])
def test_objective_samples_are_the_grid_points_at_its_indices(monkeypatch,
                                                              max_points):
    # the registration's grid basis reads the samples through indices; a
    # subset maps only its own voxel centers, with the same bits as the
    # full grid's points (an anisotropic, offset grid)
    rng = np.random.default_rng(15)
    data = rng.normal(200, 120, (13, 9, 11))
    target = _vol(data, spacing=(0.7, 1.3, 0.45), origin=(-3.1, 12.7, 5.05))
    grid_points = target.geometry.grid_world_points().reshape(-1, 3)
    if max_points is not None:
        def full_grid(self):
            raise AssertionError("the objective mapped the whole grid")

        monkeypatch.setattr(GridGeometry, "grid_world_points", full_grid)
    obj = NmiObjective(target, _vol(data), max_points=max_points)
    assert obj.grid == target.geometry
    assert np.all(np.diff(obj.indices) > 0)
    assert len(obj.indices) == (max_points or target.data.size)
    assert obj.points.flags.c_contiguous
    assert np.array_equal(obj.points, grid_points[obj.indices])


@pytest.mark.parametrize("max_points", [0, -1, 2.5, True])
def test_objective_checks_max_points_before_prefiltering(monkeypatch,
                                                         max_points):
    target, floating, window, _ = _objective_fixture(14)

    def prefilter(vol):
        raise AssertionError("floating image prefiltered before the check")

    monkeypatch.setattr(similarity, "SplineImage", prefilter)
    with pytest.raises(ValueError, match="^max_points must be"):
        NmiObjective(target, floating, window, max_points=max_points)


def test_objective_rejects_disjoint_domains():
    rng = np.random.default_rng(13)
    target = _vol(rng.normal(size=(6, 6, 6)))
    floating = _vol(rng.normal(size=(6, 6, 6)), origin=(1000.0, 0.0, 0.0))
    obj = NmiObjective(target, floating)
    with pytest.raises(ValueError):
        obj.value(ComposedTransform.identity())


# ------------------------------------------------------ blocked operators

def test_spline_image_blocked_sample_is_bit_identical():
    rng = np.random.default_rng(30)
    vol = _vol(rng.normal(0, 100, (14, 12, 10)), spacing=(0.8, 1.0, 1.2))
    sp = SplineImage(vol)
    # a few points beyond the faces exercise the clamped gradient
    pts = vol.geometry.voxel_to_world(
        rng.uniform(-1.0, 13.0, (2 * BLOCK_POINTS + 17, 3)))
    val, grad, inside = sp.sample(pts)
    for chunk in (BLOCK_POINTS, 1000):
        parts = [sp.sample(pts[s:s + chunk])
                 for s in range(0, len(pts), chunk)]
        assert np.array_equal(val, np.concatenate([v for v, _, _ in parts]))
        assert np.array_equal(grad, np.concatenate([g for _, g, _ in parts]))
        assert inside == sum(k for _, _, k in parts)


def test_objective_at_points_matches_transform_entry_points():
    target, floating, window, rng = _objective_fixture(31)
    obj = NmiObjective(target, floating, window)
    geom = lattice_covering((-4.0, -4.0, -4.0), (19.0, 19.0, 19.0), 5.0)
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.01, np.array([0.2, -0.1, 0.3])),
        FFDTransform(geom, rng.normal(0, 0.3, geom.dims + (3,))))
    y = compose_apply(comp, obj.points)
    assert obj.point_gradient_at(y)[0] == obj.value(comp)


def test_register_ffd_final_objective_matches_public_wrappers():
    rng = np.random.default_rng(32)
    data = ndimage.gaussian_filter(rng.normal(size=(20, 18, 16)), 2.0)
    target = _vol(400.0 * data / np.abs(data).max(), spacing=(1.5,) * 3)
    floating = _vol(np.roll(target.data, 1, axis=0), spacing=(1.5,) * 3)
    cfg = RegistrationConfig(pyramid_levels=2, control_spacing_mm=9.0,
                             max_iters_per_level=4, max_sample_voxels=3000,
                             window=IntensityWindow(-500, 500, 32))
    affine = AffineTransform(np.eye(3), np.array([0.3, 0.0, 0.0]))
    res = register_ffd(target, floating, affine, cfg)
    ffd = res.transform.ffd
    obj = NmiObjective(target, floating, cfg.window,
                       max_points=cfg.max_sample_voxels)
    pen_geom, _, _ = _penalty_grid(
        target.geometry, 0.0,
        min_spacing_mm=min(ffd.control_geom.spacing) / 4.0)
    p_val, _ = bending_energy(ffd, pen_geom, with_gradient=False)
    c = (1.0 - cfg.alpha) * obj.value(res.transform) - cfg.alpha * p_val
    assert res.per_level_trace[-1][2] == pytest.approx(c, rel=1e-12, abs=0)
    assert res.final_objective == res.per_level_trace[-1][2]


# ------------------------------------------- padded spline-image gather

def _mirror_reference(i, n):
    """Reflect out-of-range indices into [0, n-1] (period 2n-2)."""
    if n == 1:
        return np.zeros_like(i)
    period = 2 * (n - 1)
    i = np.abs(i) % period
    return np.where(i >= n, period - i, i)


def _mirror_gather_sample(vol, pts, point_major=False):
    """Quadratic spline value and gradient (HU/mm) at world points,
    gathering each point's 3x3x3 support from the unpadded coefficients
    through per-axis mirrored indices into a (z, y, x)-tap-major
    (3, 3, 3, V) array, contracted one axis at a time by einsum along the
    leading tap axis; clamped like SplineImage.sample. With
    `point_major`, the same gather is contracted point-major, (V, 3, 3, 3)
    in (x, y, z) order, which sums the taps in another order."""
    coef = ndimage.spline_filter(vol.data, order=2, mode="mirror")
    dims = np.array(vol.geometry.dims)
    _, ny, nz = vol.geometry.dims
    u_raw = vol.geometry.world_to_voxel(pts)
    u = np.clip(u_raw, 0.0, dims - 1.0)
    w0, w1, idx = [], [], []
    for a in range(3):
        i0, w = support_weights(u[:, a], degree=2)
        _, dw = support_weights(u[:, a], 1, degree=2)
        w0.append(w)
        w1.append(-dw)
        idx.append(np.stack([_mirror_reference(i0 + o, dims[a])
                             for o in range(3)]))
    flat = ((idx[0][None, None, :, :] * ny + idx[1][None, :, None, :]) * nz
            + idx[2][:, None, None, :])
    c = coef.ravel()[flat]
    if point_major:
        c = np.ascontiguousarray(c.transpose(3, 2, 1, 0))
        w0 = [w.T for w in w0]
        w1 = [w.T for w in w1]
        sub4, sub3, sub2 = "vijk,vk->vij", "vij,vj->vi", "vi,vi->v"
    else:
        sub4 = sub3 = sub2 = "k...v,kv->...v"
    cz = np.einsum(sub4, c, w0[2])
    cy = np.einsum(sub3, cz, w0[1])
    val = np.einsum(sub2, cy, w0[0])
    gx = np.einsum(sub2, cy, w1[0])
    gy = np.einsum(sub2, np.einsum(sub3, cz, w1[1]), w0[0])
    gz = np.einsum(sub2, np.einsum(
        sub3, np.einsum(sub4, c, w1[2]), w0[1]), w0[0])
    grad = np.stack([gx, gy, gz], axis=-1) / np.array(vol.geometry.spacing)
    grad[(u_raw < 0.0) | (u_raw > dims - 1.0)] = 0.0
    return coef, val, grad


@pytest.mark.parametrize("dims", [(1, 2, 3), (7, 1, 2), (3, 7, 1),
                                  (2, 3, 7), (1, 1, 1), (7, 7, 7)])
def test_padded_gather_matches_mirrored_index_gather(dims):
    rng = np.random.default_rng(40)
    vol = _vol(rng.normal(0, 100, dims), spacing=(0.8, 1.0, 1.3),
               origin=(-2.0, 1.0, 3.0))
    n = np.array(dims, dtype=float)
    # uniform over the domain grown by 2 voxels on every side, plus the
    # corners and face centers of that box, so points lie beyond each face
    u = rng.uniform(-2.0, n + 1.0, (500, 3))
    box = np.stack([-2.0 * np.ones(3), (n - 1.0) / 2.0, n + 1.0])
    grid = np.stack(np.meshgrid(*box.T, indexing="ij"), -1).reshape(-1, 3)
    pts = vol.geometry.voxel_to_world(np.concatenate([u, grid]))
    sp = SplineImage(vol)
    coef, ref_val, ref_grad = _mirror_gather_sample(vol, pts)
    val, grad, _ = sp.sample(pts)
    assert np.array_equal(val, ref_val)
    assert np.array_equal(grad, ref_grad)
    # the point-major contraction sums the taps in another order
    _, pm_val, pm_grad = _mirror_gather_sample(vol, pts, point_major=True)
    assert np.allclose(val, pm_val, rtol=0, atol=1e-9)
    assert np.allclose(grad, pm_grad, rtol=0, atol=1e-9)
    # SciPy stays the reference interpolant, up to rounding
    u_in = np.clip(vol.geometry.world_to_voxel(pts), 0.0, n - 1.0)
    assert np.allclose(val, ndimage.map_coordinates(
        coef, u_in.T, order=2, prefilter=False, mode="mirror"),
        rtol=0, atol=1e-9)


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 3, 1), (3, 1, 2),
                                  (1, 1, 1), (2, 2, 2), (3, 3, 3)])
def test_spline_image_matches_scipy_quadratic_spline_at_every_face(dims):
    rng = np.random.default_rng(43)
    data = rng.normal(0, 100, dims)
    vol = _vol(data, spacing=(0.8, 1.0, 1.3), origin=(-2.0, 1.0, 3.0))
    n = np.array(dims, dtype=float)
    # interior points, then points on each of the six faces, then points
    # beyond each face, which the sampler clamps onto it
    parts = [rng.uniform(0.0, n - 1.0, (200, 3))]
    for a in range(3):
        for face, beyond in ((0.0, -1.5), (n[a] - 1.0, n[a] + 0.5)):
            for at in (face, beyond):
                p = rng.uniform(0.0, n - 1.0, (20, 3))
                p[:, a] = at
                parts.append(p)
    u = np.concatenate(parts)
    val, _, _ = SplineImage(vol).sample(vol.geometry.voxel_to_world(u))
    ref = ndimage.map_coordinates(data, np.clip(u, 0.0, n - 1.0).T,
                                  order=2, mode="mirror")
    assert np.allclose(val, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_spline_image_is_c1_across_half_integer_coordinates(axis):
    # the quadratic support switches at u = k + 0.5; the value and the
    # gradient must agree from both sides there
    rng = np.random.default_rng(44)
    vol = _vol(rng.normal(0, 100, (7, 6, 5)), spacing=(0.8, 1.0, 1.3),
               origin=(-2.0, 1.0, 3.0))
    n = np.array(vol.geometry.dims)
    u = rng.uniform(0.0, n - 1.0, (300, 3))
    u[:, axis] = rng.integers(0, n[axis] - 1, len(u)) + 0.5
    # a few ULPs below: u + 0.5 must still round below k + 1
    below = u.copy()
    below[:, axis] -= 2.0 ** -48
    i_at = support_weights(u[:, axis], degree=2)[0]
    i_below = support_weights(below[:, axis], degree=2)[0]
    assert np.all(i_at == i_below + 1)
    sp = SplineImage(vol)
    val, grad, _ = sp.sample(vol.geometry.voxel_to_world(u))
    val_b, grad_b, _ = sp.sample(vol.geometry.voxel_to_world(below))
    assert np.allclose(val, val_b, rtol=0, atol=1e-9)
    assert np.allclose(grad, grad_b, rtol=0, atol=1e-9)


def test_objective_at_points_rejects_samples_all_outside():
    target, floating, window, _ = _objective_fixture(41)
    obj = NmiObjective(target, floating, window)
    y = obj.points + np.array([1000.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="no warped sample falls inside"):
        obj.value(ComposedTransform(
            AffineTransform(np.eye(3), np.array([1000.0, 0.0, 0.0])), None))
    with pytest.raises(ValueError, match="no warped sample falls inside"):
        obj.point_gradient_at(y)


@pytest.mark.parametrize("seed", range(31, 41))
def test_value_at_equals_point_gradient_value(seed):
    # both paths bin the same spline samples, so the values agree exactly
    target, floating, window, rng = _objective_fixture(seed)
    obj = NmiObjective(target, floating, window)
    geom = lattice_covering((-4.0, -4.0, -4.0), (19.0, 19.0, 19.0), 5.0)
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.01, np.array([0.2, -0.1, 0.3])),
        FFDTransform(geom, rng.normal(0, 0.3, geom.dims + (3,))))
    y = compose_apply(comp, obj.points)
    assert obj.value(comp) == obj.point_gradient_at(y)[0]


def test_nmi_rejects_volumes_on_another_grid_with_same_dims():
    rng = np.random.default_rng(50)
    a = _vol(rng.normal(100, 50, (6, 6, 6)))
    b = _vol(a.data, spacing=(2.0, 1.0, 1.0), origin=(50.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="share geometry"):
        nmi(a, b)
    # NIfTI's float32 rounding of the same grid is the same grid
    c = _vol(a.data, spacing=np.float32((1.0, 1.0, 1.0)),
             origin=np.float32((0.1, 0.2, 0.3)))
    d = _vol(a.data, origin=(0.1, 0.2, 0.3))
    assert nmi(c, d) == 2.0


def test_blocked_sample_matches_mirrored_index_gather_over_many_blocks():
    rng = np.random.default_rng(42)
    vol = _vol(rng.normal(0, 100, (9, 8, 7)), spacing=(0.8, 1.0, 1.3),
               origin=(-2.0, 1.0, 3.0))
    n = np.array(vol.geometry.dims, dtype=float)
    # uniform over the domain grown by 2 voxels on every side: three
    # blocks, with points beyond each low and each high face
    u = rng.uniform(-2.0, n + 1.0, (2 * BLOCK_POINTS + 301, 3))
    assert np.all((u < 0.0).any(axis=0)) and np.all((u > n - 1.0).any(axis=0))
    pts = vol.geometry.voxel_to_world(u)
    _, ref_val, ref_grad = _mirror_gather_sample(vol, pts)
    val, grad, _ = SplineImage(vol).sample(pts)
    assert np.array_equal(val, ref_val)
    assert np.array_equal(grad, ref_grad)


# ---------------------------------------------- tap sums and Parzen reuse

def _sequential_taps(t, w):
    out = t[0] * w[0]
    for k in range(1, len(t)):
        out = out + t[k] * w[k]
    return out


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dims", [(1, 2, 3), (3, 1, 2), (2, 3, 1), (9, 8, 7)])
def test_spline_sample_matches_mirrored_gather_on_either_point_layout(
        order, dims):
    rng = np.random.default_rng(41)
    vol = _vol(rng.normal(0, 100, dims), spacing=(0.8, 1.0, 1.3),
               origin=(-2.0, 1.0, 3.0))
    n = np.array(dims, dtype=float)
    # per axis: both faces, half a voxel and 2 voxels beyond each, and
    # the middle; then random points over the grown domain, in 3 blocks
    ticks = [np.unique([-2.0, -0.5, 0.0, (k - 1.0) / 2.0, k - 1.0, k - 0.5,
                        k + 1.0]) for k in n]
    grid = np.stack(np.meshgrid(*ticks, indexing="ij"), -1).reshape(-1, 3)
    u = np.concatenate([grid, rng.uniform(-2.0, n + 1.0,
                                          (2 * BLOCK_POINTS + 1, 3))])
    pts = np.asarray(vol.geometry.voxel_to_world(u), order=order)
    _, ref_val, ref_grad = _mirror_gather_sample(vol, pts)
    sp = SplineImage(vol)
    val, grad, inside = sp.sample(pts)
    assert np.array_equal(val.view(np.int64), ref_val.view(np.int64))
    assert np.array_equal(grad, ref_grad)
    assert grad.flags.c_contiguous
    u_back = vol.geometry.world_to_voxel(pts)
    assert inside == np.count_nonzero(
        np.all((u_back >= 0.0) & (u_back <= n - 1.0), axis=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_gradient_rejects_non_finite_warped_points(bad):
    # one NaN used to score the pair as a perfect match (NMI 2, zero
    # gradient) through an arbitrary gather index
    target, floating, window, _ = _objective_fixture(43)
    obj = NmiObjective(target, floating, window)
    y = obj.points + np.array([0.3, -0.2, 0.1])
    y[5, 1] = bad
    with pytest.raises(ValueError, match="^non-finite warped sample point$"):
        obj.point_gradient_at(y)
    with pytest.raises(ValueError, match="^non-finite warped sample point$"):
        obj.spline.sample(y[::-1])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("lead", [(4, 4), (4,), ()])
@pytest.mark.parametrize("n", [1, 17, BLOCK_POINTS, BLOCK_POINTS + 1])
def test_contract_taps_sums_the_taps_in_order(lead, n):
    # a NumPy that sums einsum's reduction in another order fails here
    rng = np.random.default_rng(60)
    t = rng.normal(0, 100, (4,) + lead + (n,))
    w = rng.uniform(-1.0, 1.0, (4, n))
    # taps that cancel: 1 in order, 2 summed pairwise as (t0 + t2) + ...
    t[..., -1] = np.array([1e16, 1.0, -1e16, 1.0]).reshape(
        (4,) + (1,) * len(lead))
    w[:, -1] = 1.0
    out = _contract_taps(t, w)
    assert np.all(out[..., -1] == 1.0)
    assert _same_bits(out, _sequential_taps(t, w))
    # splitting the points into chunks, fresh arrays like the blocks of
    # SplineImage.sample, changes no bit, a last chunk of one point (at
    # 17 and BLOCK_POINTS + 1) included
    parts = [_contract_taps(t[..., s:s + 8].copy(), w[:, s:s + 8].copy())
             for s in range(0, n, 8)]
    assert _same_bits(out, np.concatenate(parts, axis=-1))


@pytest.mark.parametrize("lead", [(3, 3), (3,), ()])
@pytest.mark.parametrize("n", [1, 17, BLOCK_POINTS + 1])
def test_contract_taps_sums_three_taps_in_order(lead, n):
    # the spline image's quadratic support: 3 taps per axis
    rng = np.random.default_rng(63)
    t = rng.normal(0, 100, (3,) + lead + (n,))
    w = rng.uniform(-1.0, 1.0, (3, n))
    # taps that cancel: 1 in order, 0 in any other order
    t[..., -1] = np.array([1e16, -1e16, 1.0]).reshape(
        (3,) + (1,) * len(lead))
    w[:, -1] = 1.0
    out = _contract_taps(t, w)
    assert np.all(out[..., -1] == 1.0)
    assert _same_bits(out, _sequential_taps(t, w))
    parts = [_contract_taps(t[..., s:s + 8].copy(), w[:, s:s + 8].copy())
             for s in range(0, n, 8)]
    assert _same_bits(out, np.concatenate(parts, axis=-1))


def test_contract_taps_sums_strided_views_in_order():
    rng = np.random.default_rng(61)
    t = rng.normal(0, 100, (4, 4, 4, 2 * BLOCK_POINTS + 2))
    w = rng.uniform(-1.0, 1.0, (4, 3, 2 * BLOCK_POINTS + 2))
    for tv, wv in ((t[..., ::2], w[:, 2, ::2]), (t[:, 1], w[:, 0]),
                   (t[:, :, 2], w[:, 1]), (t[:, 3, 0, 5:6], w[:, 1, 7:8])):
        assert _same_bits(_contract_taps(tv, wv), _sequential_taps(tv, wv))


def test_spline_image_samples_a_lone_point_as_in_a_block():
    rng = np.random.default_rng(62)
    vol = _vol(rng.normal(0, 100, (9, 8, 7)), spacing=(0.8, 1.0, 1.3))
    sp = SplineImage(vol)
    pts = vol.geometry.voxel_to_world(rng.uniform(-1.0, 8.0, (40, 3)))
    val, grad, _ = sp.sample(pts)
    for k in range(len(pts)):
        v, g, _ = sp.sample(pts[k:k + 1])
        assert _same_bits(v, val[k:k + 1]) and np.array_equal(g, grad[k:k + 1])


def _parent_parzen_gradient(obj, v, g):
    """NMI and point gradient from sampled values v and gradients g, as
    the objective computed them with a second `support_weights` call for
    the derivative weights and a 2-D gather of d NMI / d counts."""
    window = obj.window
    nb = window.bins
    bin1 = obj.target_rows // nb
    c2 = window.bin_coord(v)
    clipped = (c2 <= 0.0) | (c2 >= nb - 1)
    i0, w = support_weights(c2)
    bcols = np.clip(i0[:, None] + np.arange(4), 0, nb - 1)
    counts = np.zeros(nb * nb)
    for o in range(4):
        counts += np.bincount(bin1 * nb + bcols[:, o], weights=w[o],
                              minlength=nb * nb)
    counts = counts.reshape(nb, nb)
    n = float(counts.sum())
    h1v, h2v, h12v = (float(-np.sum(p * np.log(p)))
                      for p in (q[q > 0] / n for q in (
                          counts.sum(axis=1), counts.sum(axis=0), counts)))
    nmi_val = (h1v + h2v) / h12v
    p1 = counts.sum(axis=1) / n
    p2 = counts.sum(axis=0) / n
    p12 = counts / n
    with np.errstate(divide="ignore"):
        l1 = np.where(p1 > 0, np.log(np.maximum(p1, 1e-300)), 0.0)
        l2 = np.where(p2 > 0, np.log(np.maximum(p2, 1e-300)), 0.0)
        l12 = np.where(p12 > 0, np.log(np.maximum(p12, 1e-300)), 0.0)
    dnmi_dh = (-(l1[:, None] + 1.0) - (l2[None, :] + 1.0)
               + nmi_val * (l12 + 1.0)) / (n * h12v)
    _, dwk = support_weights(c2, 1)
    dnmi_dc2 = np.zeros(c2.size)
    for o in range(4):
        dnmi_dc2 += dnmi_dh[bin1, bcols[:, o]] * (-dwk[o])
    dnmi_dc2[clipped] = 0.0
    return nmi_val, (dnmi_dc2 * window.scale)[:, None] * g


@pytest.mark.parametrize("seed", range(31, 41))
def test_point_gradient_matches_two_dimensional_parzen_gather(seed):
    target, floating, window, rng = _objective_fixture(seed)
    obj = NmiObjective(target, floating, window)
    geom = lattice_covering((-4.0, -4.0, -4.0), (19.0, 19.0, 19.0), 5.0)
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.01, np.array([0.2, -0.1, 0.3])),
        FFDTransform(geom, rng.normal(0, 0.3, geom.dims + (3,))))
    y = compose_apply(comp, obj.points)
    ref_val, ref_grad = _parent_parzen_gradient(obj,
                                                *obj.spline.sample(y)[:2])
    nmi_val, point_grad = obj.point_gradient_at(y)
    assert nmi_val == ref_val
    assert np.array_equal(point_grad, ref_grad)


def test_point_gradient_maps_the_points_to_voxels_once(monkeypatch):
    target, floating, window, _ = _objective_fixture(42)
    obj = NmiObjective(target, floating, window)
    calls = []
    world_to_voxel = GridGeometry.world_to_voxel

    def counted(self, p):
        calls.append(len(p))
        return world_to_voxel(self, p)

    monkeypatch.setattr(GridGeometry, "world_to_voxel", counted)
    y = obj.points + np.array([0.3, -0.2, 0.1])
    obj.point_gradient_at(y)
    assert calls == [len(y)]
    outside = obj.points + np.array([1000.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="no warped sample falls inside"):
        obj.point_gradient_at(outside)
    assert calls == [len(y)] * 2
    # one point left inside is enough
    outside[7] = y[7]
    obj.point_gradient_at(outside)
    assert obj.spline.sample(outside)[2] == 1
