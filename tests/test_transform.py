"""Affine / FFD transform and smoothness-penalty tests.

The bending-energy oracles are independent of the implementation: a
closed-form quadratic field and a dense central-finite-difference
evaluation of the same integrand.
"""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from vertseg.bspline import (BLOCK_POINTS, REFINE_MASK, bspline3, bspline3_d1,
                             bspline3_d2, refine_coefficients_1d,
                             support_offsets, support_weights)
from vertseg.transform import (AffineTransform, ComposedTransform,
                               FFDTransform, GridBasis, affine_apply,
                               bending_energy, bending_operator, compose_apply,
                               ffd_displace, lattice_covering,
                               load_transform, refine_ffd, save_transform)
from vertseg.transform import _DERIV_PAIRS, _axes_of, _axis_weight_matrix
from vertseg.volume import GridGeometry, ScalarVolume, downsample


# ---------------------------------------------------------------- kernels

def test_kernel_partition_of_unity():
    u = np.random.default_rng(0).uniform(-3, 9, 500)
    _, w = support_weights(u)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_kernel_matches_closed_form_samples():
    assert bspline3(0.0) == pytest.approx(4.0 / 6.0)
    assert bspline3(1.0) == pytest.approx(1.0 / 6.0)
    assert bspline3(2.0) == pytest.approx(0.0)
    assert bspline3_d1(0.0) == pytest.approx(0.0)


def test_support_weights_match_kernel():
    rng = np.random.default_rng(1)
    # scalar, (V,) and (3, V) coordinates
    for u in (2.37, rng.uniform(-4, 4, 300), rng.uniform(-4, 4, (3, 200))):
        i0, *rows = support_weights(u, 0, 1, 2)
        nodes = np.asarray(i0)[..., None] + np.arange(4)
        kernels = (bspline3, bspline3_d1, bspline3_d2)
        for deriv, (kern, w) in enumerate(zip(kernels, rows)):
            assert w.shape == (4,) + np.shape(u)
            # each order's rows are the same bits whether asked alone
            i0_alone, w_alone = support_weights(u, deriv)
            assert np.array_equal(i0_alone, i0)
            assert np.array_equal(w_alone, w)
            ref = np.moveaxis(kern(nodes - np.asarray(u)[..., None]), -1, 0)
            assert np.allclose(w, ref, atol=1e-12)


def _bspline2(t):
    """Quadratic B-spline kernel, evaluated piecewise with masks."""
    a = np.abs(t)
    return np.where(a < 0.5, 0.75 - a * a,
                    np.where(a < 1.5, 0.5 * (1.5 - a) ** 2, 0.0))


def test_quadratic_support_weights_match_kernel():
    rng = np.random.default_rng(3)
    h = 1e-6
    for u in (2.37, 0.5, rng.uniform(-4, 4, 300),
              rng.uniform(-4, 4, (3, 200))):
        i0, w, dw = support_weights(u, 0, 1, degree=2)
        # the support starts at the node below the nearest one
        assert np.array_equal(i0, np.floor(np.asarray(u) + 0.5) - 1)
        assert w.shape == dw.shape == (3,) + np.shape(u)
        assert np.array_equal(support_weights(u, 1, degree=2)[1], dw)
        # node - u, tap-major
        x = np.moveaxis(np.asarray(i0)[..., None] + np.arange(3)
                        - np.asarray(u)[..., None], -1, 0)
        assert np.allclose(w, _bspline2(x), atol=1e-12)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        # rows are kernel derivatives at node - u
        fd = (_bspline2(x + h) - _bspline2(x - h)) / (2 * h)
        assert np.allclose(dw, fd, atol=1e-6)
    with pytest.raises(ValueError, match="derivative order"):
        support_weights(1.0, 2, degree=2)


def _closed_form_rows(f, deriv, degree):
    """The 1D weight rows at fractional parts f, each one NumPy
    expression evaluated left to right."""
    if degree == 2:
        lo, hi = 0.5 - f, 0.5 + f
        return {0: [0.5 * lo * lo, 0.75 - f * f, 0.5 * hi * hi],
                1: [0.5 - f, 2.0 * f, -0.5 - f]}[deriv]
    g = 1.0 - f
    return {0: [g * g * g / 6.0,
                (3.0 * f * f * f - 6.0 * f * f + 4.0) / 6.0,
                (-3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0) / 6.0,
                f * f * f / 6.0],
            1: [0.5 * g * g, 2.0 * f - 1.5 * f * f, -2.0 * g + 1.5 * g * g,
                -0.5 * f * f],
            2: [g, 3.0 * f - 2.0, 1.0 - 3.0 * f, f]}[deriv]


@pytest.mark.parametrize("layout", ["C", "F", "strided", "transposed"])
@pytest.mark.parametrize("degree, orders", [(3, (0, 1, 2)), (2, (0, 1))])
def test_support_weights_rows_are_the_closed_forms_on_any_layout(
        layout, degree, orders):
    rng = np.random.default_rng(8)
    u = rng.uniform(-4.0, 40.0, (3, 3001))
    u[:, :40] = np.round(u[:, :40] * 2.0) / 2.0  # integers, half-integers
    u = {"C": u, "F": np.asfortranarray(u), "strided": u[:, ::3],
         "transposed": u.T}[layout]
    iu = np.floor(u + 0.5) if degree == 2 else np.floor(u)
    f = u - iu
    i0, *together = support_weights(u, *orders, degree=degree)
    assert i0.dtype == np.int64 and np.array_equal(i0, iu - 1)
    for deriv, rows in zip(orders, together):
        ref = np.stack(_closed_form_rows(f, deriv, degree))
        i0_alone, alone = support_weights(u, deriv, degree=degree)
        assert np.array_equal(i0_alone, i0)
        for got in (rows, alone):
            # the same bits, signed zeros included
            assert got.shape == (degree + 1,) + u.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_kernel_derivatives_match_finite_differences():
    t = np.linspace(-1.9, 1.9, 41)
    h = 1e-6
    fd1 = (bspline3(t + h) - bspline3(t - h)) / (2 * h)
    assert np.allclose(bspline3_d1(t), fd1, atol=1e-7)
    fd2 = (bspline3_d1(t + h) - bspline3_d1(t - h)) / (2 * h)
    assert np.allclose(bspline3_d2(t), fd2, atol=1e-6)


def test_refine_mask_and_1d_subdivision():
    assert np.allclose(REFINE_MASK.sum(), 2.0)
    rng = np.random.default_rng(2)
    coef = rng.normal(size=12)
    fine = refine_coefficients_1d(coef, 0)
    assert fine.shape == (23,)

    # the subdivided coefficients represent the same spline at half spacing
    def eval_spline(c, x, spacing):
        u = x / spacing
        i0, w = support_weights(u)
        val = 0.0
        for o in range(4):
            i = i0 + o
            if 0 <= i < len(c):
                val += w[o] * c[i]
        return val

    for x in np.linspace(2.0, 8.0, 17):
        a = eval_spline(coef, x, 1.0)
        b = eval_spline(fine, x, 0.5)
        assert a == pytest.approx(b, abs=1e-12)


# ----------------------------------------------------------------- affine

def test_affine_apply_and_identity():
    a = AffineTransform(np.diag([2.0, 1.0, 0.5]), np.array([1.0, -1.0, 0.0]))
    p = np.array([[1.0, 2.0, 4.0]])
    assert np.allclose(affine_apply(a, p), [[3.0, 1.0, 2.0]])
    ident = AffineTransform.identity()
    assert np.allclose(affine_apply(ident, p), p)


@pytest.mark.parametrize("shape", [(3,), (7, 3), (4, 5, 3), (12000, 3)])
def test_affine_apply_adds_the_translation_in_place_with_the_same_bits(shape):
    rng = np.random.default_rng(41)
    a = AffineTransform(np.eye(3) + rng.normal(0, 0.1, (3, 3)),
                        rng.normal(0, 20.0, 3))
    x = rng.normal(0, 50.0, shape)
    got = affine_apply(a, x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(got, x @ a.matrix.T + a.translation)


def test_affine_rejects_singular_matrix():
    with pytest.raises(ValueError):
        AffineTransform(np.zeros((3, 3)), np.zeros(3))


def test_transforms_reject_nonfinite_values(tmp_path):
    bad = np.eye(3)
    bad[1, 2] = np.nan  # abs(det) is NaN, which passes a singularity check
    with pytest.raises(ValueError, match="affine matrix must be finite"):
        AffineTransform(bad, np.zeros(3))
    with pytest.raises(ValueError,
                       match="affine translation must be finite"):
        AffineTransform(np.eye(3), [0.0, np.inf, 0.0])
    geom = lattice_covering((0, 0, 0), (12, 12, 12), 6.0)
    coef = np.zeros(geom.dims + (3,))
    coef[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="FFD coefficients must be finite"):
        FFDTransform(geom, coef)
    # json reads NaN and Infinity tokens: an edited file fails on load
    path = tmp_path / "t.json"
    save_transform(path, ComposedTransform(
        AffineTransform(np.eye(3), [1.0, 2.0, 3.0]),
        FFDTransform(geom, np.full(geom.dims + (3,), 0.5))))
    text = path.read_text()
    for edit, field in (
            (('"coefficients": [0.5', '"coefficients": [NaN'),
             "FFD coefficients must be finite"),
            (('"translation": [1.0, 2.0', '"translation": [1.0, Infinity'),
             "affine translation must be finite"),
            (('"spacing": [6.0', '"spacing": [NaN'), "spacing"),
            (('"origin": [-6.0', '"origin": [NaN'), "origin")):
        assert edit[0] in text
        path.write_text(text.replace(*edit, 1))
        with pytest.raises(ValueError, match=field):
            load_transform(path)


# -------------------------------------------------------------------- ffd

def test_lattice_covering_supports_domain():
    geom = lattice_covering((0.0, 0.0, 0.0), (23.0, 10.0, 7.0), 5.0)
    ffd = FFDTransform.zeros(geom)
    # every point of the requested domain is evaluable
    rng = np.random.default_rng(3)
    pts = rng.uniform((0.0, 0.0, 0.0), (23.0, 10.0, 7.0), (200, 3))
    disp = ffd_displace(ffd, pts)
    assert np.allclose(disp, 0.0)


def test_ffd_requires_four_nodes_per_axis():
    geom = GridGeometry((3, 4, 4), (5, 5, 5), (0, 0, 0))
    with pytest.raises(ValueError):
        FFDTransform.zeros(geom)


def test_ffd_outside_support_errors():
    geom = lattice_covering((0, 0, 0), (10, 10, 10), 5.0)
    ffd = FFDTransform.zeros(geom)
    with pytest.raises(ValueError):
        ffd_displace(ffd, np.array([[500.0, 0.0, 0.0]]))


def test_ffd_reproduces_constant_displacement():
    geom = lattice_covering((0, 0, 0), (20, 20, 20), 4.0)
    coef = np.tile(np.array([1.5, -2.0, 0.25]), geom.dims + (1,))
    ffd = FFDTransform(geom, coef)
    pts = np.random.default_rng(4).uniform(2, 18, (100, 3))
    disp = ffd_displace(ffd, pts)
    assert np.allclose(disp, [1.5, -2.0, 0.25], atol=1e-9)


def test_ffd_reproduces_linear_displacement():
    # B-splines reproduce linear functions when coefficients sample them
    geom = lattice_covering((0, 0, 0), (20, 20, 20), 4.0)
    nodes = geom.grid_world_points()
    m = np.array([[0.02, 0.01, 0.0], [0.0, -0.03, 0.01], [0.0, 0.0, 0.05]])
    coef = nodes @ m.T
    ffd = FFDTransform(geom, coef)
    pts = np.random.default_rng(5).uniform(2, 18, (100, 3))
    disp = ffd_displace(ffd, pts)
    assert np.allclose(disp, pts @ m.T, atol=1e-9)


def test_compose_apply_order():
    # affine first, then the FFD evaluated in the aligned space
    geom = lattice_covering((-30, -30, -30), (60, 60, 60), 10.0)
    coef = np.tile(np.array([1.0, 0.0, 0.0]), geom.dims + (1,))
    comp = ComposedTransform(
        AffineTransform(2.0 * np.eye(3), np.zeros(3)),
        FFDTransform(geom, coef))
    out = compose_apply(comp, np.array([[3.0, 4.0, 5.0]]))
    assert np.allclose(out, [[7.0, 8.0, 10.0]], atol=1e-9)


def test_compose_apply_evaluates_the_ffd_at_the_target_point():
    # x -> A x + u(x): a linear field tells u(x) from u(A x)
    geom = lattice_covering((-30, -30, -30), (60, 60, 60), 10.0)
    coef = geom.grid_world_points() @ np.diag([0.1, 0.0, -0.05])
    comp = ComposedTransform(
        AffineTransform(2.0 * np.eye(3), np.array([1.0, 0.0, 0.0])),
        FFDTransform(geom, coef))
    out = compose_apply(comp, np.array([[3.0, 4.0, 5.0]]))
    assert np.allclose(out, [[7.3, 8.0, 9.75]], atol=1e-9)


# ------------------------------------------------------- bending penalty

def _sample_grid(lo, hi, n, ):
    span = np.array(hi) - np.array(lo)
    spacing = span / (n - 1)
    return GridGeometry((n, n, n), tuple(spacing), tuple(lo))


def test_bending_energy_zero_on_affine_fields():
    rng = np.random.default_rng(6)
    geom = lattice_covering((0, 0, 0), (30, 30, 30), 6.0)
    nodes = geom.grid_world_points()
    m = rng.normal(0.0, 0.05, (3, 3))
    t = rng.normal(0.0, 2.0, 3)
    ffd = FFDTransform(geom, nodes @ m.T + t)
    p, grad = bending_energy(ffd, _sample_grid((2, 2, 2), (28, 28, 28), 9))
    assert p <= 1e-9
    assert grad.shape == ffd.coefficients.shape


def test_bending_energy_quadratic_closed_form():
    # coefficients sampling x^2 for the x-displacement: the represented
    # field is x^2 + const (B-splines reproduce quadratics up to a constant
    # offset), so d2u/dx2 = 2 everywhere and P = 2^2 = 4.
    geom = lattice_covering((0, 0, 0), (40, 40, 40), 4.0)
    nodes = geom.grid_world_points()
    coef = np.zeros(geom.dims + (3,))
    coef[..., 0] = nodes[..., 0] ** 2
    ffd = FFDTransform(geom, coef)
    p, _ = bending_energy(ffd, _sample_grid((5, 5, 5), (35, 35, 35), 11),
                          with_gradient=False)
    assert p == pytest.approx(4.0, rel=1e-9)


def test_bending_energy_matches_dense_finite_differences():
    # independent oracle: central finite differences of the displacement
    # field itself, mean over a 21^3 grid
    rng = np.random.default_rng(7)
    geom = lattice_covering((0, 0, 0), (24, 24, 24), 6.0)
    ffd = FFDTransform(geom, rng.normal(0.0, 1.0, geom.dims + (3,)))
    sample = _sample_grid((4, 4, 4), (20, 20, 20), 21)

    h = 1e-3
    pts = sample.grid_world_points().reshape(-1, 3)
    total = np.zeros(len(pts))
    for a in range(3):
        ea = np.zeros(3)
        ea[a] = h
        f0 = ffd_displace(ffd, pts)
        fp = ffd_displace(ffd, pts + ea)
        fm = ffd_displace(ffd, pts - ea)
        d2 = (fp - 2 * f0 + fm) / h ** 2
        total += np.sum(d2 ** 2, axis=1)
        for b in range(a + 1, 3):
            eb = np.zeros(3)
            eb[b] = h
            fpp = ffd_displace(ffd, pts + ea + eb)
            fpm = ffd_displace(ffd, pts + ea - eb)
            fmp = ffd_displace(ffd, pts - ea + eb)
            fmm = ffd_displace(ffd, pts - ea - eb)
            dab = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
            total += 2.0 * np.sum(dab ** 2, axis=1)
    oracle = total.mean()

    p, _ = bending_energy(ffd, sample, with_gradient=False)
    assert abs(p - oracle) / oracle <= 1e-4


def test_bending_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    geom = lattice_covering((0, 0, 0), (18, 18, 18), 6.0)
    ffd = FFDTransform(geom, rng.normal(0.0, 1.0, geom.dims + (3,)))
    sample = _sample_grid((2, 2, 2), (16, 16, 16), 7)
    _, grad = bending_energy(ffd, sample)

    d = rng.normal(size=ffd.coefficients.shape)
    eps = 1e-5
    plus, _ = bending_energy(FFDTransform(geom, ffd.coefficients + eps * d),
                             sample, with_gradient=False)
    minus, _ = bending_energy(FFDTransform(geom, ffd.coefficients - eps * d),
                              sample, with_gradient=False)
    fd = (plus - minus) / (2 * eps)
    an = float(np.sum(grad * d))
    assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-6


def test_bending_energy_empty_grid_errors():
    geom = lattice_covering((0, 0, 0), (10, 10, 10), 5.0)
    ffd = FFDTransform.zeros(geom)
    bad = GridGeometry((2, 2, 2), (100.0, 100.0, 100.0), (0, 0, 0))
    with pytest.raises(ValueError):
        bending_energy(ffd, bad)


# ------------------------------------------------------------ refinement

def test_refine_ffd_preserves_field():
    rng = np.random.default_rng(9)
    geom = lattice_covering((0, 0, 0), (30, 30, 30), 6.0)
    ffd = FFDTransform(geom, rng.normal(size=geom.dims + (3,)))
    fine = refine_ffd(ffd)
    assert fine.control_geom.spacing == (3.0, 3.0, 3.0)
    assert fine.control_geom.dims == tuple(2 * d - 1 for d in geom.dims)
    pts = rng.uniform(5, 25, (300, 3))
    assert np.allclose(ffd_displace(ffd, pts), ffd_displace(fine, pts),
                       atol=1e-12)


# ------------------------------------------------------------- round trip

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    geom = lattice_covering((0, 0, 0), (12, 12, 12), 6.0)
    comp = ComposedTransform(
        AffineTransform(np.eye(3) + rng.normal(0, 0.01, (3, 3)),
                        rng.normal(size=3)),
        FFDTransform(geom, rng.normal(size=geom.dims + (3,))))
    path = tmp_path / "t.json"
    save_transform(path, comp)
    back = load_transform(path)
    assert np.array_equal(back.affine.matrix, comp.affine.matrix)
    assert np.array_equal(back.affine.translation, comp.affine.translation)
    assert np.array_equal(back.ffd.coefficients, comp.ffd.coefficients)
    assert back.ffd.control_geom == comp.ffd.control_geom


def test_load_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_transform(path)


def test_load_rejects_the_aligned_space_form(tmp_path):
    # a v1 file's FFD was fitted as x -> A x + u(A x); read as v2 it
    # would warp differently, so it is refused, not misread
    geom = lattice_covering((0, 0, 0), (12, 12, 12), 6.0)
    path = tmp_path / "v1.json"
    save_transform(path, ComposedTransform(AffineTransform.identity(),
                                           FFDTransform.zeros(geom)))
    path.write_text(path.read_text().replace("vertseg-transform-v2",
                                             "vertseg-transform-v1"))
    with pytest.raises(ValueError, match="affinely aligned space"):
        load_transform(path)


# ------------------------------------------------------------- operators

def _dense_basis(geom, pts):
    """(V, n_nodes) tensor B-spline weights from the kernel at every node
    offset, nodes in C order."""
    u = geom.world_to_voxel(pts)
    rows = []
    for v in range(len(pts)):
        w = [bspline3(np.arange(n) - u[v, a])
             for a, n in enumerate(geom.dims)]
        rows.append((w[0][:, None, None] * w[1][None, :, None]
                     * w[2][None, None, :]).ravel())
    return np.array(rows)


def _operator_fixture(seed):
    rng = np.random.default_rng(seed)
    geom = lattice_covering((0, 0, 0), (20, 14, 17), 4.0)
    pts = rng.uniform((0, 0, 0), (20, 14, 17), (150, 3))
    return rng, geom, pts


def test_ffd_basis_matches_dense_kernel_reference():
    rng, geom, pts = _operator_fixture(20)
    ffd = FFDTransform(geom, rng.normal(size=geom.dims + (3,)))
    disp = ffd_displace(ffd, pts)
    assert disp.shape == (150, 3)
    ref = _dense_basis(geom, pts) @ ffd.coefficients.reshape(-1, 3)
    assert np.abs(disp - ref).max() <= 1e-12


def test_ffd_basis_rows_are_partitions_of_unity():
    # the 64 weights of each point sum to 1: constant coefficients give
    # that constant
    _, geom, pts = _operator_fixture(21)
    ffd = FFDTransform(geom, np.tile([1.5, -2.0, 0.25], geom.dims + (1,)))
    assert np.allclose(ffd_displace(ffd, pts), [1.5, -2.0, 0.25], rtol=0,
                       atol=1e-12)


def test_ffd_basis_outside_support_errors():
    _, geom, pts = _operator_fixture(23)
    ffd = FFDTransform.zeros(geom)
    # the high and low side of every axis, one bad point among good ones
    for axis in range(3):
        for far in (500.0, -50.0):
            bad = np.full((1, 3), 5.0)
            bad[0, axis] = far
            with pytest.raises(ValueError, match="outside FFD lattice support"):
                ffd_displace(ffd, np.vstack([pts, bad]))


def test_ffd_displace_across_block_boundaries():
    rng, geom, _ = _operator_fixture(24)
    ffd = FFDTransform(geom, rng.normal(size=geom.dims + (3,)))
    pts = rng.uniform((0, 0, 0), (20, 14, 17), (2 * BLOCK_POINTS + 17, 3))
    disp = ffd_displace(ffd, pts)
    # each point sums on its own, so blocking changes no bit
    whole = _per_axis_ffd_basis(geom, pts) @ ffd.coefficients.reshape(-1, 3)
    assert np.array_equal(disp, whole)
    edges = np.r_[0, BLOCK_POINTS - 1, BLOCK_POINTS, 2 * BLOCK_POINTS - 1,
                  2 * BLOCK_POINTS, len(pts) - 1]
    ref = _dense_basis(geom, pts[edges]) @ ffd.coefficients.reshape(-1, 3)
    assert np.abs(disp[edges] - ref).max() <= 1e-12
    # leading axes are kept
    assert ffd_displace(ffd, pts[:12].reshape(3, 4, 3)).shape == (3, 4, 3)


def _grid_cases():
    """(lattice, grid, indices) of a full grid, a sorted subset of one,
    and a pyramid level made by `downsample`, all inside the lattice."""
    grid = GridGeometry((13, 11, 9), (1.2, 0.9, 1.6), (-3.0, 2.5, 1.0))
    lattice = lattice_covering((-3.0, 2.5, 1.0), (12.0, 12.5, 14.0), 4.0)
    n = int(np.prod(grid.dims))
    subset = np.sort(np.random.default_rng(25).choice(n, 400,
                                                      replace=False))
    coarse = downsample(ScalarVolume(grid, np.zeros(grid.dims)),
                        (2, 2, 2)).geometry
    # the whole-grid evaluation of `warp_atlas` and the phantom's smooth
    # FFD: every voxel of a grid whose far corner ends the lattice domain
    hi = np.add(grid.origin, np.multiply(np.subtract(grid.dims, 1),
                                         grid.spacing))
    tight = lattice_covering(grid.origin, hi, 3.0)
    return [pytest.param(lattice, grid, np.arange(n), id="full"),
            pytest.param(lattice, grid, subset, id="subset"),
            pytest.param(lattice, coarse,
                         np.arange(int(np.prod(coarse.dims))),
                         id="pyramid"),
            pytest.param(tight, grid, np.arange(n), id="whole_domain")]


@pytest.mark.parametrize("lattice, grid, indices", _grid_cases())
def test_grid_basis_matches_ffd_basis_rows(lattice, grid, indices):
    rng = np.random.default_rng(26)
    pts = grid.grid_world_points().reshape(-1, 3)[indices]
    w = _per_axis_ffd_basis(lattice, pts)
    basis = GridBasis(lattice, grid, indices)
    c = rng.normal(size=lattice.dims + (3,))
    g = rng.normal(size=(len(indices), 3))
    forward, ref = basis.forward(c), w @ c.reshape(-1, 3)
    assert forward.shape == (len(indices), 3)
    assert np.abs(forward - ref).max() <= 1e-12 * np.abs(ref).max()
    adjoint, ref = basis.adjoint(g), w.T @ g
    assert adjoint.shape == (int(np.prod(lattice.dims)), 3)
    assert np.abs(adjoint - ref).max() <= 1e-12 * np.abs(ref).max()


def test_grid_basis_outside_lattice_errors():
    lattice = lattice_covering((0, 0, 0), (10, 10, 10), 5.0)
    # the high and low side of every axis
    for axis in range(3):
        for origin, extent in ((0.0, 500.0), (-50.0, 10.0)):
            o, s = np.zeros(3), np.ones(3)
            o[axis], s[axis] = origin, extent
            grid = GridGeometry((2, 2, 2), tuple(s), tuple(o))
            with pytest.raises(ValueError,
                               match="outside FFD lattice support"):
                GridBasis(lattice, grid, np.arange(8))


# ------------------------------------- bit pins of the per-axis builds

def _point_major_weights(u, deriv):
    """(i0, w) with w of shape u.shape + (4,): the closed-form weights of
    one derivative order, one call per axis, as the operators were built
    before they took tap-major rows from one call."""
    u = np.asarray(u, dtype=np.float64)
    iu = np.floor(u)
    f = u - iu
    g = 1.0 - f
    rows = {
        0: [g * g * g / 6.0, (3.0 * f * f * f - 6.0 * f * f + 4.0) / 6.0,
            (-3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0) / 6.0,
            f * f * f / 6.0],
        1: [0.5 * g * g, 2.0 * f - 1.5 * f * f, -2.0 * g + 1.5 * g * g,
            -0.5 * f * f],
        2: [g, 3.0 * f - 2.0, 1.0 - 3.0 * f, f],
    }[deriv]
    return iu.astype(np.int64) - 1, np.stack(rows, axis=-1)


def _per_axis_ffd_basis(geom, x):
    """The sparse (V, n_nodes) CSR basis W at world points x, nodes in C
    order, built axis by axis from point-major weights, with the product
    order (wx * wy) * wz: W @ coefficients sums each row's 64 products in
    node order."""
    u = geom.world_to_voxel(x).reshape(-1, 3)
    ny, nz = geom.dims[1:]
    offsets = support_offsets(geom.dims).astype(np.int32)
    data = np.empty((len(u), 16, 4))
    indices = np.empty((len(u), 64), dtype=np.int32)
    for start in range(0, len(u), BLOCK_POINTS):
        blk = slice(start, start + BLOCK_POINTS)
        i0s, ws = zip(*(_point_major_weights(u[blk, a], 0) for a in range(3)))
        base = ((i0s[0] * ny + i0s[1]) * nz + i0s[2]).astype(np.int32)
        np.add(base[:, None], offsets, out=indices[blk])
        wxy = (ws[0][:, :, None] * ws[1][:, None, :]).reshape(-1, 16)
        for k in range(4):
            np.multiply(wxy, ws[2][:, k, None], out=data[blk, :, k])
    indptr = 64 * np.arange(len(u) + 1, dtype=np.int64)
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr),
                             shape=(len(u), int(np.prod(geom.dims))))


def _per_order_bending_operator(geom, sample_geom):
    """bending_operator built with one point-major weight call per axis
    and derivative order."""
    sp = np.array(geom.spacing)
    u = [(sample_geom.origin[a] + np.arange(sample_geom.dims[a])
          * sample_geom.spacing[a] - geom.origin[a]) / geom.spacing[a]
         for a in range(3)]
    n_samples = np.prod(sample_geom.dims)
    gram = []
    for deriv in range(3):
        gram.append([])
        for a in range(3):
            i0, w = _point_major_weights(u[a], deriv)
            mat = np.zeros((u[a].size, geom.dims[a]))
            for o in range(4):
                mat[np.arange(u[a].size), i0 + o] = w[:, o]
            gram[deriv].append(sparse.csr_matrix(mat.T @ mat))
    q = sparse.csr_matrix((int(np.prod(geom.dims)),) * 2)
    for orders, lam in _DERIV_PAIRS:
        axes = _axes_of(orders)
        scale = 1.0 / (sp[axes[0]] * sp[axes[1]])
        q = q + (lam * scale * scale / n_samples) * sparse.kron(
            gram[orders[0]][0],
            sparse.kron(gram[orders[1]][1], gram[orders[2]][2]),
            format="csr")
    return q


@pytest.mark.parametrize("n_pts", [1, BLOCK_POINTS, BLOCK_POINTS + 1,
                                   2 * BLOCK_POINTS + 17])
def test_ffd_basis_matches_per_axis_build_bit_for_bit(n_pts):
    rng, geom, _ = _operator_fixture(27)
    ffd = FFDTransform(geom, rng.normal(size=geom.dims + (3,)))
    pts = rng.uniform((0, 0, 0), (20, 14, 17), (n_pts, 3))
    assert np.array_equal(
        ffd_displace(ffd, pts),
        _per_axis_ffd_basis(geom, pts) @ ffd.coefficients.reshape(-1, 3))


_BENDING_CASES = [
    (((0, 0, 0), (14, 10, 12), 4.0), ((1, 1, 1), (13, 9, 11), 6)),
    (((-3, 2, 0), (21, 15, 18), 3.0), ((-2, 3, 1), (20, 14, 17), 11)),
]


def _dense(q, geom):
    """The (n_nodes, n_nodes) matrix of the separable bending operator."""
    return q @ np.eye(int(np.prod(geom.dims)))


@pytest.mark.parametrize("lattice, sample_grid", _BENDING_CASES)
def test_bending_operator_matches_per_order_build_bit_for_bit(lattice,
                                                               sample_grid):
    geom = lattice_covering(*lattice)
    sample_geom = _sample_grid(*sample_grid)
    assert np.array_equal(
        _dense(bending_operator(geom, sample_geom), geom),
        _per_order_bending_operator(geom, sample_geom).toarray())


@pytest.mark.parametrize("lattice, sample_grid", _BENDING_CASES)
@pytest.mark.parametrize("k", [3, 1])
def test_bending_operator_applies_like_the_kronecker_sum(lattice,
                                                         sample_grid, k):
    rng = np.random.default_rng(28)
    geom = lattice_covering(*lattice)
    sample_geom = _sample_grid(*sample_grid)
    c = rng.normal(0.0, 1.0, (int(np.prod(geom.dims)), k))
    qc = bending_operator(geom, sample_geom) @ c
    ref = _per_order_bending_operator(geom, sample_geom) @ c
    assert qc.shape == ref.shape
    assert np.abs(qc - ref).max() <= 1e-14 * np.abs(ref).max()


def _einsum_bending(ffd, sample_geom):
    """Bending energy and gradient by separable per-term contractions
    (the derivative weights applied axis by axis)."""
    geom = ffd.control_geom
    u = [(sample_geom.origin[a] + np.arange(sample_geom.dims[a])
          * sample_geom.spacing[a] - geom.origin[a]) / geom.spacing[a]
         for a in range(3)]
    n = np.prod(sample_geom.dims)
    value, grad = 0.0, np.zeros(ffd.coefficients.shape)
    for orders, lam in _DERIV_PAIRS:
        wa, wb, wc = (_axis_weight_matrix(*support_weights(u[a], orders[a]),
                                          geom.dims[a]) for a in range(3))
        axes = _axes_of(orders)
        scale = 1.0 / (geom.spacing[axes[0]] * geom.spacing[axes[1]])
        f = scale * np.einsum("ai,bj,ck,ijkd->abcd", wa, wb, wc,
                              ffd.coefficients)
        value += lam * float(np.sum(f * f)) / n
        grad += (2.0 * lam * scale / n) * np.einsum(
            "ai,bj,ck,abcd->ijkd", wa, wb, wc, f)
    return value, grad


def test_bending_operator_symmetric_psd():
    geom = lattice_covering((0, 0, 0), (14, 10, 12), 4.0)
    dense = _dense(bending_operator(geom,
                                    _sample_grid((1, 1, 1), (13, 9, 11), 6)),
                   geom)
    assert np.allclose(dense, dense.T, rtol=0,
                       atol=1e-15 * np.abs(dense).max())
    eig = np.linalg.eigvalsh(dense)
    assert eig.min() >= -1e-12 * eig.max()


def test_bending_operator_zero_on_affine_fields():
    rng = np.random.default_rng(25)
    geom = lattice_covering((0, 0, 0), (30, 30, 30), 6.0)
    q = bending_operator(geom, _sample_grid((2, 2, 2), (28, 28, 28), 9))
    nodes = geom.grid_world_points().reshape(-1, 3)
    c = nodes @ rng.normal(0.0, 0.05, (3, 3)).T + rng.normal(0.0, 2.0, 3)
    scale = np.abs(_dense(q, geom)).sum(axis=1).max() * np.abs(c).max()
    assert np.abs(q @ c).max() <= 1e-12 * scale


def test_bending_energy_matches_separable_contraction():
    rng = np.random.default_rng(26)
    geom = lattice_covering((0, 0, 0), (21, 15, 18), 3.0)
    geom = GridGeometry(geom.dims, (3.0, 2.5, 2.0), geom.origin)
    ffd = FFDTransform(geom, rng.normal(0.0, 1.0, geom.dims + (3,)))
    sample = GridGeometry((9, 7, 8), (2.1, 1.9, 1.7), (1.0, 0.5, 0.8))
    p, grad = bending_energy(ffd, sample)
    p_ref, grad_ref = _einsum_bending(ffd, sample)
    assert p == pytest.approx(p_ref, rel=1e-12)
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


def test_save_transform_text_is_pinned_and_round_trips_exactly(tmp_path):
    affine = AffineTransform(
        np.array([[1.0, 0.1, 0.0], [0.0, 1.0, -0.2], [1 / 3, 0.0, 1.0]]),
        np.array([0.5, -1.25, 1e-17]))
    geom = GridGeometry((4, 4, 5), (5.0, 5.0, 2.5), (-5.0, -7.5, 0.0))
    coef = (np.arange(240) / 7.0 - 13.0).reshape(4, 4, 5, 3)
    head = ('{"format": "vertseg-transform-v2", "affine": {"matrix": '
            '[[1.0, 0.1, 0.0], [0.0, 1.0, -0.2], [0.3333333333333333, 0.0, '
            '1.0]], "translation": [0.5, -1.25, 1e-17]}')
    path = tmp_path / "t.json"
    save_transform(path, ComposedTransform(affine, None))
    assert path.read_text() == head + "}"

    comp = ComposedTransform(affine, FFDTransform(geom, coef))
    save_transform(path, comp)
    text = path.read_text()
    assert text.startswith(
        head + ', "ffd": {"dims": [4, 4, 5], "spacing": [5.0, 5.0, 2.5], '
        '"origin": [-5.0, -7.5, 0.0], "coefficients": [-13.0, '
        '-12.857142857142858, -12.714285714285714, -12.57142857142857')
    assert len(text) == 4566
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ce75e36d7b0a86f5b424e0d8a1f79033801c0ad2b1cbb298807533c94b012783")
    back = load_transform(path)
    assert back.affine.matrix.tobytes() == affine.matrix.tobytes()
    assert back.affine.translation.tobytes() == affine.translation.tobytes()
    assert back.ffd.control_geom == geom
    assert back.ffd.coefficients.tobytes() == coef.tobytes()
