"""Registration behavior tests on small synthetic volumes.

These use a blurred random-blob image so NMI has a clean optimum, and
keep the grids small so each optimization finishes in a couple seconds.
"""

import numpy as np
import pytest
from scipy import ndimage

from vertseg.registration import (RegistrationConfig, RegistrationResult,
                                  register_affine, register_ffd, warp_atlas)
from vertseg.transform import (AffineTransform, ComposedTransform,
                               FFDTransform, affine_apply, compose_apply,
                               lattice_covering)
from vertseg.volume import GridGeometry, LabelVolume, ScalarVolume, resample


def _blob_image(seed, dims=(24, 24, 24), spacing=(1.5, 1.5, 1.5)):
    rng = np.random.default_rng(seed)
    data = ndimage.gaussian_filter(rng.normal(size=dims), 2.5)
    data = 400.0 * data / np.abs(data).max()
    return ScalarVolume(GridGeometry(dims, spacing, (0.0, 0.0, 0.0)), data)


def _quick_cfg(**kw):
    base = dict(pyramid_levels=2, max_iters_per_level=8,
                max_sample_voxels=8000)
    base.update(kw)
    return RegistrationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        RegistrationConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        RegistrationConfig(pyramid_levels=0)
    with pytest.raises(ValueError):
        RegistrationConfig(control_spacing_mm=0.0)


def test_register_affine_identity_on_identical_images():
    img = _blob_image(0)
    aff = register_affine(img, img, _quick_cfg())
    # induced motion of the domain center stays under 0.1 voxel
    center = np.array([17.25, 17.25, 17.25])
    moved = affine_apply(aff, center)
    assert np.linalg.norm(moved - center) <= 0.15
    assert np.max(np.abs(aff.matrix - np.eye(3))) <= 1e-2


def test_register_affine_recovers_translation():
    img = _blob_image(1)
    true_t = np.array([3.0, -1.5, 2.0])

    def pullback(p):
        return p + true_t

    warped = resample(img, img.geometry, pullback)
    aff = register_affine(warped, img, _quick_cfg())
    # registering target=warped against floating=img should recover the
    # pull-back map, i.e. translation ~ true_t
    center = np.array([17.25, 17.25, 17.25])
    err = affine_apply(aff, center) - (center + true_t)
    assert np.linalg.norm(err) <= 0.75  # half a voxel


def test_register_affine_recovers_scale():
    img = _blob_image(2)
    center = np.array([17.25, 17.25, 17.25])
    s = 1.08

    def pullback(p):
        return center + s * (p - center)

    warped = resample(img, img.geometry, pullback)
    aff = register_affine(warped, img, _quick_cfg(max_iters_per_level=15))
    est = np.diag(aff.matrix).mean()
    assert abs(est - s) / s <= 0.02


def test_register_ffd_trace_monotone_within_level():
    img = _blob_image(3)
    warped = resample(img, img.geometry,
                      lambda p: p + np.array([2.0, 0.0, -1.0]))
    cfg = _quick_cfg(control_spacing_mm=12.0, max_iters_per_level=6)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    assert isinstance(res, RegistrationResult)
    assert len(res.per_level_trace) >= 1
    by_level = {}
    for it, level, c, nmi_val, p_val in res.per_level_trace:
        by_level.setdefault(level, []).append(c)
        assert p_val >= 0.0
    for cs in by_level.values():
        assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))


def test_register_affine_rejects_constant_images():
    img = _blob_image(4)
    flat = ScalarVolume(img.geometry, np.zeros(img.geometry.dims))
    with pytest.raises(ValueError):
        register_affine(flat, img)
    with pytest.raises(ValueError):
        register_affine(img, flat)


def test_register_ffd_identity_stays_small():
    img = _blob_image(5)
    cfg = _quick_cfg(control_spacing_mm=12.0, max_iters_per_level=5)
    res = register_ffd(img, img, AffineTransform.identity(), cfg)
    ffd = res.transform.ffd
    assert ffd is not None
    # no deformation to explain: recovered displacements stay tiny
    pts = img.geometry.grid_world_points().reshape(-1, 3)[::17]
    disp = compose_apply(res.transform, pts) - pts
    assert np.abs(disp).max() <= 1.0  # well under the 1.5 mm voxel size


def test_register_ffd_reduces_objective_vs_start():
    img = _blob_image(6)

    def pullback(p):
        return p + 2.0 * np.stack([np.sin(p[..., 1] / 8.0),
                                   np.cos(p[..., 0] / 9.0),
                                   np.zeros_like(p[..., 0])], axis=-1)

    warped = resample(img, img.geometry, pullback)
    cfg = _quick_cfg(control_spacing_mm=10.0, max_iters_per_level=8)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    trace = res.per_level_trace
    assert trace[-1][2] >= trace[0][2]  # objective improved overall
    # recovered warp tracks the synthetic one on interior points
    pts = img.geometry.voxel_to_world(
        np.random.default_rng(0).uniform(6, 17, (300, 3)))
    err = np.linalg.norm(compose_apply(res.transform, pts) - pullback(pts),
                         axis=1)
    assert err.mean() <= 1.5  # one voxel


def test_warp_atlas_identity_round_trip():
    img = _blob_image(7)
    lbl = LabelVolume(img.geometry,
                      (img.data > 100).astype(np.int32) * 3)
    wimg, wlbl = warp_atlas(img, lbl, ComposedTransform.identity(),
                            img.geometry)
    assert np.allclose(wimg.data, img.data, atol=1e-9)
    assert np.array_equal(wlbl.data, lbl.data)


def test_warp_atlas_translation_shifts_labels():
    g = GridGeometry((8, 8, 8), (1, 1, 1), (0, 0, 0))
    data = np.zeros((8, 8, 8))
    data[4, 4, 4] = 100.0
    lab = np.zeros((8, 8, 8), dtype=np.int32)
    lab[4, 4, 4] = 2
    comp = ComposedTransform(
        AffineTransform(np.eye(3), np.array([1.0, 0.0, 0.0])), None)
    wimg, wlbl = warp_atlas(ScalarVolume(g, data), LabelVolume(g, lab),
                            comp, g)
    # pull-back through x -> x+1 moves content one voxel toward -x
    assert wlbl.data[3, 4, 4] == 2
    assert wlbl.data.sum() == 2
    assert wimg.data[3, 4, 4] == pytest.approx(100.0)


def test_warp_atlas_label_values_preserved():
    img = _blob_image(8)
    rng = np.random.default_rng(9)
    lbl = LabelVolume(img.geometry, rng.integers(0, 5, img.geometry.dims))
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.02, np.array([0.4, -0.3, 0.2])), None)
    _, wlbl = warp_atlas(img, lbl, comp, img.geometry)
    assert set(np.unique(wlbl.data)).issubset(set(np.unique(lbl.data)) | {0})


def test_warp_atlas_equals_two_resample_calls():
    # one evaluation of the composed transform serves both outputs; each
    # must equal its own resample through that transform, bit for bit
    img = _blob_image(10, dims=(14, 12, 10), spacing=(1.2, 1.0, 1.5))
    rng = np.random.default_rng(11)
    lbl = LabelVolume(img.geometry, rng.integers(0, 4, img.geometry.dims))
    lattice = lattice_covering(np.full(3, -4.0), np.full(3, 20.0), 4.0)
    ffd = FFDTransform(lattice, rng.normal(0.0, 0.8, lattice.dims + (3,)))
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.03, np.array([0.6, -0.4, 0.3])), ffd)
    target = GridGeometry((11, 13, 9), (1.1, 0.9, 1.4), (0.5, -0.5, 1.0))

    wimg, wlbl = warp_atlas(img, lbl, comp, target)

    def total(pts):
        return compose_apply(comp, pts)

    eimg = resample(img, target, total)
    elbl = resample(lbl, target, total)
    assert wimg.geometry == target and wlbl.geometry == target
    assert wimg.data.tobytes() == eimg.data.tobytes()
    assert wlbl.data.dtype == elbl.data.dtype
    assert wlbl.data.tobytes() == elbl.data.tobytes()
    assert len(np.unique(wlbl.data)) > 1
