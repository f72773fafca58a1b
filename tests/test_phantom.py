"""Synthetic spine phantom tests: geometry, determinism, deformations."""

import numpy as np
import pytest

from vertseg.phantom import PhantomSpec, deform_phantom, make_phantom
from vertseg.transform import GridBasis, affine_apply, compose_apply
from vertseg.volume import resample, trilinear_sample

SMALL = dict(dims=(48, 48, 72), spacing=(0.8, 0.8, 1.0),
             body_radii_mm=(7.0, 5.0, 7.0), n_vertebrae=3)


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(n_vertebrae=3, height_scale=(1.0, 1.0))
    with pytest.raises(ValueError):
        PhantomSpec(height_scale=(1.5, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        PhantomSpec(body_radii_mm=(0.0, 5.0, 5.0))
    with pytest.raises(ValueError):
        PhantomSpec(disc_gap_mm=-1.0)


def test_stack_must_fit_grid():
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(n_vertebrae=12, dims=(48, 48, 48),
                                 spacing=(1.0, 1.0, 1.0)))


def test_phantom_labels_and_boxes():
    img, lbl, boxes = make_phantom(PhantomSpec(**SMALL))
    assert lbl.labels() == [1, 2, 3]
    assert len(boxes) == 3
    for k, box in enumerate(boxes):
        idx = np.argwhere(lbl.data == k + 1)
        assert np.all(idx.min(axis=0) >= np.array(box.min_index))
        assert np.all(idx.max(axis=0) <= np.array(box.max_index))
    # bone is bright, air is dark
    assert img.data[lbl.data > 0].min() > 200.0
    assert img.data[0, 0, 0] < -900.0


def test_phantom_deterministic():
    a_img, a_lbl, _ = make_phantom(PhantomSpec(noise_sd=15.0, **SMALL))
    b_img, b_lbl, _ = make_phantom(PhantomSpec(noise_sd=15.0, **SMALL))
    assert np.array_equal(a_img.data, b_img.data)
    assert np.array_equal(a_lbl.data, b_lbl.data)
    c_img, _, _ = make_phantom(PhantomSpec(noise_sd=15.0, seed=1, **SMALL))
    assert not np.array_equal(a_img.data, c_img.data)


def test_height_scale_compresses_one_vertebra():
    full_img, full_lbl, _ = make_phantom(PhantomSpec(**SMALL))
    sq_img, sq_lbl, _ = make_phantom(
        PhantomSpec(height_scale=(1.0, 0.6, 1.0), **SMALL))
    # the compressed vertebra loses volume; the others are unchanged
    assert (sq_lbl.data == 2).sum() < 0.8 * (full_lbl.data == 2).sum()
    assert np.array_equal(sq_lbl.data == 1, full_lbl.data == 1)
    assert np.array_equal(sq_lbl.data == 3, full_lbl.data == 3)
    # axial extent of vertebra 2 shrinks
    z_full = np.ptp(np.argwhere(full_lbl.data == 2)[:, 2])
    z_sq = np.ptp(np.argwhere(sq_lbl.data == 2)[:, 2])
    assert z_sq < z_full


def test_deform_zero_magnitude_is_identity():
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    wimg, wlbl, comp = deform_phantom(img, lbl, magnitude=0.0)
    assert np.array_equal(wimg.data, img.data)
    assert np.array_equal(wlbl.data, lbl.data)
    assert comp.ffd is None
    assert np.allclose(comp.affine.matrix, np.eye(3))


@pytest.mark.parametrize("magnitude", [-2.0, np.nan, np.inf])
@pytest.mark.parametrize("kind", ["translation", "affine", "smooth_ffd"])
def test_deform_rejects_negative_and_nonfinite_magnitude(kind, magnitude):
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    with pytest.raises(ValueError,
                       match="magnitude must be a finite number >= 0"):
        deform_phantom(img, lbl, kind=kind, magnitude=magnitude)


def test_deform_translation_pullback_property():
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    wimg, _, comp = deform_phantom(img, lbl, kind="translation",
                                   magnitude=2.5, seed=3)
    assert comp.ffd is None
    assert np.linalg.norm(comp.affine.translation) == pytest.approx(2.5)
    # pull-back property warped(x) = original(T(x)), exact at voxel
    # centers because that is where the resampling evaluated
    rng = np.random.default_rng(0)
    idx = rng.integers(8, 38, (300, 3)) * [1, 1, 72 // 48]
    pts = img.geometry.voxel_to_world(idx)
    got = wimg.data[idx[:, 0], idx[:, 1], idx[:, 2]]
    want = trilinear_sample(img, compose_apply(comp, pts))
    assert np.allclose(got, want, atol=1e-9)


def test_deform_smooth_ffd_magnitude_and_pullback():
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    for mag in (1.0, 3.0):
        wimg, _, comp = deform_phantom(img, lbl, kind="smooth_ffd",
                                       magnitude=mag, seed=5)
        assert comp.ffd is not None
        pts = img.geometry.grid_world_points().reshape(-1, 3)[::53]
        disp = compose_apply(comp, pts) - pts
        norms = np.linalg.norm(disp, axis=1)
        assert norms.max() <= mag + 1e-6
        assert norms.max() > 0.5 * mag  # scaling targets the grid peak


def test_deform_affine_kind_and_determinism():
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    w1, l1, c1 = deform_phantom(img, lbl, kind="affine", magnitude=2.0,
                                seed=7)
    w2, l2, c2 = deform_phantom(img, lbl, kind="affine", magnitude=2.0,
                                seed=7)
    assert np.array_equal(w1.data, w2.data)
    assert np.allclose(c1.affine.matrix, c2.affine.matrix)
    assert not np.allclose(c1.affine.matrix, np.eye(3))
    with pytest.raises(ValueError):
        deform_phantom(img, lbl, kind="rigid")


def test_deform_labels_stay_in_input_set():
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    _, wlbl, _ = deform_phantom(img, lbl, kind="smooth_ffd",
                                magnitude=3.0, seed=9)
    assert set(np.unique(wlbl.data)).issubset({0, 1, 2, 3})
    # labels move but survive the warp
    for lv in (1, 2, 3):
        assert (wlbl.data == lv).sum() > 0


@pytest.mark.parametrize("kind", ["translation", "affine", "smooth_ffd"])
def test_deform_equals_resampling_image_and_labels_separately(kind):
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    wimg, wlbl, comp = deform_phantom(img, lbl, kind=kind, magnitude=2.0,
                                      seed=4)

    # the mapping on the voxel grid: A x + u(x), u from the grid basis
    x = img.geometry.grid_world_points().reshape(-1, 3)
    disp = 0.0
    if comp.ffd is not None:
        disp = GridBasis(comp.ffd.control_geom, img.geometry,
                         np.arange(len(x))).forward(comp.ffd.coefficients)

    def total(pts):
        return affine_apply(comp.affine, pts) + disp

    ref = compose_apply(comp, x)
    assert np.abs(total(x) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert wimg.data.tobytes() == resample(img, img.geometry,
                                           total).data.tobytes()
    assert wlbl.data.tobytes() == resample(lbl, img.geometry,
                                           total).data.tobytes()


@pytest.mark.parametrize("kind", ["translation", "affine", "smooth_ffd"])
def test_deform_zero_magnitude_is_identity_for_every_kind(kind):
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    wimg, wlbl, comp = deform_phantom(img, lbl, kind=kind, magnitude=0.0)
    assert np.array_equal(wimg.data, img.data)
    assert np.array_equal(wlbl.data, lbl.data)
    assert comp.ffd is None
    assert np.array_equal(comp.affine.matrix, np.eye(3))


def test_deform_rejects_unknown_kind_at_zero_magnitude():
    # the zero-magnitude identity must not skip the kind check
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    with pytest.raises(ValueError, match="unknown deformation kind"):
        deform_phantom(img, lbl, kind="rigid", magnitude=0)
