"""Synthetic spine phantom tests: geometry, determinism, deformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertseg.phantom import PhantomSpec, deform_phantom, make_phantom
from vertseg.transform import GridBasis, affine_apply, compose_apply
from vertseg.volume import (BoundingBox, GridGeometry, LabelVolume,
                            ScalarVolume, resample, trilinear_sample)

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


def _reference_phantom(spec):
    """`make_phantom` evaluated on the full grid, shape by shape: the
    reference its per-vertebra boxes must reproduce bit for bit."""
    geom = GridGeometry(spec.dims, spec.spacing, (0.0, 0.0, 0.0))
    pts = geom.grid_world_points()
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    extent = [(geom.dims[a] - 1) * geom.spacing[a] for a in range(3)]

    rx, ry, rz = spec.body_radii_mm
    slot = 2.0 * rz + spec.disc_gap_mm
    total = spec.n_vertebrae * slot - spec.disc_gap_mm
    if total > extent[2] - 4.0:
        raise ValueError("vertebra stack does not fit the grid")
    z0 = (extent[2] - total) / 2.0 + rz
    cx = extent[0] / 2.0
    cy = extent[1] * 0.4
    proc_cy = cy + ry
    if proc_cy + 9.0 > extent[1] or cx - rx < 0:
        raise ValueError("vertebra cross-section does not fit the grid")

    labels = np.zeros(geom.dims, dtype=np.int32)
    image = np.full(geom.dims, spec.air_hu)
    centers = []
    for k in range(spec.n_vertebrae):
        zc = z0 + k * slot
        h = spec.height_scale[k]
        centers.append(zc)
        body = (((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2
                + ((z - zc) / (rz * h)) ** 2) <= 1.0
        proc = ((np.abs(x - cx) <= 3.0)
                & (y >= proc_cy - 2.0) & (y <= proc_cy + 8.0)
                & (np.abs(z - zc) <= 0.6 * rz * h))
        mask = (body | proc) & (labels == 0)
        labels[mask] = k + 1
        image[mask] = spec.bone_hu

    disc_r = 0.8 * min(rx, ry)
    for k in range(spec.n_vertebrae - 1):
        lo = centers[k] + rz * spec.height_scale[k]
        hi = centers[k + 1] - rz * spec.height_scale[k + 1]
        disc = ((((x - cx) / disc_r) ** 2 + ((y - cy) / disc_r) ** 2) <= 1.0) \
            & (z >= lo) & (z <= hi) & (labels == 0)
        image[disc] = spec.disc_hu

    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        image = image + rng.normal(0.0, spec.noise_sd, size=image.shape)

    boxes = []
    m = spec.box_margin_voxels
    for k in range(spec.n_vertebrae):
        idx = np.argwhere(labels == k + 1)
        lo = np.maximum(idx.min(axis=0) - m, 0)
        hi = np.minimum(idx.max(axis=0) + m, np.array(geom.dims) - 1)
        boxes.append(BoundingBox(tuple(lo), tuple(hi)))

    return ScalarVolume(geom, image), LabelVolume(geom, labels), boxes


@st.composite
def _phantom_specs(draw):
    n = draw(st.integers(1, 4))
    spacing = tuple(draw(st.floats(0.3, 1.5)) for _ in range(3))
    radii = (draw(st.floats(2.0, 8.0)), draw(st.floats(1.5, 6.0)),
             draw(st.floats(1.0, 6.0)))
    gap = draw(st.sampled_from([0.0, 0.7, 2.5]))
    heights = tuple(draw(st.sampled_from([1.0, 0.8, 0.45, 0.15]))
                    for _ in range(n))
    # the smallest grid that holds the stack and the cross-section
    # (see make_phantom's fit checks), plus a few voxels of slack
    need = (2.0 * radii[0] + 1.0, (radii[1] + 9.0) / 0.6 + 1.0,
            n * (2.0 * radii[2] + gap) - gap + 5.0)
    dims = tuple(int(np.ceil(e / s)) + 1 + draw(st.integers(0, 6))
                 for e, s in zip(need, spacing))
    return PhantomSpec(n_vertebrae=n, body_radii_mm=radii, disc_gap_mm=gap,
                       height_scale=heights, dims=dims, spacing=spacing,
                       noise_sd=draw(st.sampled_from([0.0, 12.0])),
                       seed=draw(st.integers(0, 2 ** 16)),
                       box_margin_voxels=draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(spec=_phantom_specs())
def test_make_phantom_equals_the_full_grid_reference(spec):
    try:
        want_img, want_lbl, want_boxes = _reference_phantom(spec)
    except ValueError:
        # a stack that does not fit, or a vertebra between voxel centers
        with pytest.raises(ValueError):
            make_phantom(spec)
        return
    img, lbl, boxes = make_phantom(spec)
    assert img.data.tobytes() == want_img.data.tobytes()
    assert lbl.data.tobytes() == want_lbl.data.tobytes()
    assert boxes == want_boxes


@pytest.mark.parametrize("overrides", [
    {}, dict(noise_sd=20.0, seed=3),
    dict(height_scale=(1.0, 0.6, 1.0, 0.3, 1.0), disc_gap_mm=0.0),
    SMALL, dict(SMALL, spacing=(0.7, 0.9, 1.1), dims=(40, 50, 70))])
def test_make_phantom_equals_the_reference_on_fixed_specs(overrides):
    spec = PhantomSpec(**overrides)
    img, lbl, boxes = make_phantom(spec)
    want_img, want_lbl, want_boxes = _reference_phantom(spec)
    assert img.data.tobytes() == want_img.data.tobytes()
    assert lbl.data.tobytes() == want_lbl.data.tobytes()
    assert boxes == want_boxes


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
