"""Volume container, sampling, cropping and resampling tests."""

import numpy as np
import pytest

from vertseg.bspline import BLOCK_POINTS
from vertseg.volume import (BoundingBox, GridGeometry, LabelVolume,
                            ScalarVolume, bounding_box_of, crop, downsample,
                            label_boxes, nearest_sample, resample,
                            trilinear_sample)


def small_geom(dims=(8, 9, 10), spacing=(0.5, 0.75, 1.25),
               origin=(-2.0, 1.0, 3.0)):
    return GridGeometry(dims, spacing, origin)


def test_geometry_roundtrip():
    g = small_geom()
    rng = np.random.default_rng(0)
    idx = rng.uniform(0, 7, (40, 3))
    back = g.world_to_voxel(g.voxel_to_world(idx))
    assert np.allclose(back, idx, atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GridGeometry((0, 4, 4), (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        GridGeometry((4, 4, 4), (1, 0.0, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        GridGeometry((4, 4), (1, 1), (0, 0))


def test_grid_world_points_matches_voxel_to_world():
    g = small_geom(dims=(3, 4, 5))
    pts = g.grid_world_points()
    assert pts.shape == (3, 4, 5, 3)
    assert np.allclose(pts[2, 1, 3], g.voxel_to_world((2, 1, 3)))


def test_same_grid_tolerates_float32_rounding_only():
    g = small_geom(origin=(-2.1, 1.3, 3.7))
    g32 = GridGeometry(g.dims, np.float32(g.spacing), np.float32(g.origin))
    assert g32 != g
    assert g.same_grid(g32) and g32.same_grid(g)
    assert not g.same_grid(small_geom(dims=(8, 9, 11)))
    assert not g.same_grid(small_geom(spacing=(0.5, 0.75, 1.26),
                                      origin=g.origin))
    assert not g.same_grid(small_geom(origin=(-2.1, 1.3, 3.71)))


def test_voxel_volume():
    g = small_geom()
    assert g.voxel_volume_mm3 == pytest.approx(0.5 * 0.75 * 1.25)


def test_scalar_volume_rejects_nan():
    g = small_geom(dims=(2, 2, 2))
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarVolume(g, data)


def test_label_volume_rejects_fractional_and_negative():
    g = small_geom(dims=(2, 2, 2))
    with pytest.raises(ValueError):
        LabelVolume(g, np.full((2, 2, 2), 0.5))
    with pytest.raises(ValueError):
        LabelVolume(g, np.full((2, 2, 2), -1))
    lv = LabelVolume(g, np.arange(8).reshape(2, 2, 2) % 3)
    assert lv.labels() == [1, 2]


def test_label_volume_keeps_int32_data_without_a_copy():
    g = small_geom(dims=(2, 2, 2))
    a = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    assert LabelVolume(g, a).data is a
    b = np.arange(8, dtype=np.int64).reshape(2, 2, 2)
    assert LabelVolume(g, b).data.dtype == np.int32


def test_trilinear_exact_at_voxel_centers():
    g = small_geom()
    rng = np.random.default_rng(1)
    vol = ScalarVolume(g, rng.normal(size=g.dims))
    idx = np.array([[0, 0, 0], [3, 4, 5], [7, 8, 9]])
    pts = g.voxel_to_world(idx)
    vals = trilinear_sample(vol, pts)
    assert np.allclose(vals, vol.data[idx[:, 0], idx[:, 1], idx[:, 2]],
                       atol=1e-12)


def test_trilinear_exact_on_affine_field():
    # trilinear interpolation reproduces a*x + b*y + c*z + d exactly
    g = small_geom()
    pts_grid = g.grid_world_points()
    a, b, c, d = 2.0, -1.5, 0.25, 7.0
    field = (a * pts_grid[..., 0] + b * pts_grid[..., 1]
             + c * pts_grid[..., 2] + d)
    vol = ScalarVolume(g, field)
    rng = np.random.default_rng(2)
    idx = rng.uniform(0.5, 6.5, (100, 3))
    p = g.voxel_to_world(idx)
    expect = a * p[:, 0] + b * p[:, 1] + c * p[:, 2] + d
    got = trilinear_sample(vol, p)
    assert np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0)) \
        <= 1e-9


def test_trilinear_outside_fill():
    g = small_geom()
    vol = ScalarVolume(g, np.ones(g.dims))
    far = np.array([[1000.0, 0.0, 0.0]])
    assert trilinear_sample(vol, far)[0] == 0.0
    assert trilinear_sample(vol, far, fill=-5.0)[0] == -5.0


def test_trilinear_rejects_nonfinite_points():
    g = small_geom()
    vol = ScalarVolume(g, np.ones(g.dims))
    with pytest.raises(ValueError):
        trilinear_sample(vol, np.array([[np.nan, 0, 0]]))


def test_nearest_sample_basics():
    g = GridGeometry((4, 4, 4), (1, 1, 1), (0, 0, 0))
    data = np.arange(64).reshape(4, 4, 4)
    vol = LabelVolume(g, data)
    assert nearest_sample(vol, np.array([2.2, 1.4, 0.9])) == data[2, 1, 1]
    # outside -> 0
    assert nearest_sample(vol, np.array([-3.0, 0, 0])) == 0
    # output values always from the input label set (plus 0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 6, (200, 3))
    vals = nearest_sample(vol, pts)
    assert set(np.unique(vals)).issubset(set(range(64)))


def test_nearest_sample_tie_breaks_low():
    g = GridGeometry((4, 4, 4), (1, 1, 1), (0, 0, 0))
    data = np.arange(64).reshape(4, 4, 4)
    vol = LabelVolume(g, data)
    # exactly half way between voxels 1 and 2 on each axis -> lower index
    assert nearest_sample(vol, np.array([1.5, 1.5, 1.5])) == data[1, 1, 1]


def _three_index_trilinear(vol, p, fill=0.0):
    """Trilinear sampling through three index arrays, all points at
    once, summed over dx, then dy, then dz."""
    u = vol.geometry.world_to_voxel(p)
    dims = np.array(vol.geometry.dims)
    inside = np.all((u >= 0.0) & (u <= dims - 1.0), axis=-1)
    uc = np.clip(u, 0.0, dims - 1.0)
    i0 = np.maximum(np.minimum(np.floor(uc).astype(np.int64), dims - 2), 0)
    f = uc - i0
    out = np.zeros(u.shape[:-1])
    for dx in (0, 1):
        wx = f[..., 0] if dx else 1.0 - f[..., 0]
        for dy in (0, 1):
            wy = f[..., 1] if dy else 1.0 - f[..., 1]
            for dz in (0, 1):
                wz = f[..., 2] if dz else 1.0 - f[..., 2]
                out += wx * wy * wz * vol.data[i0[..., 0] + dx,
                                               i0[..., 1] + dy,
                                               i0[..., 2] + dz]
    return np.where(inside, out, fill)


def _three_index_nearest(vol, p):
    u = vol.geometry.world_to_voxel(p)
    dims = np.array(vol.geometry.dims)
    inside = np.all((u >= -0.5) & (u < dims - 0.5), axis=-1)
    idx = np.clip(np.ceil(u - 0.5).astype(np.int64), 0, dims - 1)
    return np.where(inside, vol.data[idx[..., 0], idx[..., 1], idx[..., 2]],
                    0)


def test_blocked_sampling_matches_three_index_reference():
    g = small_geom()
    rng = np.random.default_rng(6)
    img = ScalarVolume(g, rng.normal(0, 100, g.dims))
    lbl = LabelVolume(g, rng.integers(0, 6, g.dims))
    n = np.array(g.dims, dtype=float)
    # 3 blocks of points inside and outside; the first 64 on voxel
    # centers, faces and half-way ties
    u = rng.uniform(-1.5, n + 0.5, (2 * BLOCK_POINTS + 1, 3))
    u[:64] = np.round(u[:64] * 2.0) / 2.0
    pts = g.voxel_to_world(u)
    assert len(pts) == 73 * 137
    for p in (pts, np.asfortranarray(pts), pts.reshape(1, 73, 137, 3),
              pts[17]):
        for fill in (0.0, -7.5):
            got = trilinear_sample(img, p, fill=fill)
            ref = _three_index_trilinear(img, p, fill)
            assert got.shape == ref.shape == p.shape[:-1]
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        got, ref = nearest_sample(lbl, p), _three_index_nearest(lbl, p)
        assert got.shape == p.shape[:-1]
        assert got.dtype == ref.dtype == np.int32
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dims", [(1, 5, 4), (5, 1, 4), (5, 4, 1)])
def test_trilinear_samples_a_one_voxel_axis(dims):
    # the upper corner along that axis has weight 0
    g = small_geom(dims)
    data = np.random.default_rng(7).normal(size=dims)
    vol = ScalarVolume(g, data)
    assert np.array_equal(trilinear_sample(vol, g.grid_world_points()), data)


def test_crop_preserves_world_coordinates():
    g = small_geom()
    rng = np.random.default_rng(4)
    vol = ScalarVolume(g, rng.normal(size=g.dims))
    box = BoundingBox((2, 3, 4), (5, 6, 7))
    sub = crop(vol, box, margin_voxels=(1, 1, 1))
    assert sub.geometry.dims == (6, 6, 6)
    # world position of the first retained voxel is unchanged
    assert np.allclose(sub.geometry.origin, g.voxel_to_world((1, 2, 3)))
    assert np.array_equal(sub.data, vol.data[1:7, 2:8, 3:9])


def test_crop_clamps_to_grid():
    g = small_geom(dims=(5, 5, 5))
    vol = ScalarVolume(g, np.zeros((5, 5, 5)))
    sub = crop(vol, BoundingBox((0, 0, 0), (4, 4, 4)), (3, 3, 3))
    assert sub.geometry.dims == (5, 5, 5)


def test_crop_disjoint_box_errors():
    g = small_geom(dims=(5, 5, 5))
    vol = ScalarVolume(g, np.zeros((5, 5, 5)))
    with pytest.raises(ValueError):
        crop(vol, BoundingBox((7, 0, 0), (9, 4, 4)))


def test_resample_identity_both_kinds():
    g = small_geom()
    rng = np.random.default_rng(5)
    svol = ScalarVolume(g, rng.normal(size=g.dims))
    lvol = LabelVolume(g, rng.integers(0, 4, g.dims))
    assert np.array_equal(resample(svol, g).data, svol.data)
    assert np.array_equal(resample(lvol, g).data, lvol.data)


def test_resample_translation_of_labels():
    # pulling back through a 1-voxel shift moves labels exactly 1 voxel
    g = GridGeometry((6, 6, 6), (1, 1, 1), (0, 0, 0))
    data = np.zeros((6, 6, 6), dtype=np.int32)
    data[2, 2, 2] = 7
    lvol = LabelVolume(g, data)

    def shift(p):
        return p + np.array([1.0, 0.0, 0.0])

    out = resample(lvol, g, shift)
    assert out.data[1, 2, 2] == 7
    assert out.data.sum() == 7


def test_downsample_scalar_and_label():
    g = GridGeometry((8, 8, 8), (1, 1, 1), (0, 0, 0))
    rng = np.random.default_rng(6)
    svol = ScalarVolume(g, rng.normal(size=(8, 8, 8)))
    down = downsample(svol, (2, 2, 2))
    assert down.geometry.dims == (4, 4, 4)
    assert down.geometry.spacing == (2.0, 2.0, 2.0)
    assert down.geometry.origin == g.origin

    lvol = LabelVolume(g, rng.integers(0, 3, (8, 8, 8)))
    ldown = downsample(lvol, (2, 2, 2))
    # labels decimate without smoothing: values come from the input set
    assert np.array_equal(ldown.data, lvol.data[::2, ::2, ::2])


def test_downsample_factor_validation():
    g = GridGeometry((4, 4, 4), (1, 1, 1), (0, 0, 0))
    vol = ScalarVolume(g, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        downsample(vol, (0, 1, 1))


def test_bounding_box_of():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:3, 2, 3:5] = True
    box = bounding_box_of(mask)
    assert box.min_index == (1, 2, 3)
    assert box.max_index == (2, 2, 4)
    with pytest.raises(ValueError):
        bounding_box_of(np.zeros((2, 2, 2), dtype=bool))


@pytest.mark.parametrize("top", [5, 70_000])
def test_label_boxes_match_unique_and_argwhere(top):
    # labels above 65535 take the ranked path; both give the same boxes
    rng = np.random.default_rng(top)
    for background in (True, False):
        data = rng.choice([0, 2, 3, top] if background else [2, 3, top],
                          size=(5, 6, 7))
        boxes = label_boxes(data)
        assert list(boxes) == [int(v) for v in np.unique(data) if v != 0]
        assert LabelVolume(small_geom(dims=(5, 6, 7)), data).labels() \
            == list(boxes)
        for lv, box in boxes.items():
            idx = np.argwhere(data == lv)
            assert BoundingBox.from_slices(box) == BoundingBox(
                tuple(idx.min(axis=0)), tuple(idx.max(axis=0)))
    assert label_boxes(np.zeros((2, 2, 2), dtype=int)) == {}


def test_bounding_box_validation():
    with pytest.raises(ValueError):
        BoundingBox((3, 0, 0), (1, 4, 4))


@pytest.mark.parametrize("lo, hi", [
    ((0.7, 2.9, 1), (4, 4, 4)), ((0, 0, True), (4, 4, 4)),
    ((0, 0, 0), (4, 4.5, 4)), ((0, 0), (4, 4)), ((0, 0, 0, 0), (4, 4, 4, 4)),
    (("0", 0, 0), (4, 4, 4))])
def test_bounding_box_rejects_non_integral_or_wrong_length_indices(lo, hi):
    with pytest.raises(ValueError):
        BoundingBox(lo, hi)


@pytest.mark.parametrize("dims", [(8.5, 9, 10), (8, True, 10), (8, 9),
                                  (8, 9, 10, 1), (8, 0, 10)])
def test_geometry_rejects_non_integral_or_wrong_length_dims(dims):
    with pytest.raises(ValueError):
        GridGeometry(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_integral_floats_and_numpy_integers_are_indices():
    box = BoundingBox((0.0, np.int64(2), np.int32(-1)),
                      np.array([3, 4, 5], dtype=np.uint16))
    assert box.min_index == (0, 2, -1) and box.max_index == (3, 4, 5)
    assert all(type(v) is int for v in box.min_index + box.max_index)
    g = GridGeometry((8.0, np.int64(9), np.uint8(10)), (1, 1, 1), (0, 0, 0))
    assert g.dims == (8, 9, 10)
    assert all(type(d) is int for d in g.dims)


@pytest.mark.parametrize("spacing, origin, field", [
    ((np.nan, 1, 1), (0, 0, 0), "spacing"),
    ((1, np.inf, 1), (0, 0, 0), "spacing"),
    ((1, 1, 1), (0, 0, np.inf), "origin"),
    ((1, 1, 1), (np.nan, 0, 0), "origin"),
    ((np.nan, 1, 1), (0, 0, np.inf), "spacing"),
])
def test_geometry_rejects_nonfinite_spacing_and_origin(spacing, origin,
                                                       field):
    # `spacing <= 0` is False for NaN: unchecked, a NaN grid maps every
    # voxel to NaN world points
    with pytest.raises(ValueError, match=field):
        GridGeometry((4, 4, 4), spacing, origin)
