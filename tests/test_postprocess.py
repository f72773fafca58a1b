"""Morphological cleanup, collision resolution, and level-set tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from vertseg.metrics import dice
from vertseg.postprocess import (CollisionPolicy, PostprocessConfig,
                                 _evolve, _initial_level_set, _speed_field,
                                 levelset_refine, morph_cleanup,
                                 refine_labels, separate_labels)
from vertseg.volume import (BoundingBox, GridGeometry, LabelVolume,
                            ScalarVolume, crop, label_boxes)


def _geom(dims, spacing=(1.0, 1.0, 1.0)):
    return GridGeometry(dims, spacing, (0.0, 0.0, 0.0))


def _lbl(data):
    data = np.asarray(data)
    return LabelVolume(_geom(data.shape), data)


def _place(mask, geom):
    """A mask on a crop of geom, as 0/1 int32 data on geom."""
    off = np.round(geom.world_to_voxel(mask.geometry.origin)).astype(int)
    out = np.zeros(geom.dims, dtype=np.int32)
    out[tuple(slice(o, o + n) for o, n in zip(off, mask.geometry.dims))] \
        = mask.data != 0
    return out


def _band_geometry(m, geom, iters, step=0.25):
    """The grid of the level set's crop of the boolean mask m on geom:
    its bounding box padded by floor(iters*step + 1) + 2 voxels, clamped
    to the grid."""
    idx = np.argwhere(m)
    pad = 2 + int(iters * step + 1.0)
    lo = np.maximum(idx.min(axis=0) - pad, 0)
    hi = np.minimum(idx.max(axis=0) + pad, np.array(geom.dims) - 1)
    return crop(LabelVolume(geom, m), BoundingBox(lo, hi)).geometry


def test_instance_from_mask_centroid_and_intensity():
    # masks 4 and 9 each claim voxel (2, 2, 2) and one voxel of their
    # own; the contested voxel goes to the mask whose centroid is nearer
    # in mm, and, by intensity alone, to the one whose mean intensity is
    # nearer its own
    g = _geom((5, 5, 5), spacing=(2.0, 1.0, 1.0))
    masks = []
    for lv, own in ((4, (4, 2, 2)), (9, (2, 4, 2))):
        m = np.zeros(g.dims, dtype=np.int32)
        m[2, 2, 2] = m[own] = 1
        masks.append((lv, LabelVolume(g, m)))
    # centroids: voxel (3, 2, 2) at 2 mm, voxel (2, 3, 2) at 1 mm; one
    # voxel each, so a centroid in voxel units would tie (to label 4)
    out = separate_labels(masks, ScalarVolume(g, np.zeros(g.dims)),
                          CollisionPolicy(w_intensity=0.0))
    assert out.data[2, 2, 2] == 9
    assert out.data[4, 2, 2] == 4 and out.data[2, 4, 2] == 9
    distance_off = CollisionPolicy(w_distance=0.0)
    for own4, own9, winner in ((300.0, 0.0, 9),    # means 200 and 50
                               (120.0, 180.0, 4)):  # means 110 and 140
        data = np.zeros(g.dims)
        data[2, 2, 2], data[4, 2, 2], data[2, 4, 2] = 100.0, own4, own9
        out = separate_labels(masks, ScalarVolume(g, data), distance_off)
        assert out.data[2, 2, 2] == winner
    with pytest.raises(ValueError, match="empty mask for label 1"):
        separate_labels([(1, LabelVolume(g, np.zeros(g.dims, np.int32)))],
                        ScalarVolume(g, np.zeros(g.dims)))


def test_morph_cleanup_removes_small_islands():
    data = np.zeros((12, 12, 12), dtype=np.int32)
    data[2:8, 2:8, 2:8] = 1   # big block, 216 voxels
    data[10, 10, 10] = 1      # stray voxel
    out = morph_cleanup(_lbl(data), min_island_voxels=5)
    assert out.data[10, 10, 10] == 0
    assert np.array_equal(out.data[2:8, 2:8, 2:8],
                          np.ones((6, 6, 6), dtype=np.int32))


def test_morph_cleanup_drops_label_below_min_size():
    data = np.zeros((8, 8, 8), dtype=np.int32)
    data[3, 3, 3] = 2
    out = morph_cleanup(_lbl(data), min_island_voxels=10)
    assert out.data.sum() == 0


def test_morph_cleanup_fills_enclosed_cavity():
    data = np.zeros((10, 10, 10), dtype=np.int32)
    data[2:8, 2:8, 2:8] = 3
    data[4:6, 4:6, 4:6] = 0  # internal cavity
    out = morph_cleanup(_lbl(data), min_island_voxels=0)
    assert np.all(out.data[2:8, 2:8, 2:8] == 3)


def test_morph_cleanup_keeps_cavity_between_two_labels():
    # a gap touching two different labels must not be filled
    data = np.zeros((9, 9, 9), dtype=np.int32)
    data[1:8, 1:8, 1:3] = 1
    data[1:8, 1:8, 5:8] = 2
    out = morph_cleanup(_lbl(data), min_island_voxels=0)
    assert np.all(out.data[1:8, 1:8, 3:5] == 0)


def test_morph_cleanup_idempotent_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = (rng.random((10, 10, 10)) < 0.35).astype(np.int32) \
            * rng.integers(1, 4)
        once = morph_cleanup(_lbl(data), min_island_voxels=4)
        twice = morph_cleanup(once, min_island_voxels=4)
        assert np.array_equal(once.data, twice.data)


def test_morph_cleanup_validation():
    with pytest.raises(ValueError):
        morph_cleanup(_lbl(np.zeros((4, 4, 4), dtype=np.int32)),
                      min_island_voxels=-1)


def test_collision_policy_validation():
    with pytest.raises(ValueError):
        CollisionPolicy(w_intensity=0.0, w_distance=0.0)


def test_resolve_collisions_two_instances():
    g = _geom((10, 10, 10))
    data = np.full((10, 10, 10), 50.0)
    data[:5] = 200.0  # upper half bright
    intensity = ScalarVolume(g, data)

    m1 = np.zeros((10, 10, 10), dtype=bool)
    m2 = np.zeros((10, 10, 10), dtype=bool)
    m1[:6] = True          # claims rows 0..5
    m2[4:] = True          # claims rows 4..9; rows 4-5 contested
    # centroids at rows 2.5 and 6.5; mean intensities 175 and 75
    out = separate_labels([(1, LabelVolume(g, m1)), (2, LabelVolume(g, m2))],
                          intensity)

    assert np.all(out.data[:4] == 1)
    assert np.all(out.data[6:] == 2)
    # contested bright row 4 goes to the bright instance, dim row 5 to
    # the dim one (both intensity and distance agree here)
    assert np.all(out.data[4] == 1)
    assert np.all(out.data[5] == 2)


def test_resolve_collisions_no_overlap_is_union():
    g = _geom((6, 6, 6))
    intensity = ScalarVolume(g, np.zeros((6, 6, 6)))
    m1 = np.zeros((6, 6, 6), dtype=bool)
    m2 = np.zeros((6, 6, 6), dtype=bool)
    m1[:3] = True
    m2[3:] = True
    out = separate_labels([(5, LabelVolume(g, m1)), (7, LabelVolume(g, m2))],
                          intensity)
    assert np.all(out.data[:3] == 5)
    assert np.all(out.data[3:] == 7)


def test_resolve_collisions_validation():
    g = _geom((4, 4, 4))
    intensity = ScalarVolume(g, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError, match="no vertebra masks"):
        separate_labels([], intensity)


def test_levelset_zero_iters_is_identity():
    rng = np.random.default_rng(1)
    g = _geom((8, 8, 8))
    intensity = ScalarVolume(g, rng.normal(size=(8, 8, 8)))
    mask = LabelVolume(g, (rng.random((8, 8, 8)) < 0.4).astype(np.int32))
    out = levelset_refine(mask, intensity, iters=0)
    assert np.array_equal(out.data, mask.data)
    with pytest.raises(ValueError):
        levelset_refine(mask, intensity, iters=-1)


def test_levelset_far_voxels_untouched():
    g = _geom((16, 16, 16))
    intensity = ScalarVolume(g, np.zeros((16, 16, 16)))
    mask = np.zeros((16, 16, 16), dtype=np.int32)
    mask[6:10, 6:10, 6:10] = 1
    out = levelset_refine(LabelVolume(g, mask), intensity,
                          iters=2, step=0.25)
    # band half-width is iters*step + 1 = 1.5 voxels
    assert np.all(out.data[0:3] == 0)
    assert out.data[8, 8, 8] == 1


def test_levelset_improves_offset_cylinder():
    # bright cylinder; initial mask is the same cylinder shifted by two
    # voxels, so refinement toward intensity edges must raise Dice
    g = _geom((24, 24, 24))
    zz, yy, xx = np.meshgrid(np.arange(24), np.arange(24), np.arange(24),
                             indexing="ij")
    truth = ((yy - 12.0) ** 2 + (xx - 12.0) ** 2 <= 36.0) \
        & (zz >= 4) & (zz < 20)
    intensity = ScalarVolume(g, np.where(truth, 300.0, 0.0))
    init = np.roll(truth, 2, axis=1)
    before = dice(truth.astype(int), init.astype(int))
    out = levelset_refine(LabelVolume(g, init.astype(np.int32)),
                          intensity, iters=10)
    after = dice(truth.astype(int), out.data)
    assert after > before


def test_refine_and_separate_labels_chain_the_steps():
    data = np.zeros((14, 12, 12), dtype=np.int32)
    data[2:7, 2:10, 2:10] = 1
    data[7:12, 2:10, 2:10] = 2
    data[0, 11, 11] = 2  # island of label 2: dropped by cleanup
    data[13, 0, 0] = 3  # label 3 below the minimum size: gone entirely
    lbl = _lbl(data)
    rng = np.random.default_rng(5)
    intensity = ScalarVolume(lbl.geometry, ndimage.gaussian_filter(
        np.where(data > 0, 100.0 * data, 0.0)
        + rng.normal(0.0, 5.0, data.shape), 1.0))

    masks = refine_labels(lbl, intensity, PostprocessConfig(
        min_island_voxels=5, levelset_iters=3))
    assert list(masks) == [1, 2]
    cleaned = morph_cleanup(lbl, 5)
    placed = {lv: _place(m, lbl.geometry) for lv, m in masks.items()}
    for lv, mask in placed.items():
        expect = levelset_refine(
            LabelVolume(lbl.geometry, (cleaned.data == lv).astype(np.int32)),
            intensity, iters=3)
        assert np.array_equal(mask, expect.data)

    final = separate_labels(masks.items(), intensity)
    full = [m != 0 for m in placed.values()]
    instances = [_full_grid_instance(lv, m, intensity)
                 for lv, m in zip(placed, full)]
    expect = _full_grid_collisions(full, intensity, instances,
                                   CollisionPolicy())
    assert np.array_equal(final.data, expect)


def test_separate_labels_rejects_empty_mask():
    empty = _lbl(np.zeros((4, 4, 4), dtype=np.int32))
    intensity = ScalarVolume(empty.geometry, np.ones((4, 4, 4)))
    with pytest.raises(ValueError, match="label 7"):
        separate_labels([(7, empty)], intensity)


def _full_grid_curvature(phi):
    gx, gy, gz = np.gradient(phi)
    gxx = np.gradient(gx, axis=0)
    gyy = np.gradient(gy, axis=1)
    gzz = np.gradient(gz, axis=2)
    gxy = np.gradient(gx, axis=1)
    gxz = np.gradient(gx, axis=2)
    gyz = np.gradient(gy, axis=2)
    num = (gx * gx * (gyy + gzz) + gy * gy * (gxx + gzz)
           + gz * gz * (gxx + gyy)
           - 2.0 * (gx * gy * gxy + gy * gz * gyz + gx * gz * gxz))
    mag = np.sqrt(gx * gx + gy * gy + gz * gz)
    return np.clip(num / (mag ** 3 + 1e-8), -1.0, 1.0), mag


def _full_grid_levelset(m, intensity, iters, step, curvature_weight=0.2,
                        smooth_sigma=1.0):
    """Oracle: the level set evolved on the whole grid, without a crop."""
    inside = ndimage.distance_transform_edt(m)
    outside = ndimage.distance_transform_edt(~m)
    phi = outside - inside
    smoothed = ndimage.gaussian_filter(intensity.data, smooth_sigma)
    lap = ndimage.laplace(smoothed)
    scale = np.abs(lap).max()
    g = lap / scale if scale > 0 else np.zeros_like(lap)
    band = np.abs(phi) <= iters * step + 1.0
    for _ in range(iters):
        kappa, mag = _full_grid_curvature(phi)
        dphi = step * (g + curvature_weight * kappa) * mag
        phi[band] += dphi[band]
    return np.where(band, phi < 0.0, m).astype(np.int32)


def _noise_intensity(geom, seed):
    rng = np.random.default_rng(seed)
    return ScalarVolume(geom, 100.0 * ndimage.gaussian_filter(
        rng.normal(size=geom.dims), 1.2))


def test_speed_field_is_the_normalized_laplacian_bit_for_bit():
    intensity = _noise_intensity(_geom((30, 26, 22)), 9)
    lap = ndimage.laplace(ndimage.gaussian_filter(intensity.data, 1.0))
    expect = lap / np.abs(lap).max()
    got = _speed_field(intensity, 1.0)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    flat = ScalarVolume(intensity.geometry, np.full((30, 26, 22), 40.0))
    assert np.array_equal(_speed_field(flat, 1.0), np.zeros((30, 26, 22)))


def test_speed_field_holds_three_grid_copies():
    # the smoothed image, the Laplacian and one second-difference buffer;
    # ndimage.laplace holds two second differences at once
    intensity = _noise_intensity(_geom((48, 40, 36)), 10)
    tracemalloc.start()
    try:
        _speed_field(intensity, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * intensity.data.nbytes


@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(st.integers(1, 40), st.integers(1, 9),
                      st.integers(1, 9)),
       corners=st.tuples(*[st.floats(0.0, 1.0)] * 6),
       faces=st.lists(st.sampled_from([(axis, side) for axis in range(3)
                                       for side in (0, 1)]),
                      max_size=3, unique=True),
       sigma=st.sampled_from([0.7, 1.0, 2.0]),
       seed=st.integers(0, 2 ** 16))
def test_speed_field_on_a_box_is_the_full_field_there_bit_for_bit(
        dims, corners, faces, sigma, seed):
    # axis 0 up to 40 planes crosses the Laplacian's 16-plane slab edges
    lo = [int(c * (n - 1)) for c, n in zip(corners[:3], dims)]
    hi = [lo[a] + 1 + int(c * (n - lo[a] - 1))
          for a, (c, n) in enumerate(zip(corners[3:], dims))]
    for axis, side in faces:
        if side == 0:
            lo[axis] = 0
        else:
            hi[axis] = dims[axis]
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    intensity = _noise_intensity(_geom(dims), seed)
    lap = ndimage.laplace(ndimage.gaussian_filter(intensity.data, sigma))
    scale = np.abs(lap).max()
    full = _speed_field(intensity, sigma)
    expect = lap / scale if scale > 0 else np.zeros(dims)
    assert np.array_equal(full.view(np.int64), expect.view(np.int64))
    got = _speed_field(intensity, sigma, box)
    assert got.dtype == np.float64 and got.shape == full[box].shape
    assert np.array_equal(got.view(np.int64), full[box].view(np.int64))
    flat = ScalarVolume(intensity.geometry, np.full(dims, -310.0))
    assert np.array_equal(_speed_field(flat, sigma, box),
                          np.zeros(got.shape))


def test_speed_field_on_an_eighth_holds_under_one_and_a_half_grids():
    # the smoothed image, two 16-plane slab buffers of the Laplacian
    # (0.21 of a grid at the refuse workload's 160 planes) and the box
    intensity = _noise_intensity(_geom((160, 36, 30)), 11)
    box = (slice(40, 120), slice(0, 18), slice(15, 30))  # 1/8 of the grid
    tracemalloc.start()
    try:
        _speed_field(intensity, 1.0, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * intensity.data.nbytes


def _assert_matches_oracle(m, intensity, iters, step=0.25, **kw):
    geom = intensity.geometry
    out = levelset_refine(LabelVolume(geom, m.astype(np.int32)), intensity,
                          iters=iters, step=step, **kw)
    expect = _full_grid_levelset(m, intensity, iters, step, **kw)
    assert out.data.dtype == np.int32
    assert np.array_equal(out.data, expect)


@pytest.mark.parametrize("iters", [1, 3, 10, 20])
def test_levelset_crop_matches_full_grid_at_every_face(iters):
    # anisotropic spacing: the level set works in voxel units regardless
    g = _geom((22, 19, 17), spacing=(0.8, 1.3, 2.5))
    intensity = _noise_intensity(g, 20 + iters)
    for axis in range(3):
        for side in (0, 1):
            m = np.zeros(g.dims, dtype=bool)
            box = [slice(5, 12), slice(4, 11), slice(6, 12)]
            n = g.dims[axis]
            box[axis] = slice(0, 4) if side == 0 else slice(n - 4, n)
            m[tuple(box)] = True
            _assert_matches_oracle(m, intensity, iters)
            _assert_matches_oracle(m, intensity, iters, step=0.6,
                                   curvature_weight=0.5, smooth_sigma=2.0)


@pytest.mark.parametrize("iters", [1, 3, 10, 20])
def test_levelset_crop_matches_full_grid_on_random_masks(iters):
    g = _geom((18, 21, 16), spacing=(1.0, 0.6, 1.7))
    intensity = _noise_intensity(g, iters)
    rng = np.random.default_rng(100 + iters)
    for density in (0.02, 0.3, 0.9):
        _assert_matches_oracle(rng.random(g.dims) < density, intensity,
                               iters)
    # a small blob far from every face: the crop is strictly inside
    blob = np.zeros(g.dims, dtype=bool)
    blob[8:11, 9:12, 7:10] = True
    blob &= rng.random(g.dims) < 0.8
    _assert_matches_oracle(blob, intensity, iters)
    _assert_matches_oracle(blob, intensity, iters, step=0.9,
                           curvature_weight=5.0)
    _assert_matches_oracle(np.ones(g.dims, dtype=bool), intensity, iters)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(3, 20)] * 3),
       corners=st.tuples(*[st.floats(0.0, 1.0)] * 6),
       fill=st.floats(0.3, 1.0),
       step=st.floats(0.05, 1.2),
       iters=st.integers(1, 20),
       curvature_weight=st.sampled_from([0.2, 1.0, 5.0]),
       seed=st.integers(0, 2 ** 16))
def test_levelset_crop_matches_full_grid_on_random_boxes(
        dims, corners, fill, step, iters, curvature_weight, seed):
    # a strong curvature term carries any difference at the band's edge
    # inward to the zero level, where it shows in the mask
    lo = [int(c * (n - 1)) for c, n in zip(corners[:3], dims)]
    hi = [lo[a] + 1 + int(c * (n - lo[a] - 1))
          for a, (c, n) in enumerate(zip(corners[3:], dims))]
    rng = np.random.default_rng(seed)
    m = np.zeros(dims, dtype=bool)
    box = (slice(lo[0], hi[0]), slice(lo[1], hi[1]), slice(lo[2], hi[2]))
    m[box] = rng.random(m[box].shape) < fill
    assume(m.any())  # an empty mask stays empty; the oracle grows one
    _assert_matches_oracle(m, _noise_intensity(_geom(dims), seed), iters,
                           step=step, curvature_weight=curvature_weight)


_FACES = [(axis, side) for axis in range(3) for side in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 16)] * 3),
       center=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       radii=st.tuples(*[st.floats(0.6, 8.0)] * 3),
       faces=st.lists(st.sampled_from(_FACES), max_size=3, unique=True),
       fill=st.floats(0.6, 1.0),
       iters=st.integers(1, 12),
       step=st.sampled_from([0.1, 0.25, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 16))
def test_levelset_matches_full_grid_on_random_blobs(
        dims, center, radii, faces, fill, iters, step, seed):
    # an ellipsoid, roughened, whose centre voxel lies on the volume faces
    # drawn (down to 2 voxels thick, where np.gradient is one-sided
    # across the axis)
    c = [round(x * (n - 1)) for x, n in zip(center, dims)]
    for axis, side in faces:
        c[axis] = side * (dims[axis] - 1)
    grid = np.indices(dims)
    m = sum(((grid[a] - c[a]) / radii[a]) ** 2 for a in range(3)) <= 1.0
    m &= np.random.default_rng(seed).random(dims) < fill
    m[tuple(c)] = True
    _assert_matches_oracle(m, _noise_intensity(_geom(dims), seed), iters,
                           step=step)


def _blob(dims):
    grid = np.indices(dims)
    return sum(((grid[a] - (n - 1) / 2) / (0.35 * n)) ** 2
               for a, n in enumerate(dims)) <= 1.0


def test_evolve_reads_speed_only_in_the_band():
    dims = (30, 26, 22)
    m = _blob(dims)
    speed = _speed_field(_noise_intensity(_geom(dims), 4), 1.0)
    _, band = _initial_level_set(m, 10, 0.25)
    assert band.any() and not band.all()
    poisoned = np.where(band, speed, np.nan)
    expect = _evolve(m, speed, 10, 0.25, 0.2)
    assert np.array_equal(_evolve(m, poisoned, 10, 0.25, 0.2), expect)


def test_evolve_holds_fewer_than_16_crop_copies():
    # phi, the band's index and tap vectors and three derivative buffers;
    # full-crop curvature temporaries (first and second derivatives, the
    # products) would hold about 19 crop-sized float64 copies
    dims = (66, 72, 30)
    m = _blob(dims)
    speed = _speed_field(_noise_intensity(_geom(dims), 5), 1.0)
    tracemalloc.start()
    try:
        _evolve(m, speed, 10, 0.25, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * speed.nbytes


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_levelset_rejects_a_crop_thinner_than_2_voxels(axis):
    dims = [12, 12, 12]
    dims[axis] = 1
    g = _geom(tuple(dims))
    intensity = _noise_intensity(g, 6)
    mask = LabelVolume(g, np.ones(g.dims, dtype=np.int32))
    message = f"level set .* 1 along axis {axis}"
    with pytest.raises(ValueError, match=message):
        levelset_refine(mask, intensity, iters=1)
    with pytest.raises(ValueError, match=message):
        refine_labels(mask, intensity, PostprocessConfig(
            min_island_voxels=0, levelset_iters=1))
    # without iterations there is no level set to evolve
    assert np.array_equal(levelset_refine(mask, intensity, iters=0).data,
                          mask.data)


def test_levelset_empty_mask_stays_empty():
    g = _geom((20, 18, 16))
    rng = np.random.default_rng(3)
    intensity = ScalarVolume(g, rng.normal(0.0, 100.0, g.dims))
    empty = LabelVolume(g, np.zeros(g.dims, dtype=np.int32))
    for iters in (0, 1, 20):
        out = levelset_refine(empty, intensity, iters=iters)
        assert out.data.dtype == np.int32
        assert not out.data.any()


def test_refine_labels_equals_per_label_levelset_refine():
    g = _geom((30, 20, 18), spacing=(1.0, 0.7, 1.4))
    data = np.zeros(g.dims, dtype=np.int32)
    data[0:8, 3:15, 2:14] = 1     # touches the x=0 face
    data[9:17, 4:16, 3:15] = 2
    data[18:24, 2:18, 0:18] = 3   # spans the whole z axis
    data[25:30, 6:12, 5:11] = 4   # touches the x=end face
    lbl = LabelVolume(g, data)
    intensity = ScalarVolume(g, ndimage.gaussian_filter(
        np.where(data > 0, 80.0 * data, 0.0), 1.0))
    masks = refine_labels(lbl, intensity, PostprocessConfig(
        min_island_voxels=5, levelset_iters=10))
    assert list(masks) == [1, 2, 3, 4]
    for lv, mask in masks.items():
        single = LabelVolume(g, (data == lv).astype(np.int32))
        expect = levelset_refine(single, intensity, iters=10)
        assert mask.geometry == _band_geometry(data == lv, g, 10)
        placed = _place(mask, g)
        assert np.array_equal(placed, expect.data)
        assert np.array_equal(
            placed, _full_grid_levelset(data == lv, intensity, 10, 0.25))
    with pytest.raises(ValueError, match="levelset_iters must be >= 0"):
        PostprocessConfig(levelset_iters=-1)


def _full_grid_morph_cleanup(lbl, min_island_voxels):
    # the full-grid cleanup that the per-label and union-box crops of
    # morph_cleanup must reproduce bit for bit
    data = lbl.data.copy()
    for lv in lbl.labels():
        mask = data == lv
        comps, ncomp = ndimage.label(mask, structure=np.ones((3, 3, 3)))
        if ncomp <= 1 and mask.sum() >= min_island_voxels:
            continue
        sizes = np.bincount(comps.ravel())[1:]
        keep = int(np.argmax(sizes)) + 1
        drop = mask & (comps != keep)
        if sizes[keep - 1] < min_island_voxels:
            drop = mask
        data[drop] = 0
    comps, ncomp = ndimage.label(data == 0)
    if ncomp:
        border_ids = set()
        for axis in range(3):
            for side in (0, -1):
                border_ids.update(
                    np.unique(np.take(comps, side, axis=axis)).tolist())
        objects = ndimage.find_objects(comps)
        for cid in range(1, ncomp + 1):
            if cid in border_ids:
                continue
            grown = tuple(slice(max(0, s.start - 1), s.stop + 1)
                          for s in objects[cid - 1])
            comp_mask = comps[grown] == cid
            shell = ndimage.binary_dilation(comp_mask) & ~comp_mask
            neighbors = np.unique(data[grown][shell])
            neighbors = neighbors[neighbors != 0]
            if len(neighbors) == 1:
                data[grown][comp_mask] = neighbors[0]
    return data


def _assert_cleanup_matches_full_grid(data, min_island_voxels):
    lbl = _lbl(data)
    out = morph_cleanup(lbl, min_island_voxels=min_island_voxels)
    expect = _full_grid_morph_cleanup(lbl, min_island_voxels)
    assert out.data.dtype == expect.dtype
    assert out.data.tobytes() == expect.tobytes()
    return out.data


def test_morph_cleanup_crops_match_full_grid_on_fixtures():
    data = np.zeros((16, 14, 12), dtype=np.int32)
    data[0:6, 0:5, 2:9] = 1          # touches the x=0 and y=0 faces
    data[2, 2, 4] = 0                # cavity inside label 1
    data[9:16, 7:14, 0:12] = 4       # touches the x, y and z end faces
    data[10:15, 8:13, 2:10] = 0      # a hollow in label 4 ...
    data[11:14, 9:12, 4:7] = 2       # ... around a block of label 2 ...
    data[12, 10, 5] = 0              # ... with its own cavity
    data[7, 12, 10] = 1              # a stray island of label 1
    data[8:10, 0:2, 10:12] = 5       # a small label below min size
    # label 3 is absent: find_objects reports None for it
    out = _assert_cleanup_matches_full_grid(data, min_island_voxels=10)
    assert out[2, 2, 4] == 1 and out[12, 10, 5] == 2
    assert out[7, 12, 10] == 0 and not (out == 5).any()
    assert out[10, 8, 2] == 0  # the hollow touches two labels

    full = np.full((5, 6, 7), 2, dtype=np.int32)
    full[2, 3, 3] = 0
    assert (_assert_cleanup_matches_full_grid(full, 0) == 2).all()
    _assert_cleanup_matches_full_grid(np.zeros((4, 5, 6), np.int32), 5)


@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 14)] * 3),
       density=st.floats(0.05, 0.8),
       n_labels=st.integers(1, 4),
       min_island=st.integers(0, 12),
       seed=st.integers(0, 2 ** 16))
def test_morph_cleanup_crops_match_full_grid_on_random_labels(
        dims, density, n_labels, min_island, seed):
    rng = np.random.default_rng(seed)
    data = np.where(rng.random(dims) < density,
                    rng.integers(1, n_labels + 1, dims), 0).astype(np.int32)
    _assert_cleanup_matches_full_grid(data, min_island)


@pytest.mark.parametrize("step", [-0.25, 0.0])
def test_levelset_rejects_nonpositive_step(step):
    # a step <= 0 would leave every mask unchanged instead of refining it
    g = _geom((8, 8, 8))
    intensity = ScalarVolume(g, np.zeros((8, 8, 8)))
    mask = LabelVolume(g, np.ones((8, 8, 8), dtype=np.int32))
    with pytest.raises(ValueError, match="step"):
        levelset_refine(mask, intensity, iters=10, step=step)
    with pytest.raises(ValueError, match="levelset_step must be > 0"):
        PostprocessConfig(levelset_step=step)


def test_refinement_rejects_intensity_on_another_grid():
    data = np.zeros((20, 20, 20), dtype=int)
    data[5:15, 5:15, 5:15] = 1
    lbl = LabelVolume(_geom((20, 20, 20)), data)
    intensity = ScalarVolume(_geom((30, 30, 30)), np.zeros((30, 30, 30)))
    with pytest.raises(ValueError, match="intensity grid"):
        refine_labels(lbl, intensity, PostprocessConfig())
    with pytest.raises(ValueError, match="intensity grid"):
        levelset_refine(lbl, intensity)
    # a mask whose grid is not a crop of the intensity grid: an origin
    # half a voxel off, another spacing, a box reaching past a face, one
    # wholly outside the grid
    for spacing, origin in (((1.0,) * 3, (2.5, 0.0, 0.0)),
                            ((0.5,) * 3, (0.0, 0.0, 0.0)),
                            ((1.0,) * 3, (0.0, 15.0, 0.0)),
                            ((1.0,) * 3, (0.0, -25.0, 0.0))):
        mask = LabelVolume(GridGeometry(lbl.geometry.dims, spacing, origin),
                           data)
        with pytest.raises(ValueError, match="intensity grid"):
            separate_labels([(1, mask)], intensity)


def test_resolve_collisions_rejects_mask_on_another_grid_with_same_dims():
    g = _geom((6, 6, 6))
    intensity = ScalarVolume(g, np.zeros((6, 6, 6)))
    data = np.zeros((6, 6, 6), dtype=int)
    data[1:3, 1:3, 1:3] = 1
    shifted = LabelVolume(GridGeometry(g.dims, g.spacing, (0.0, 0.0, 3.0)),
                          data)
    with pytest.raises(ValueError, match="intensity grid"):
        separate_labels([(1, LabelVolume(g, data)), (2, shifted)], intensity)


def test_instance_from_mask_rejects_a_mask_off_the_intensity_grid():
    g = _geom((6, 6, 6))
    intensity = ScalarVolume(g, np.ones(g.dims))
    shifted = LabelVolume(GridGeometry(g.dims, g.spacing, (2.0, 0.0, 0.0)),
                          np.ones(g.dims, dtype=np.int32))
    with pytest.raises(ValueError, match="intensity grid"):
        separate_labels([(1, shifted)], intensity)
    # a mask one voxel longer than the grid along z reaches past it
    longer = LabelVolume(_geom((6, 6, 7)), np.ones((6, 6, 7), dtype=np.int32))
    with pytest.raises(ValueError, match="intensity grid"):
        separate_labels([(1, longer)], intensity)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 14)] * 3),
       density=st.floats(0.05, 0.8),
       values=st.lists(st.integers(1, 9), min_size=1, max_size=4),
       min_island=st.integers(0, 12),
       iters=st.sampled_from([0, 3, 10]),
       seed=st.integers(0, 2 ** 16))
def test_refine_labels_returns_band_crops_on_random_labels(
        dims, density, values, min_island, iters, seed):
    # random labels touch faces, and label values that are drawn but
    # not placed, or that cleanup removes, are absent from the result
    rng = np.random.default_rng(seed)
    data = np.where(rng.random(dims) < density, rng.choice(values, dims),
                    0).astype(np.int32)
    lbl = _lbl(data)
    intensity = _noise_intensity(lbl.geometry, seed)
    masks = refine_labels(lbl, intensity, PostprocessConfig(
        min_island_voxels=min_island, levelset_iters=iters))
    cleaned = morph_cleanup(lbl, min_island)
    assert list(masks) == cleaned.labels()
    for lv, mask in masks.items():
        m = cleaned.data == lv
        assert mask.geometry == _band_geometry(m, lbl.geometry, iters)
        assert mask.data.dtype == np.int32
        assert set(np.unique(mask.data)) <= {0, 1}
        expect = levelset_refine(LabelVolume(lbl.geometry, m), intensity,
                                 iters=iters)
        assert np.array_equal(_place(mask, lbl.geometry), expect.data)


def test_separate_labels_on_crops_equals_on_placed_masks():
    g = GridGeometry((20, 18, 16), (0.8, 1.0, 1.5), (-3.0, 2.0, 7.5))
    rng = np.random.default_rng(11)
    intensity = _noise_intensity(g, 11)
    # three overlapping blocks at interior offsets: the overlaps are
    # contested, so the collision scores decide them
    blocks = [(slice(2, 9), slice(3, 12), slice(4, 11)),
              (slice(7, 15), slice(5, 14), slice(3, 12)),
              (slice(12, 18), slice(2, 10), slice(6, 14))]
    crops, placed = [], []
    for lv, block in zip((3, 5, 8), blocks):
        m = np.zeros(g.dims, dtype=np.int32)
        m[block] = rng.random(m[block].shape) < 0.9
        box = BoundingBox.from_slices(block)
        crops.append((lv, crop(LabelVolume(g, m), box, (1, 2, 1))))
        placed.append((lv, LabelVolume(g, m)))
    assert all(c.geometry.dims != g.dims for _, c in crops)
    final = separate_labels(crops, intensity)
    expect = separate_labels(placed, intensity)
    assert np.array_equal(final.data, expect.data)
    assert set(np.unique(final.data)) == {0, 3, 5, 8}


def _full_grid_instance(label, mask, intensity):
    """(label, centroid in mm, mean intensity) of a full-grid boolean
    mask: the reference for what `separate_labels` measures of a mask on
    its crop, bit for bit."""
    idx = np.argwhere(mask)
    center = intensity.geometry.voxel_to_world(idx.mean(axis=0))
    return int(label), center, float(intensity.data[mask].mean())


def _full_grid_collisions(masks, intensity, instances, policy):
    """The collision rule of `separate_labels` on full-grid boolean masks
    and their `_full_grid_instance`s, by stacking every claim into one
    (X, Y, Z, masks) array: the reference that counting claims crop by
    crop must reproduce bit for bit."""
    geom = intensity.geometry
    claims = np.stack(masks, axis=-1)
    count = claims.sum(axis=-1)
    out = np.zeros(geom.dims, dtype=np.int32)
    for mask, (label, _, _) in zip(masks, instances):
        out[mask & (count == 1)] = label
    contested = count >= 2
    if not np.any(contested):
        return out
    pts = geom.voxel_to_world(np.argwhere(contested))
    ivals = intensity.data[contested]
    claim_stack = claims[contested]
    feats_int, feats_dist, pairs = [], [], []
    for vi, (label, center, mean_intensity) in enumerate(instances):
        sel = claim_stack[:, vi]
        if not np.any(sel):
            continue
        feats_int.append(np.abs(ivals[sel] - mean_intensity))
        feats_dist.append(np.linalg.norm(pts[sel] - center, axis=1))
        pairs.append((label, sel))
    all_int = np.concatenate(feats_int)
    all_dist = np.concatenate(feats_dist)

    def z(values, pool):
        sd = pool.std()
        return (values - pool.mean()) / (sd if sd > 1e-12 else 1.0)

    nvox = claim_stack.shape[0]
    best_score = np.full(nvox, -np.inf)
    winner = np.zeros(nvox, dtype=np.int64)
    for (label, sel), fi, fd in zip(pairs, feats_int, feats_dist):
        score = (-policy.w_intensity * z(fi, all_int)
                 - policy.w_distance * z(fd, all_dist))
        cur = np.full(nvox, -np.inf)
        cur[sel] = score
        better = cur > best_score
        best_score[better] = cur[better]
        winner[better] = label
    out[contested] = winner
    return out


@st.composite
def _claims(draw):
    """A grid, and 2-6 masks on boxes of it given as (label, form, box,
    full-grid boolean mask). The first two boxes share a claimed voxel,
    boxes may touch any face, and each mask comes as a crop of its box
    grown by a margin or as a full-grid LabelVolume."""
    dims = draw(st.tuples(*[st.integers(2, 12)] * 3))
    spacing = draw(st.tuples(*[st.sampled_from([0.5, 0.8, 1.0, 1.5])] * 3))
    origin = draw(st.tuples(*[st.sampled_from([-7.5, 0.0, 3.25])] * 3))
    geom = GridGeometry(dims, spacing, origin)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shared = [draw(st.integers(0, n - 1)) for n in dims]
    labels = draw(st.lists(st.integers(1, 40), min_size=2, max_size=6,
                           unique=True))
    masks = []
    for k, lv in enumerate(labels):
        if k < 2:  # boxes holding the shared voxel
            lo = [draw(st.integers(0, p)) for p in shared]
            hi = [draw(st.integers(p, n - 1)) for p, n in zip(shared, dims)]
        else:
            lo = [draw(st.integers(0, n - 1)) for n in dims]
            hi = [draw(st.integers(a, n - 1)) for a, n in zip(lo, dims)]
        box = BoundingBox(lo, hi)
        m = np.zeros(dims, dtype=bool)
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        m[sl] = rng.random(m[sl].shape) < draw(st.floats(0.3, 1.0))
        m[tuple(lo)] = True  # not empty
        if k < 2:
            m[tuple(shared)] = True
        form = draw(st.sampled_from(["crop", "grid"]))
        margin = draw(st.tuples(*[st.integers(0, 2)] * 3))
        masks.append((lv, form, box, margin, m))
    return geom, masks


def _as_form(form, box, margin, m, geom):
    full = LabelVolume(geom, m.astype(np.int32))
    return crop(full, box, margin) if form == "crop" else full


@settings(max_examples=80, deadline=None)
@given(claims=_claims(), seed=st.integers(0, 2 ** 16),
       weights=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 2.0),
                                (0.5, -1.0)]))
def test_collisions_on_crops_equal_the_full_grid_reference(claims, seed,
                                                           weights):
    geom, masks = claims
    intensity = _noise_intensity(geom, seed)
    # plateaus of equal intensity give tied scores, which the earlier
    # mask must win in both forms
    intensity.data[:, :, : geom.dims[2] // 2] = 50.0
    policy = CollisionPolicy(*weights)
    full = [m for *_, m in masks]
    assert (np.sum(full, axis=0) >= 2).any()
    given_masks = [(lv, _as_form(form, box, margin, m, geom))
                   for lv, form, box, margin, m in masks]
    instances = [_full_grid_instance(lv, m, intensity)
                 for (lv, _), m in zip(given_masks, full)]
    expect = _full_grid_collisions(full, intensity, instances, policy)
    out = separate_labels(given_masks, intensity, policy)
    assert out.data.dtype == np.int32
    assert np.array_equal(out.data, expect)


def test_collisions_count_256_claims_on_one_voxel_without_wrapping():
    # 256 one-voxel crops claim voxel (1, 1, 1); a uint8 count would wrap
    # to 0 there and leave it unlabelled
    g = _geom((3, 3, 3))
    intensity = _noise_intensity(g, 3)
    one = crop(LabelVolume(g, np.ones(g.dims, dtype=np.int32)),
               BoundingBox((1, 1, 1), (1, 1, 1)))
    masks = [(lv, one) for lv in range(1, 257)]
    out = separate_labels(masks, intensity)
    full = [np.zeros(g.dims, dtype=bool) for _ in masks]
    for m in full:
        m[1, 1, 1] = True
    instances = [_full_grid_instance(lv, m, intensity)
                 for (lv, _), m in zip(masks, full)]
    expect = _full_grid_collisions(full, intensity, instances,
                                   CollisionPolicy())
    assert expect[1, 1, 1] != 0
    assert np.array_equal(out.data, expect)


def test_separate_labels_on_crops_holds_no_per_mask_grid():
    # five overlapping small crops on a 64^3 grid: the claim count, the
    # contested set and the output are the only full-grid arrays, about
    # 10 bytes per voxel; a full-grid boolean per mask and their stack
    # would add 2 bytes per voxel per mask
    g = _geom((64, 64, 64))
    intensity = _noise_intensity(g, 4)
    masks = []
    for k in range(5):
        box = BoundingBox((10 * k, 20, 20), (10 * k + 14, 34, 34))
        full = np.zeros(g.dims, dtype=np.int32)
        full[tuple(slice(a, b + 1) for a, b in zip(box.min_index,
                                                   box.max_index))] = 1
        masks.append((k + 1, crop(LabelVolume(g, full), box, (2, 2, 2))))
    tracemalloc.start()
    try:
        out = separate_labels(masks, intensity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(np.unique(out.data)) == {0, 1, 2, 3, 4, 5}
    assert peak < 16 * 64 ** 3


def test_separate_labels_places_crops_without_copying_intensity(
        monkeypatch):
    # placing a mask checks its grid against the intensity window's
    # geometry; it reads no intensity voxels into a copy
    import vertseg.postprocess as postprocess
    g = _geom((20, 20, 20))
    data = np.zeros(g.dims, dtype=np.int32)
    data[4:9, 4:9, 4:9] = 1
    data[11:16, 11:16, 11:16] = 2
    intensity = _noise_intensity(g, 6)
    masks = [(lv, crop(LabelVolume(g, np.where(data == lv, 1, 0)),
                       BoundingBox.from_slices(box), (1, 1, 1)))
             for lv, box in label_boxes(data).items()]
    expect = separate_labels(masks, intensity)

    def no_crop(*args, **kwargs):
        raise AssertionError("crop called while placing masks")

    monkeypatch.setattr(postprocess, "crop", no_crop)
    assert np.array_equal(separate_labels(masks, intensity).data,
                          expect.data)
