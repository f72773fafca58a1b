"""Dense 3D scalar and label volumes with world-space geometry.

Geometry is axis-aligned: world = origin + index * spacing. Arrays are
indexed (i, j, k) matching world axes (x, y, z).
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .bspline import BLOCK_POINTS
from .checks import integers

# NIfTI stores spacing and origin as float32
_GRID_ATOL_MM = 1e-3


@dataclass(frozen=True)
class GridGeometry:
    """Voxel grid geometry: dims (voxels), spacing (mm), origin (mm)."""

    dims: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        dims = integers("dims", self.dims, 1)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(spacing) != 3 or len(origin) != 3:
            raise ValueError("geometry fields must have length 3")
        for name, values in (("spacing", spacing), ("origin", origin)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values}")
        if any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be > 0, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    def world_to_voxel(self, p):
        """Continuous voxel coordinates of world point(s) p (..., 3)."""
        u = np.asarray(p, dtype=np.float64) - np.array(self.origin)
        u /= np.array(self.spacing)
        return u

    def voxel_to_world(self, idx):
        """World coordinates of voxel index/indices (..., 3)."""
        idx = np.asarray(idx, dtype=np.float64)
        return np.array(self.origin) + idx * np.array(self.spacing)

    def axes(self):
        """World coordinates of the voxel centers along each axis: three
        1-D arrays, the coordinates `grid_world_points` combines."""
        return [self.origin[a] + self.spacing[a] * np.arange(self.dims[a])
                for a in range(3)]

    def grid_world_points(self):
        """World coordinates of every voxel center, shape dims + (3,)."""
        gx, gy, gz = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def same_grid(self, other):
        """Whether other is this grid: equal dims, and spacing and origin
        equal to within 0.001 mm. Every stage that combines volumes
        voxel by voxel checks its inputs with this rule."""
        return self.dims == other.dims \
            and np.allclose(self.spacing, other.spacing, rtol=0,
                            atol=_GRID_ATOL_MM) \
            and np.allclose(self.origin, other.origin, rtol=0,
                            atol=_GRID_ATOL_MM)

    @property
    def voxel_volume_mm3(self):
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


@dataclass
class ScalarVolume:
    """3D intensity volume (HU) on a GridGeometry."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != self.geometry.dims:
            raise ValueError(
                f"data shape {self.data.shape} != dims {self.geometry.dims}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("scalar volume contains non-finite values")


@dataclass
class LabelVolume:
    """3D label volume; label 0 is background."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if not np.issubdtype(self.data.dtype, np.integer):
            if not np.array_equal(self.data, np.round(self.data)):
                raise ValueError("label data must be integral")
        self.data = self.data.astype(np.int32, copy=False)
        if self.data.shape != self.geometry.dims:
            raise ValueError(
                f"data shape {self.data.shape} != dims {self.geometry.dims}")
        if self.data.min() < 0:
            raise ValueError("labels must be non-negative")

    def labels(self):
        """Sorted foreground label values present in the volume."""
        return list(label_boxes(self.data))


@dataclass(frozen=True)
class BoundingBox:
    """Inclusive voxel-index bounds."""

    min_index: tuple
    max_index: tuple

    def __post_init__(self):
        lo = integers("min_index", self.min_index)
        hi = integers("max_index", self.max_index)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"bounding box min {lo} exceeds max {hi}")
        object.__setattr__(self, "min_index", lo)
        object.__setattr__(self, "max_index", hi)

    @classmethod
    def from_slices(cls, box):
        """The box given as one slice per axis (`ndimage.find_objects`
        style: start inclusive, stop exclusive)."""
        return cls(tuple(s.start for s in box), tuple(s.stop - 1 for s in box))

    def slices(self):
        """The box as one slice per axis, as `from_slices` takes it."""
        return tuple(slice(lo, hi + 1)
                     for lo, hi in zip(self.min_index, self.max_index))


# `ndimage.find_objects` allocates a slot per label value up to the
# largest; above this, `label_boxes` ranks the labels first
_MAX_FIND_OBJECTS_LABEL = 65535


def label_boxes(data):
    """{label: box} for the foreground labels of an integer label array,
    in increasing label order; a box is one slice per axis, from one
    `ndimage.find_objects` pass. Labels above 65535 are first replaced by
    their rank (`np.unique`), so the pass never allocates per label value
    beyond that."""
    data = np.asarray(data)
    values = None
    if data.size and int(data.max()) > _MAX_FIND_OBJECTS_LABEL:
        values, ranks = np.unique(data, return_inverse=True)
        if values[0] != 0:  # rank 0 must stay background
            values, ranks = np.concatenate([[0], values]), ranks + 1
        data = ranks.reshape(data.shape)
    return {int(lv if values is None else values[lv]): box
            for lv, box in enumerate(ndimage.find_objects(data), 1)
            if box is not None}


def grow_box(box, margin, dims):
    """The box (one slice per axis) grown by margin voxels, one number or
    one per axis, on every side and clamped to dims."""
    margins = np.broadcast_to(margin, len(dims))
    return tuple(slice(max(s.start - int(m), 0), min(s.stop + int(m), dim))
                 for s, m, dim in zip(box, margins, dims))


def union_box(boxes):
    """The smallest box (one slice per axis) holding every box of a
    non-empty list; ValueError "mask is empty" for an empty one."""
    if not boxes:
        raise ValueError("mask is empty")
    return tuple(slice(min(b[a].start for b in boxes),
                       max(b[a].stop for b in boxes)) for a in range(3))


def _voxel_blocks(geom, p):
    """The world points p (..., 3), BLOCK_POINTS at a time: yields (blk,
    u), the block's slice of the flattened points and its voxel
    coordinates axis-major, (3, n). A NaN or infinite point raises
    ValueError."""
    pts = p.reshape(-1, 3)
    for start in range(0, len(pts), BLOCK_POINTS):
        blk = slice(start, start + BLOCK_POINTS)
        if not np.isfinite(pts[blk]).all():
            raise ValueError("non-finite sample point")
        yield blk, geom.world_to_voxel(np.asfortranarray(pts[blk])).T


def _flat_strides(dims):
    """Flat C-order steps of one voxel along each axis of an array of
    shape dims."""
    return dims[1] * dims[2], dims[2], 1


def trilinear_sample(vol, p, fill=0.0):
    """Trilinear interpolation at world point(s) p (..., 3); outside -> fill.

    The points are mapped to voxels axis by axis, BLOCK_POINTS at a time.
    Each point's 8 corners are read through one flat index, of its lower
    corner, plus a fixed offset per corner, and added to 0 in C order of
    (dx, dy, dz), each as ((wx * wy) * wz) * value: the arithmetic of a
    three-index evaluation, in the same order. On a 1-voxel axis the
    upper corner is the lower one, with weight 0.
    """
    p = np.asarray(p, dtype=np.float64)
    dims = vol.geometry.dims
    strides = _flat_strides(dims)
    # the upper corner's offset along each axis; on a 1-voxel axis it is
    # the lower corner again, read with weight 0
    steps = [stride if n > 1 else 0 for stride, n in zip(strides, dims)]
    data = vol.data.ravel()
    out = np.empty(p.shape[:-1])
    for blk, u in _voxel_blocks(vol.geometry, p):
        inside = np.ones(u.shape[1], dtype=bool)
        base = np.zeros(u.shape[1], dtype=np.int64)
        weights = []
        for row, n, stride in zip(u, dims, strides):
            inside &= row >= 0.0
            inside &= row <= n - 1.0
            np.clip(row, 0.0, n - 1.0, out=row)
            i0 = np.floor(row).astype(np.int64)
            np.minimum(i0, n - 2, out=i0)
            np.maximum(i0, 0, out=i0)
            f = row - i0
            weights.append((1.0 - f, f))
            i0 *= stride
            base += i0
        acc = np.zeros(u.shape[1])
        value = np.empty(u.shape[1], dtype=data.dtype)
        wx, wy, wz = weights
        for dx in (0, 1):
            for dy in (0, 1):
                wxy = wx[dx] * wy[dy]
                for dz in (0, 1):
                    # every index is in range, so "clip" clips nothing
                    # and writes to value without a buffer
                    data[dx * steps[0] + dy * steps[1] + dz * steps[2]:].take(
                        base, out=value, mode="clip")
                    term = wxy * wz[dz]
                    term *= value
                    acc += term
        out.reshape(-1)[blk] = np.where(inside, acc, fill)
    return out


def nearest_sample(vol, p):
    """Nearest-voxel label at world point(s) p; outside the grid -> 0.

    Half-way ties resolve to the lower index (ceil of u - 0.5), i.e.
    the lower linear voxel index. The points are mapped to voxels axis by
    axis, BLOCK_POINTS at a time, and read through one flat index each.
    """
    p = np.asarray(p, dtype=np.float64)
    dims = vol.geometry.dims
    data = vol.data.ravel()
    out = np.empty(p.shape[:-1], dtype=data.dtype)
    for blk, u in _voxel_blocks(vol.geometry, p):
        inside = np.ones(u.shape[1], dtype=bool)
        index = np.zeros(u.shape[1], dtype=np.int64)
        for row, n, stride in zip(u, dims, _flat_strides(dims)):
            inside &= row >= -0.5
            inside &= row < n - 0.5
            # ceil(u - 0.5) maps x.5 down to x: lower-index tie-break
            idx = np.ceil(row - 0.5).astype(np.int64)
            np.clip(idx, 0, n - 1, out=idx)
            idx *= stride
            index += idx
        out.reshape(-1)[blk] = np.where(inside, data[index], 0)
    return out


def crop(vol, box, margin_voxels=(0, 0, 0)):
    """Sub-volume over box expanded by margin, clamped to the grid.

    The origin is shifted so world coordinates of retained voxels are
    unchanged.
    """
    dims = vol.geometry.dims
    if any(box.min_index[a] >= dims[a] or box.max_index[a] < 0 for a in range(3)):
        raise ValueError("bounding box does not intersect the volume")
    sl = grow_box(box.slices(), margin_voxels, dims)
    sub = vol.data[sl]
    geom = GridGeometry(
        dims=sub.shape,
        spacing=vol.geometry.spacing,
        origin=tuple(vol.geometry.voxel_to_world([s.start for s in sl])),
    )
    return type(vol)(geom, sub.copy())


def resample(src, target_geom, total_transform=None):
    """Pull-back resampling: out(x) = sample(src, T(voxel center x)).

    total_transform maps world points of the target grid into the source's
    world space; None means identity. Scalars interpolate trilinearly,
    labels by nearest neighbor.
    """
    if total_transform is None and target_geom == src.geometry:
        return type(src)(target_geom, src.data.copy())
    pts = target_geom.grid_world_points()
    if total_transform is not None:
        pts = total_transform(pts.reshape(-1, 3)).reshape(pts.shape)
    return pull_back(src, target_geom, pts)


def pull_back(src, target_geom, points):
    """Volume on target_geom whose voxels take src's values at the world
    points (target dims + (3,)): trilinear for scalars, nearest neighbor
    for labels."""
    if isinstance(src, LabelVolume):
        data = nearest_sample(src, points).astype(np.int32)
    else:
        data = trilinear_sample(src, points)
    return type(src)(target_geom, data)


def downsample(vol, factor):
    """Decimate by integer factors; scalars are Gaussian-smoothed first.

    Anti-aliasing sigma is 0.5 * factor voxels on axes with factor > 1.
    """
    factor = tuple(int(f) for f in factor)
    if any(f < 1 for f in factor):
        raise ValueError(f"factor must be >= 1, got {factor}")
    dims = vol.geometry.dims
    new_dims = tuple((dims[a] + factor[a] - 1) // factor[a] for a in range(3))
    if isinstance(vol, LabelVolume):
        data = vol.data[::factor[0], ::factor[1], ::factor[2]].copy()
    else:
        if all(f == 1 for f in factor):
            data = vol.data.copy()
        else:
            sigma = [0.5 * f if f > 1 else 0.0 for f in factor]
            smoothed = ndimage.gaussian_filter(vol.data, sigma=sigma,
                                               mode="nearest")
            data = smoothed[::factor[0], ::factor[1], ::factor[2]].copy()
    geom = GridGeometry(
        dims=new_dims,
        spacing=tuple(vol.geometry.spacing[a] * factor[a] for a in range(3)),
        origin=vol.geometry.origin,
    )
    return type(vol)(geom, data)


def bounding_box_of(mask):
    """Tight BoundingBox of the nonzero voxels of a boolean/label array."""
    nonzero = (np.asarray(mask) != 0).view(np.int8)
    return BoundingBox.from_slices(union_box(ndimage.find_objects(nonzero)))
