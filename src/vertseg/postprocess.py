"""Morphological label correction: island removal and hole closing,
collision resolution between vertebrae by a linear score, and level-set
boundary refinement driven by the intensity Laplacian.

`refine_labels` (settings: `PostprocessConfig`) and `separate_labels`
(`CollisionPolicy`) chain these steps; `vertseg refine` and the pipeline
both post-process through them, and hand on each mask as its band crop.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .checks import integer, real
from .volume import (BoundingBox, GridGeometry, LabelVolume,
                     bounding_box_of, crop, label_boxes)

_CONN26 = np.ones((3, 3, 3), dtype=bool)
_CURVATURE_WEIGHT = 0.2
_SMOOTH_SIGMA = 1.0


@dataclass
class VertebraInstance:
    label: int
    center: np.ndarray  # world mm
    mean_intensity: float


@dataclass
class CollisionPolicy:
    w_intensity: float = 1.0
    w_distance: float = 1.0

    def __post_init__(self):
        for name in ("w_intensity", "w_distance"):
            setattr(self, name, real(name, getattr(self, name)))
        if self.w_intensity == 0.0 and self.w_distance == 0.0:
            raise ValueError("at least one collision weight must be nonzero")


@dataclass
class PostprocessConfig:
    """Settings of `refine_labels`, and the one check of each value; its
    defaults are also `morph_cleanup`'s and `levelset_refine`'s."""

    min_island_voxels: int = 50
    levelset_iters: int = 10
    levelset_step: float = 0.25  # voxels per iteration

    def __post_init__(self):
        for name in ("min_island_voxels", "levelset_iters"):
            setattr(self, name, integer(name, getattr(self, name), 0))
        step = self.levelset_step = real("levelset_step", self.levelset_step)
        if step <= 0:
            raise ValueError(f"levelset_step must be > 0, got {step}")


def _on_intensity_grid(mask, grid):
    """The mask's data, after checking that it lies on the intensity
    grid (a GridGeometry): a LabelVolume by `GridGeometry.same_grid`, an
    array by shape."""
    if isinstance(mask, LabelVolume):
        if not mask.geometry.same_grid(grid):
            raise ValueError(f"mask grid {mask.geometry} is not the "
                             f"intensity grid {grid}")
        return mask.data
    arr = np.asarray(mask)
    if arr.shape != grid.dims:
        raise ValueError(f"mask shape {arr.shape} is not the intensity "
                         f"dims {grid.dims}")
    return arr


def _placement(mask, intensity):
    """A mask's slices on the intensity grid and its boolean data there.
    A LabelVolume lies on a crop of the grid (the whole grid is one): the
    crop starts at the mask's rounded voxel offset, lies inside the grid,
    and `_on_intensity_grid` checks the mask on the crop's geometry. An
    array has the grid's shape."""
    geom = intensity.geometry
    if not isinstance(mask, LabelVolume):
        m = _on_intensity_grid(mask, geom) != 0
        return tuple(slice(0, n) for n in m.shape), m
    dims = mask.geometry.dims
    lo = np.round(geom.world_to_voxel(mask.geometry.origin)).astype(int)
    if np.any(lo < 0) or np.any(lo + dims > geom.dims):
        raise ValueError(f"mask grid {mask.geometry} reaches past the "
                         f"intensity grid {geom}")
    window = GridGeometry(dims, geom.spacing, tuple(geom.voxel_to_world(lo)))
    sl = tuple(slice(a, a + n) for a, n in zip(lo, dims))
    return sl, _on_intensity_grid(mask, window) != 0


def instance_from_mask(label, mask, intensity):
    """Build a VertebraInstance (centroid + mean HU) from a binary mask
    on a crop of the intensity grid (see `_placement`)."""
    sl, m = _placement(mask, intensity)
    idx = np.argwhere(m)
    if idx.size == 0:
        raise ValueError(f"empty mask for label {label}")
    center_idx = (idx + [s.start for s in sl]).mean(axis=0)
    center = intensity.geometry.voxel_to_world(center_idx)
    return VertebraInstance(int(label), np.asarray(center),
                            float(intensity.data[sl][m].mean()))


def morph_cleanup(lbl, min_island_voxels=PostprocessConfig.min_island_voxels):
    """Remove small 26-connected islands (keeping only each label's
    largest component) and fill 6-connected cavities fully enclosed by a
    single label. Idempotent.

    Each label's components are labelled inside its own bounding box,
    and the cavity fill runs on the union box of all labels, padded by
    one voxel and clamped to the volume. Both crops give the full-grid
    result bit for bit: a component keeps its voxels and its scan order
    in any box holding it, and every cavity lies inside the union box (a
    background voxel beyond it on some axis reaches the volume face along
    that axis through background)."""
    PostprocessConfig(min_island_voxels=min_island_voxels)  # the check
    data = lbl.data.copy()
    boxes = list(label_boxes(data).items())
    for lv, sl in boxes:
        local = data[sl]
        mask = local == lv
        comps, ncomp = ndimage.label(mask, structure=_CONN26)
        if ncomp <= 1 and mask.sum() >= min_island_voxels:
            continue
        sizes = np.bincount(comps.ravel())[1:]
        keep = int(np.argmax(sizes)) + 1
        drop = mask & (comps != keep)
        if sizes[keep - 1] < min_island_voxels:
            drop = mask
        local[drop] = 0
    if not boxes:
        return LabelVolume(lbl.geometry, data)

    # cavity fill: 6-connected background components not touching the
    # border and adjacent to exactly one label
    union = tuple(slice(max(0, min(sl[a].start for _, sl in boxes) - 1),
                        max(sl[a].stop for _, sl in boxes) + 1)
                  for a in range(3))
    region = data[union]
    comps, ncomp = ndimage.label(region == 0)  # 6-connectivity
    if ncomp:
        border_ids = set()
        for axis in range(3):
            for side in (0, -1):
                face = np.take(comps, side, axis=axis)
                border_ids.update(np.unique(face).tolist())
        objects = ndimage.find_objects(comps)
        for cid in range(1, ncomp + 1):
            if cid in border_ids:
                continue
            sl = objects[cid - 1]
            grown = tuple(slice(max(0, s.start - 1), s.stop + 1) for s in sl)
            comp_mask = comps[grown] == cid
            shell = ndimage.binary_dilation(comp_mask) & ~comp_mask
            local = region[grown]
            neighbors = np.unique(local[shell])
            neighbors = neighbors[neighbors != 0]
            if len(neighbors) == 1:
                local[comp_mask] = neighbors[0]
    return LabelVolume(lbl.geometry, data)


def resolve_collisions(per_vertebra_masks, intensity, instances, policy=None):
    """Assign voxels claimed by multiple vertebrae to the instance with the
    best linear score over z-standardized intensity and distance features.

    Each mask lies on a crop of the intensity grid (see `_placement`).
    Claims are counted crop by crop in one grid of the smallest unsigned
    type that holds the number of masks; sole claims are written from
    their crops, and only contested voxels are scored."""
    policy = policy or CollisionPolicy()
    if len(instances) == 0:
        raise ValueError("no vertebra instances given")
    if len(per_vertebra_masks) != len(instances):
        raise ValueError("one mask per instance required")
    geom = intensity.geometry
    placed = [_placement(m, intensity) for m in per_vertebra_masks]

    count = np.zeros(geom.dims, dtype=np.min_scalar_type(len(placed)))
    for sl, m in placed:
        count[sl] += m
    out = np.zeros(geom.dims, dtype=np.int32)
    for (sl, m), inst in zip(placed, instances):
        out[sl][m & (count[sl] == 1)] = inst.label

    contested = count >= 2
    if not np.any(contested):
        return LabelVolume(geom, out)

    idx = np.argwhere(contested)
    flat = np.ravel_multi_index(idx.T, geom.dims)  # ascending
    pts = geom.voxel_to_world(idx)
    ivals = intensity.data[contested]

    nvox = len(idx)
    feats_int, feats_dist, pairs = [], [], []
    for vi, ((sl, m), inst) in enumerate(zip(placed, instances)):
        # the instance's claims among the contested voxels, in idx order
        own = np.argwhere(m & contested[sl]) + [s.start for s in sl]
        if len(own) == 0:
            continue
        sel = np.zeros(nvox, dtype=bool)
        sel[np.searchsorted(flat, np.ravel_multi_index(own.T, geom.dims))] \
            = True
        feats_int.append(np.abs(ivals[sel] - inst.mean_intensity))
        feats_dist.append(np.linalg.norm(pts[sel] - inst.center, axis=1))
        pairs.append((vi, sel))

    all_int = np.concatenate(feats_int)
    all_dist = np.concatenate(feats_dist)

    def z(values, pool):
        sd = pool.std()
        return (values - pool.mean()) / (sd if sd > 1e-12 else 1.0)

    best_score = np.full(nvox, -np.inf)
    winner = np.zeros(nvox, dtype=np.int64)
    for (vi, sel), fi, fd in zip(pairs, feats_int, feats_dist):
        score = (-policy.w_intensity * z(fi, all_int)
                 - policy.w_distance * z(fd, all_dist))
        cur = np.full(nvox, -np.inf)
        cur[sel] = score
        better = cur > best_score  # ties keep the earlier (lower) label
        best_score[better] = cur[better]
        winner[better] = instances[vi].label
    out[contested] = winner
    return LabelVolume(geom, out)


def _speed_field(intensity, smooth_sigma):
    """Laplacian of the smoothed intensity, divided by its largest
    magnitude: zero at edges, in [-1, 1]."""
    smoothed = ndimage.gaussian_filter(intensity.data, smooth_sigma)
    # ndimage.laplace's sum, axis 0 then 1 then 2, through one reused
    # buffer: three grid copies at most, where laplace takes four
    lap = ndimage.correlate1d(smoothed, [1, -2, 1], 0, mode="reflect")
    term = np.empty_like(lap)
    for axis in (1, 2):
        ndimage.correlate1d(smoothed, [1, -2, 1], axis, term, mode="reflect")
        lap += term
    scale = max(lap.max(), -lap.min())
    if scale > 0:
        lap /= scale
    else:
        lap.fill(0.0)
    return lap


def _band(box, iters, step, dims):
    """The level set's crop, as slices, of a mask whose BoundingBox is box:
    box padded by floor(iters*step + 1) + 2 voxels, clamped to dims."""
    pad = 2 + int(iters * step + 1.0)
    return tuple(slice(max(lo - pad, 0), min(hi + pad + 1, n))
                 for lo, hi, n in zip(box.min_index, box.max_index, dims))


def _gradient_taps(flat, shape):
    """np.gradient's rule at unit spacing and edge_order=1 at the flat
    indices flat of a C-order array of shape: per axis the (forward
    index, backward index, divisor) for which (f[fwd] - f[bwd]) / div is
    np.gradient(f, axis=axis) there, bit for bit. Inside, a central
    difference over 2.0; on the first and last plane of an axis, a
    one-sided difference over 1.0."""
    taps = []
    for axis, (i, n) in enumerate(zip(np.unravel_index(flat, shape),
                                      shape)):
        stride = int(np.prod(shape[axis + 1:]))
        after, before = i < n - 1, i > 0
        taps.append((flat + after * stride, flat - before * stride,
                     np.where(after & before, 2.0, 1.0)))
    return taps


def _difference(f, taps):
    """(f[fwd] - f[bwd]) / div for one axis's taps (`_gradient_taps`)."""
    fwd, bwd, div = taps
    return (f[fwd] - f[bwd]) / div


def _initial_level_set(m, iters, step):
    """The signed distance phi of the boolean crop m (positive outside)
    and the band that the level set evolves: |phi| <= iters*step + 1."""
    phi = ndimage.distance_transform_edt(~m)
    phi -= ndimage.distance_transform_edt(m)
    return phi, np.abs(phi) <= iters * step + 1.0


def _evolve(m, speed, iters, step, curvature_weight):
    """Level set of the boolean band crop m (see `_band`) under speed,
    the speed field on the same crop; returns the evolved boolean crop.

    Only the band's voxels are evolved, and only they are read from
    speed. Each iteration takes the first derivatives at the band grown
    by one voxel (6-connected, inside the crop), the second derivatives
    and the curvature at the band, all by `np.gradient`'s rule
    (`_gradient_taps`), so the band gets the bits that nested
    `np.gradient` calls on the whole crop give it, at crop faces too."""
    for axis, n in enumerate(m.shape):
        if n < 2:
            raise ValueError(f"the level set needs at least 2 voxels along "
                             f"each axis; its crop has {n} along axis "
                             f"{axis}")
    phi, band = _initial_level_set(m, iters, step)
    b = np.flatnonzero(band)
    grown = np.flatnonzero(ndimage.binary_dilation(band))
    first, second = (_gradient_taps(idx, m.shape) for idx in (grown, b))
    speed = speed[band]
    flat = phi.ravel()
    g = np.empty((3, m.size))  # gx, gy, gz, valid on grown
    for _ in range(iters):
        for ga, taps in zip(g, first):
            ga[grown] = _difference(flat, taps)
        gxx, gxy, gxz = (_difference(g[0], taps) for taps in second)
        gyy, gyz = (_difference(g[1], taps) for taps in second[1:])
        gzz = _difference(g[2], second[2])
        gx, gy, gz = (ga[b] for ga in g)
        num = (gx * gx * (gyy + gzz) + gy * gy * (gxx + gzz)
               + gz * gz * (gxx + gyy)
               - 2.0 * (gx * gy * gxy + gy * gz * gyz + gx * gz * gxz))
        mag = np.sqrt(gx * gx + gy * gy + gz * gz)
        kappa = np.clip(num / (mag ** 3 + 1e-8), -1.0, 1.0)
        flat[b] += step * (speed + curvature_weight * kappa) * mag
    return np.where(band, phi < 0.0, m)


def levelset_refine(mask, intensity, iters=PostprocessConfig.levelset_iters,
                    step=PostprocessConfig.levelset_step,
                    curvature_weight=_CURVATURE_WEIGHT,
                    smooth_sigma=_SMOOTH_SIGMA):
    """Evolve the mask boundary toward intensity edges.

    Speed is the normalized Laplacian of the smoothed intensity (zero at
    edges, attracting from both sides) plus a small curvature term. The
    level set lives in voxel units; voxels farther than
    r = iters*step + 1 voxels from the initial boundary are never
    touched, and an empty mask stays empty. The mask must lie on the
    intensity grid.

    The work is done on the band crop (`_band`) of the mask's bounding
    box, which is written into a copy of the mask. The result equals the
    full-grid evolution exactly. The crop holds the whole mask and a
    background layer around it (unless at a volume face), so both
    distance transforms match the full-grid ones inside it. The
    curvature is evaluated only at band voxels (`_evolve`), by
    `np.gradient`'s rule: central differences inside, one-sided ones at
    volume faces. Every band voxel lies at least 2 voxels from a crop
    face that is not a volume face, so those nested differences read the
    same values as on the full grid, and give the same bits. Outside the
    crop, as outside the band, the mask is kept. A crop thinner than 2
    voxels along an axis is refused with a ValueError.
    """
    PostprocessConfig(levelset_iters=iters, levelset_step=step)  # the checks
    geom = mask.geometry if isinstance(mask, LabelVolume) else None
    m = _on_intensity_grid(mask, intensity.geometry) != 0
    out = m.astype(np.int32)
    if iters and m.any():
        sl = _band(bounding_box_of(m), iters, step, m.shape)
        out[sl] = _evolve(m[sl], _speed_field(intensity, smooth_sigma)[sl],
                          iters, step, curvature_weight)
    return LabelVolume(geom, out) if geom is not None else out


def refine_labels(lbl, intensity, cfg=None):
    """Clean up a label volume, then refine each label's binary mask by
    the level set, with cfg's settings (None: `PostprocessConfig()`).
    Returns {label: 0/1 LabelVolume on the label's band crop}, in label
    order; a label that cleanup removes entirely is absent. Placed on the
    grid, each equals `levelset_refine` of the cleaned label at cfg's
    iterations and step and the default curvature weight and smoothing;
    the speed field is computed once, not per label. The labels must lie
    on the intensity grid.
    """
    cfg = cfg or PostprocessConfig()
    iters, step = cfg.levelset_iters, cfg.levelset_step
    _on_intensity_grid(lbl, intensity.geometry)
    cleaned = morph_cleanup(lbl, cfg.min_island_voxels)
    speed = _speed_field(intensity, _SMOOTH_SIGMA) if iters else None
    refined = {}
    for lv, box in label_boxes(cleaned.data).items():
        sl = _band(BoundingBox.from_slices(box), iters, step, lbl.data.shape)
        band = crop(cleaned, BoundingBox.from_slices(sl))
        m = band.data == lv
        if iters:
            m = _evolve(m, speed[sl], iters, step, _CURVATURE_WEIGHT)
        refined[lv] = LabelVolume(band.geometry, m.astype(np.int32))
    return refined


def separate_labels(masks, intensity, policy=None):
    """One label volume from (label, mask) pairs, each mask a LabelVolume
    on a crop of the intensity grid (the whole grid is one): each mask
    becomes an instance (centroid, mean intensity), and voxels claimed by
    several masks go to the best-scoring instance."""
    masks = list(masks)
    instances = [instance_from_mask(lv, m, intensity) for lv, m in masks]
    return resolve_collisions([m for _, m in masks], intensity, instances,
                              policy)
