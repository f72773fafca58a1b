"""Morphological label correction: island removal and hole closing,
level-set boundary refinement driven by the intensity Laplacian, and the
merge of per-vertebra masks into one label volume, where a voxel that
several vertebrae claim goes to the best-scoring one.

`refine_labels` (settings: `PostprocessConfig`) and `separate_labels`
(`CollisionPolicy`) chain these steps; `vertseg refine` and the pipeline
both post-process through them, and hand on each mask as its band crop.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .checks import integer, real
from .volume import (BoundingBox, GridGeometry, LabelVolume, bounding_box_of,
                     crop, grow_box, label_boxes, union_box)

_CONN26 = np.ones((3, 3, 3), dtype=bool)
_CURVATURE_WEIGHT = 0.2
_SMOOTH_SIGMA = 1.0
_SLAB_PLANES = 16  # axis-0 planes per slab of `_speed_field`'s Laplacian


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
    """The data of mask, a LabelVolume, after checking by
    `GridGeometry.same_grid` that it lies on grid, the intensity grid."""
    if not mask.geometry.same_grid(grid):
        raise ValueError(f"mask grid {mask.geometry} is not the "
                         f"intensity grid {grid}")
    return mask.data


def _placement(mask, intensity):
    """A mask's slices on the intensity grid and its boolean data there.
    The mask, a LabelVolume, lies on a crop of the grid (the whole grid is
    one): the crop starts at the mask's rounded voxel offset, lies inside
    the grid, and `_on_intensity_grid` checks the mask on the crop's
    geometry."""
    geom = intensity.geometry
    dims = mask.geometry.dims
    lo = np.round(geom.world_to_voxel(mask.geometry.origin)).astype(int)
    if np.any(lo < 0) or np.any(lo + dims > geom.dims):
        raise ValueError(f"mask grid {mask.geometry} reaches past the "
                         f"intensity grid {geom}")
    window = GridGeometry(dims, geom.spacing, tuple(geom.voxel_to_world(lo)))
    sl = tuple(slice(a, a + n) for a, n in zip(lo, dims))
    return sl, _on_intensity_grid(mask, window) != 0


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
    region = data[grow_box(union_box([sl for _, sl in boxes]), 1,
                           data.shape)]
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
            grown = grow_box(sl, 1, comps.shape)
            comp_mask = comps[grown] == cid
            shell = ndimage.binary_dilation(comp_mask) & ~comp_mask
            local = region[grown]
            neighbors = np.unique(local[shell])
            neighbors = neighbors[neighbors != 0]
            if len(neighbors) == 1:
                local[comp_mask] = neighbors[0]
    return LabelVolume(lbl.geometry, data)


def _speed_field(intensity, smooth_sigma, box=None):
    """Laplacian of the smoothed intensity, divided by its largest
    magnitude over the whole grid: zero at edges, in [-1, 1]. Returned
    on box (slices of the grid; None: the whole grid) only.

    The Gaussian runs on the whole grid. The Laplacian is ndimage.laplace's
    sum, axis 0 then 1 then 2, formed in slabs of `_SLAB_PLANES` axis-0
    planes through two reused slab buffers; a slab reads one more plane
    of the smoothed image on each side for its axis-0 differences.
    correlate1d reads the same taps at every voxel, so each value has the
    full-grid bits. Every slab is differentiated, because the scale reads
    the whole grid's maximum, but only box's voxels are kept."""
    smoothed = ndimage.gaussian_filter(intensity.data, smooth_sigma)
    n0, planes = smoothed.shape[0], min(_SLAB_PLANES, smoothed.shape[0])
    box = box or tuple(slice(0, n) for n in smoothed.shape)
    out = np.empty(tuple(s.stop - s.start for s in box))
    lap_buf = np.empty((planes + 2,) + smoothed.shape[1:])
    term_buf = np.empty((planes,) + smoothed.shape[1:])
    hi, lo = -np.inf, np.inf
    for start in range(0, n0, _SLAB_PLANES):
        stop = min(start + _SLAB_PLANES, n0)
        a, b = max(start - 1, 0), min(stop + 1, n0)
        ndimage.correlate1d(smoothed[a:b], [1, -2, 1], 0, lap_buf[:b - a],
                            mode="reflect")
        lap = lap_buf[start - a:stop - a]
        term = term_buf[:stop - start]
        for axis in (1, 2):
            ndimage.correlate1d(smoothed[start:stop], [1, -2, 1], axis, term,
                                mode="reflect")
            lap += term
        # np.maximum/np.minimum carry a NaN through, as lap.max() does
        hi, lo = np.maximum(hi, lap.max()), np.minimum(lo, lap.min())
        keep = slice(max(start, box[0].start), min(stop, box[0].stop))
        if keep.start < keep.stop:
            out[keep.start - box[0].start:keep.stop - box[0].start] = \
                lap[keep.start - start:keep.stop - start, box[1], box[2]]
    scale = max(hi, -lo)
    if scale > 0:
        out /= scale
    else:
        out.fill(0.0)
    return out


def _band(box, iters, step, dims):
    """The level set's crop of a mask whose box (one slice per axis) is
    box: box grown by floor(iters*step + 1) + 2 voxels, clamped to dims."""
    return grow_box(box, 2 + int(iters * step + 1.0), dims)


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
    touched, and an empty mask stays empty. The mask is a LabelVolume on
    the intensity grid, and so is the 0/1 result.

    The work is done on the band crop (`_band`) of the mask's bounding
    box, which is written into a copy of the mask; the speed field is
    kept on that crop only (`_speed_field`). The result equals the
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
    m = _on_intensity_grid(mask, intensity.geometry) != 0
    out = m.astype(np.int32)
    if iters and m.any():
        sl = _band(bounding_box_of(m).slices(), iters, step, m.shape)
        out[sl] = _evolve(m[sl], _speed_field(intensity, smooth_sigma, sl),
                          iters, step, curvature_weight)
    return LabelVolume(mask.geometry, out)


def refine_labels(lbl, intensity, cfg=None):
    """Clean up a label volume, then refine each label's binary mask by
    the level set, with cfg's settings (None: `PostprocessConfig()`).
    Returns {label: 0/1 LabelVolume on the label's band crop}, in label
    order; a label that cleanup removes entirely is absent. Placed on the
    grid, each equals `levelset_refine` of the cleaned label at cfg's
    iterations and step and the default curvature weight and smoothing.
    The speed field is computed once, not per label, and kept only on the
    union of the labels' band crops (`_speed_field`); each label's level
    set reads its own crop of it. The labels must lie on the intensity
    grid.
    """
    cfg = cfg or PostprocessConfig()
    iters, step = cfg.levelset_iters, cfg.levelset_step
    _on_intensity_grid(lbl, intensity.geometry)
    cleaned = morph_cleanup(lbl, cfg.min_island_voxels)
    bands = {lv: _band(box, iters, step, lbl.data.shape)
             for lv, box in label_boxes(cleaned.data).items()}
    if iters and bands:
        union = union_box(list(bands.values()))
        speed = _speed_field(intensity, _SMOOTH_SIGMA, union)
    refined = {}
    for lv, sl in bands.items():
        band = crop(cleaned, BoundingBox.from_slices(sl))
        m = band.data == lv
        if iters:
            in_union = tuple(slice(s.start - u.start, s.stop - u.start)
                             for s, u in zip(sl, union))
            m = _evolve(m, speed[in_union], iters, step, _CURVATURE_WEIGHT)
        refined[lv] = LabelVolume(band.geometry, m.astype(np.int32))
    return refined


def separate_labels(masks, intensity, policy=None):
    """One label volume from (label, mask) pairs, each mask a nonempty
    LabelVolume on a crop of the intensity grid (see `_placement`).

    Claims are counted crop by crop in one grid of the smallest unsigned
    type that holds the number of masks; sole claims are written from
    their crops. A voxel that several masks claim goes to the best score,
    -w_intensity * z(|intensity - the mask's mean intensity|)
    - w_distance * z(distance in mm from the mask's centroid), each
    z-score pooled over all contested claims, with policy's weights
    (None: `CollisionPolicy()`); a tie goes to the earlier mask. Only a
    mask that claims a contested voxel is measured."""
    policy = policy or CollisionPolicy()
    geom = intensity.geometry
    placed = []
    for lv, mask in masks:
        sl, m = _placement(mask, intensity)
        if not m.any():
            raise ValueError(f"empty mask for label {lv}")
        placed.append((int(lv), sl, m))
    if not placed:
        raise ValueError("no vertebra masks given")

    count = np.zeros(geom.dims, dtype=np.min_scalar_type(len(placed)))
    for _, sl, m in placed:
        count[sl] += m
    out = np.zeros(geom.dims, dtype=np.int32)
    for lv, sl, m in placed:
        out[sl][m & (count[sl] == 1)] = lv

    contested = count >= 2
    if not np.any(contested):
        return LabelVolume(geom, out)

    idx = np.argwhere(contested)
    flat = np.ravel_multi_index(idx.T, geom.dims)  # ascending
    pts = geom.voxel_to_world(idx)
    ivals = intensity.data[contested]

    nvox = len(idx)
    feats_int, feats_dist, claimants = [], [], []
    for lv, sl, m in placed:
        start = [s.start for s in sl]
        # the mask's claims among the contested voxels, in idx order
        own = np.argwhere(m & contested[sl]) + start
        if len(own) == 0:
            continue
        sel = np.zeros(nvox, dtype=bool)
        sel[np.searchsorted(flat, np.ravel_multi_index(own.T, geom.dims))] \
            = True
        center = geom.voxel_to_world((np.argwhere(m) + start).mean(axis=0))
        feats_int.append(np.abs(ivals[sel] - intensity.data[sl][m].mean()))
        feats_dist.append(np.linalg.norm(pts[sel] - center, axis=1))
        claimants.append((lv, sel))

    all_int = np.concatenate(feats_int)
    all_dist = np.concatenate(feats_dist)

    def z(values, pool):
        sd = pool.std()
        return (values - pool.mean()) / (sd if sd > 1e-12 else 1.0)

    best_score = np.full(nvox, -np.inf)
    winner = np.zeros(nvox, dtype=np.int64)
    for (lv, sel), fi, fd in zip(claimants, feats_int, feats_dist):
        score = (-policy.w_intensity * z(fi, all_int)
                 - policy.w_distance * z(fd, all_dist))
        cur = np.full(nvox, -np.inf)
        cur[sel] = score
        better = cur > best_score  # ties keep the earlier mask
        best_score[better] = cur[better]
        winner[better] = lv
    out[contested] = winner
    return LabelVolume(geom, out)
