"""Joint label fusion: per-voxel pairwise dependency matrices, weight
solves, and weighted consensus voting, plus a majority-vote baseline.

The dependency matrix at a voxel is built from local appearance error:

    M(i, j) = [ mean over the patch of |I_T - I_i| * |I_T - I_j| ]^beta

regularized by adding epsilon on the diagonal (Wang et al., IEEE TPAMI
2013). The fusion weights w = M^-1 1 / (1^t M^-1 1) come from one solve,
`jlf_weights`, which `fuse` calls on the stack of all active voxels'
matrices; a non-finite matrix (a large beta overflows the power) raises
ValueError instead of voting with NaN weights. Negative weights are
allowed; the consensus label is the score argmax with ties broken toward
the lower label value.

The vote reads weights only at active voxels, where some atlas has a
nonzero label, so `fuse` works on boxes around their bounding box, each
grown and clamped to the volume:

- the error box, grown by patch_radius: a weight reads the errors of
  its patch, so the error maps and the error-product filters live here;
- the difference domain, grown by 2 * patch_radius: an error's search
  compares patch SSDs, which read squared differences within
  patch_radius more, so those are formed here, and each patch-sum pass
  keeps only the rows the next pass (and finally the error box) reads;
- the work box, grown by 2 * patch_radius + search_radius: the shifted
  atlas reads reach search_radius past the difference domain.

Inside each box every read sees the values it sees on the full grid;
where a box face is a volume face, the zero padding and the edge clamp
are the same too. The search sums each patch SSD in float32, in patch
order, so a voxel's SSD has the same bits whatever the box, and the
search on a box is the full-grid search cropped to it. Exact SSD ties
keep the first shift wherever the float32 sums are exact (integer HU
patches whose partial sums stay below 2^24). The search keeps each
voxel's winning shift as an index and gathers the error at that shift
once per atlas from the float64 atlas, the same bits as the full-grid
error at that shift. The result is still not bit-identical to a
full-grid run: the error-product filters are running sums whose
rounding depends on where each line starts.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .checks import integer, real
from .volume import LabelVolume, grow_box


@dataclass
class RegisteredAtlas:
    warped_image: "ScalarVolume"
    warped_labels: LabelVolume
    atlas_id: str = ""


@dataclass
class FusionConfig:
    patch_radius: int = 2
    search_radius: int = 0
    beta: float = 2.0
    epsilon: float = 0.1

    def __post_init__(self):
        for name in ("patch_radius", "search_radius"):
            setattr(self, name, integer(name, getattr(self, name), 0))
        for name in ("beta", "epsilon"):
            value = real(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
            setattr(self, name, value)


@dataclass
class FusionOutput:
    consensus: LabelVolume
    probability: np.ndarray  # winning-label score, clipped to [0, 1]


def dependency_matrix(target_patch, atlas_patches, beta=2.0, epsilon=0.1):
    """Pairwise error-product matrix for one voxel's patches."""
    n = len(atlas_patches)
    if n == 0:
        raise ValueError("need at least one atlas patch")
    t = np.asarray(target_patch, dtype=np.float64).ravel()
    errs = [np.abs(t - np.asarray(p, dtype=np.float64).ravel())
            for p in atlas_patches]
    for e in errs:
        if e.shape != t.shape:
            raise ValueError("patches must share shape")
    m = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = np.mean(errs[i] * errs[j])
    return m ** beta + epsilon * np.eye(n)


def jlf_weights(m):
    """Solve w = M^-1 1 / (1^t M^-1 1) for one dependency matrix (n, n)
    or a stack of them (..., n, n), normalizing along the last axis: each
    matrix's weights sum to 1 up to rounding. A matrix with a non-finite
    entry, such as an overflow of the error products' beta power, raises
    ValueError."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("dependency matrix has non-finite entries")
    x = np.linalg.solve(m, np.ones(m.shape[-1]))
    return x / x.sum(axis=-1, keepdims=True)


def _check_shared_geometry(atlases):
    """The first atlas's label geometry, after checking that every
    atlas image and label volume lies on it (dims, spacing, origin)."""
    if len(atlases) == 0:
        raise ValueError("need at least one atlas")
    geom = atlases[0].warped_labels.geometry
    for a in atlases:
        if not (a.warped_image.geometry.same_grid(geom)
                and a.warped_labels.geometry.same_grid(geom)):
            raise ValueError(f"atlas {a.atlas_id!r} is not on the target "
                             f"grid {geom}: atlases must share the target "
                             f"geometry")
    return geom


def _box_sum(src, out, lo, hi, step, p):
    """out[lo:hi] = the in-order sum over t = -p..p of src[lo + t * step :
    hi + t * step], for flat arrays: one axis's patch sum, in 2p adds."""
    o = out[lo:hi]
    np.add(src[lo - p * step:hi - p * step],
           src[lo - (p - 1) * step:hi - (p - 1) * step], out=o)
    for t in range(2 - p, p + 1):
        np.add(o, src[lo + t * step:hi + t * step], out=o)


def _searched_errors(target_data, atlas_images, cfg, box=None):
    """Per-atlas absolute error maps on box (slices of the volumes; None:
    the whole volume), optionally after a local patch search that
    re-reads each atlas at its best-matching offset.

    The search picks, per voxel, the integer shift minimizing the local
    SSD within the patch window, the first shift in (dx, dy, dz) order
    winning a tie; the error map is then taken against the shifted atlas
    values. Patch voxels outside the volume add nothing to the SSD, and
    shifts read the atlas edge-clamped: a shift past a face repeats the
    face voxel and never wraps to the opposite face. Patch products are
    still accumulated with a single box filter afterwards, so the offset
    is treated as locally constant within a patch. With no search
    (search_radius 0) the one shift always wins, so the error map is
    |T - A| directly.

    The SSDs are float32 sums of float32 squared differences, added in
    patch order along axis 0, then 1, then 2, with no running sum, so a
    voxel's SSD has the same bits whatever the box, and exact ties keep
    the first shift (a strict float32 compare) wherever the float32 sums
    are exact: integer HU patches whose partial sums stay below 2^24.
    Only fuse's error-product filters, after the search, keep a running
    sum and its start-dependent rounding.

    All of it runs in a frame around the difference domain (box grown by
    patch_radius) with a margin of max(search_radius, patch_radius), in
    contiguous passes over flat ranges of the frame: per shift, one
    difference and one square pass over the difference domain, then
    2 * patch_radius adds per axis, each axis's range dropping the rows
    no later pass reads. Where the difference domain meets a volume
    face, the margin slab the sums read there is zeroed after each
    square pass. The winning shift is kept as an index, and each atlas's
    error map is one gather from the float64 atlas, edge-padded into the
    frame: the same bits as |T - A| at that shift.
    """
    dims = target_data.shape
    box = box or tuple(slice(0, d) for d in dims)
    r, p = cfg.search_radius, cfg.patch_radius
    if r == 0:
        return [np.abs(target_data[box] - img[box]) for img in atlas_images]
    dom = grow_box(box, p, dims)
    reads = grow_box(dom, r, dims)
    m = max(r, p)
    frame_shape = tuple(d.stop - d.start + 2 * m for d in dom)
    # edge padding that makes the atlas read fill the frame
    pad = [(rs.start - (ds.start - m), (ds.stop + m) - rs.stop)
           for rs, ds in zip(reads, dom)]
    # regions of the frame as (start, stop) per axis
    at_dom = [(m, d.stop - d.start + m) for d in dom]
    at_box = [(b.start - d.start + m, b.stop - d.start + m)
              for b, d in zip(box, dom)]
    # box grown by patch_radius, unclamped: what the patch sums read
    at_patch = [(a - p, b + p) for a, b in at_box]

    def window(region):
        return tuple(slice(*s) for s in region)

    def flat_range(region):
        lo = np.ravel_multi_index([a for a, _ in region], frame_shape)
        hi = np.ravel_multi_index([b - 1 for _, b in region], frame_shape)
        return int(lo), int(hi) + 1

    strides = [int(np.prod(frame_shape[a + 1:])) for a in range(3)]
    shifts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
    offsets = shifts @ strides
    # each pass's output region: axis 0's sums on (box, patch, patch),
    # axis 1's on (box, box, patch), axis 2's on box
    passes = [(flat_range(at_box[:a + 1] + at_patch[a + 1:]), strides[a])
              for a in range(3)] if p else []
    # the slabs of the patch reach that lie past a volume face, which
    # must read as zeros
    slabs = []
    for a in range(3):
        for start, stop in ((at_patch[a][0], at_dom[a][0]),
                            (at_dom[a][1], at_patch[a][1])):
            if start < stop:
                slabs.append(window(at_patch[:a] + [(start, stop)]
                                    + at_patch[a + 1:]))
    lo, hi = flat_range(at_dom)
    target = np.zeros(frame_shape, dtype=np.float32)
    target[window(at_dom)] = target_data[dom]
    target_flat = target.ravel()[lo:hi]
    sq = np.zeros(frame_shape, dtype=np.float32)
    bufs = [sq.ravel(), np.zeros(sq.size, dtype=np.float32)]
    diff = bufs[0][lo:hi]
    # the SSDs are compared over box's flat range in the buffer the last
    # pass writes; the rows' margins in between hold values nobody reads
    box_lo, box_hi = flat_range(at_box)
    ssd = bufs[len(passes) % 2][box_lo:box_hi]
    # box's voxels as flat indices of the frame at shift 0; shift d reads
    # d . strides elements earlier
    base = np.arange(sq.size).reshape(frame_shape)[window(at_box)]
    best_ssd = np.empty(ssd.shape, dtype=np.float32)
    better = np.empty(ssd.shape, dtype=bool)
    best = np.empty(ssd.shape, dtype=np.min_scalar_type(len(shifts) - 1))
    candidate = np.empty_like(best)
    target_box = target_data[box]
    errs = []
    for img in atlas_images:
        padded = np.pad(img[reads], pad, mode="edge")
        padded_flat = padded.astype(np.float32).ravel()
        best_ssd.fill(np.inf)
        best.fill(0)
        for k, off in enumerate(offsets):
            # shifted[x] = img[clamp(x - d)] over dom, at flat x - off
            np.subtract(target_flat, padded_flat[lo - off:hi - off], out=diff)
            np.multiply(diff, diff, out=diff)
            for s in slabs:
                sq[s] = 0.0
            for i, ((a, b), step) in enumerate(passes):
                _box_sum(bufs[i % 2], bufs[1 - i % 2], a, b, step, p)
            np.less(ssd, best_ssd, out=better)
            np.minimum(best_ssd, ssd, out=best_ssd)
            np.multiply(better, best.dtype.type(k), out=candidate)
            np.maximum(best, candidate, out=best)
        err = padded.take(base - offsets[best[base - box_lo]])
        np.subtract(target_box, err, out=err)
        errs.append(np.abs(err, out=err))
    return errs


def _weighted_vote(atlases, weights_at):
    """Consensus of the atlases' warped labels, which the caller has
    checked share one geometry.

    weights_at(active) gives the (n_active, n_atlases) voting weights at
    the voxels where some atlas has a nonzero label; elsewhere the label
    is 0 with probability 1. Per-label scores are accumulated in label
    order, and the strict argmax breaks ties toward the lower label."""
    geom = atlases[0].warped_labels.geometry
    labels_data = np.stack([a.warped_labels.data for a in atlases], axis=-1)
    active = np.any(labels_data != 0, axis=-1)
    out = np.zeros(geom.dims, dtype=np.int32)
    prob = np.ones(geom.dims)
    if np.any(active):
        labels_stack = labels_data[active]
        weights = weights_at(active)
        best_label = np.zeros(weights.shape[0], dtype=np.int32)
        best_score = np.full(weights.shape[0], -np.inf)
        for lv in sorted(int(v) for v in np.unique(labels_stack)):
            score = np.sum(weights * (labels_stack == lv), axis=1)
            better = score > best_score
            best_score[better] = score[better]
            best_label[better] = lv
        out[active] = best_label
        prob[active] = np.clip(best_score, 0.0, 1.0)
    return FusionOutput(LabelVolume(geom, out), prob)


def fuse(target_image, atlases, cfg=None):
    """Joint label fusion of registered atlases against the target image.

    The error maps and the error-product filters cover the error box of
    the module docstring, the active voxels' bounding box grown by
    patch_radius and clamped to the volume, and the patch search reads
    no further than the work box; every weight the vote reads is
    computed from the same values as on the full grid, up to the
    error-product filters' running-sum rounding."""
    cfg = cfg or FusionConfig()
    geom = _check_shared_geometry(atlases)
    if not target_image.geometry.same_grid(geom):
        raise ValueError(f"target image grid {target_image.geometry} must "
                         f"share the atlas geometry {geom}")
    n = len(atlases)
    size = 2 * cfg.patch_radius + 1

    def jlf_weights_at(active):
        (bbox,) = ndimage.find_objects(active.view(np.int8))
        box = grow_box(bbox, cfg.patch_radius, active.shape)
        errs = _searched_errors(target_image.data,
                                [a.warped_image.data for a in atlases],
                                cfg, box)
        active = active[box]
        # patch-mean error products via box filtering, gathered at active
        # voxels (C order within the box is their order on the full grid)
        m = np.empty((int(active.sum()), n, n))
        prod = np.empty(active.shape)
        for i in range(n):
            for j in range(i, n):
                np.multiply(errs[i], errs[j], out=prod)
                ndimage.uniform_filter(prod, size=size, output=prod,
                                       mode="constant")
                m[:, i, j] = m[:, j, i] = prod[active]
        m = np.abs(m) ** cfg.beta
        m += cfg.epsilon * np.eye(n)
        return jlf_weights(m)

    return _weighted_vote(atlases, jlf_weights_at)


def majority_vote(atlases):
    """Uniform-weight voting with the same tie-break as fuse."""
    _check_shared_geometry(atlases)
    n = len(atlases)
    return _weighted_vote(
        atlases, lambda active: np.full((int(active.sum()), n), 1.0 / n))
