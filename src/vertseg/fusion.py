"""Joint label fusion: per-voxel pairwise dependency matrices, weight
solves, and weighted consensus voting, plus a majority-vote baseline.

The dependency matrix at a voxel is built from local appearance error:

    M(i, j) = [ mean over the patch of |I_T - I_i| * |I_T - I_j| ]^beta

regularized by adding epsilon on the diagonal (Wang et al., IEEE TPAMI
2013). `fuse` builds every active voxel's matrix with `dependency_matrix`
and solves them at once with `jlf_weights`, w = M^-1 1 / (1^t M^-1 1); a
non-finite matrix (a large beta overflows the power) raises ValueError
instead of voting with NaN weights. Negative weights are allowed; the
consensus label is the score argmax with ties broken toward the lower
label value.

The vote reads weights only at active voxels, where some atlas has a
nonzero label, so `fuse` works on their bounding box grown by
patch_radius and clamped to the volume, the error box; the optional
patch search reads no more than 2 * patch_radius + search_radius voxels
beyond it. Every patch sum, of the search's SSDs (float32) and of the
error products (float64) alike, runs in patch order, along axis 0, then
1, then 2, through `_patch_sum`, with zeros beyond the volume faces, so
a voxel's sum has the same bits whatever the box: a fuse on its boxes
gives the full-grid fuse's bits. Exact SSD ties keep the first shift
wherever the float32 sums are exact (integer HU patches whose partial
sums stay below 2^24).
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .checks import integer, real
from .volume import LabelVolume, grow_box

_GATHER_VOXELS = 4096  # active voxels per `dependency_matrix` gather block


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


def _box_sum(src, out, lo, hi, step, p):
    """out[lo:hi] = the in-order sum over t = -p..p of src[lo + t * step :
    hi + t * step]: one axis's patch sum, in 2p adds (a copy at p = 0)."""
    o = out[lo:hi]
    if p == 0:
        o[...] = src[lo:hi]
        return
    np.add(src[lo - p * step:hi - p * step],
           src[lo - (p - 1) * step:hi - (p - 1) * step], out=o)
    for t in range(2 - p, p + 1):
        np.add(o, src[lo + t * step:hi + t * step], out=o)


def _flat_range(region, shape):
    """The flat range of region ((start, stop) per axis) in shape."""
    lo = np.ravel_multi_index([a for a, _ in region], shape)
    hi = np.ravel_multi_index([b - 1 for _, b in region], shape)
    return int(lo), int(hi) + 1


def _patch_passes(region, shape, p):
    """(lo, hi, step) of the three passes summing patches on region of a
    flat frame of shape: the pass along axis a covers region on the axes
    <= a and region grown by p on the later axes, what the next reads.
    No pass at p = 0, where a patch sum is its one voxel."""
    strides = [int(np.prod(shape[a + 1:])) for a in range(3)]
    reach = [(a - p, b + p) for a, b in region]
    return [_flat_range(region[:a + 1] + reach[a + 1:], shape) + (strides[a],)
            for a in range(3) if p]


def _patch_sum(bufs, passes, p):
    """Runs the passes from bufs[0] to bufs[1] and back: patch sums in
    patch order, along axis 0, then 1, then 2. Returns the buffer that
    holds them."""
    for i, (lo, hi, step) in enumerate(passes):
        _box_sum(bufs[i % 2], bufs[1 - i % 2], lo, hi, step, p)
    return bufs[len(passes) % 2]


def dependency_matrix(errs, active, patch_radius, beta, epsilon):
    """The JLF dependency matrices at the active voxels of one box, from
    the n atlases' error maps on it: an (n_active, n, n) stack in the C
    order of the active voxels,

        M(i, j) = (S_ij / (2p + 1)^3)^beta + epsilon * delta_ij,

    where S_ij, the sum of errs[i] * errs[j] over the voxel's patch of
    radius p = patch_radius (zero beyond the arrays' faces), is a float64
    `_patch_sum`: a voxel's matrix has the same bits whatever the box."""
    n, p = len(errs), patch_radius
    if n == 0 or any(np.shape(e) != active.shape for e in errs):
        raise ValueError("need one or more error maps of the active "
                         "mask's shape")
    # the frame: the box padded with p zeros per side
    shape = tuple(d + 2 * p for d in active.shape)
    passes = _patch_passes([(p, d + p) for d in active.shape], shape, p)
    at = np.flatnonzero(np.pad(active, p))
    padded = [np.pad(np.asarray(e, float), p).ravel() for e in errs]
    bufs = [np.empty(padded[0].size) for _ in range(2)]
    # one row of sums per pair i <= j, and each (i, j)'s row
    upper = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
    rows = np.empty((len(upper[0]), len(at)))
    for row, i, j in zip(rows, *upper):
        np.multiply(padded[i], padded[j], out=bufs[0])
        np.take(_patch_sum(bufs, passes, p), at, out=row)
    rows /= (2 * p + 1) ** 3
    np.power(rows, beta, out=rows)
    rows[np.diag(pair)] += epsilon
    # each (i, j)'s row into m, _GATHER_VOXELS voxels at a time: the
    # gathered (n, n, chunk) block stays small and in cache
    m = np.empty((len(at), n, n))
    for start in range(0, len(at), _GATHER_VOXELS):
        chunk = slice(start, start + _GATHER_VOXELS)
        np.copyto(m[chunk].transpose(1, 2, 0), rows[:, chunk][pair])
    return m


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


def _searched_errors(target_data, atlas_images, cfg, box=None):
    """Per-atlas absolute error maps on box (slices of the volumes; None:
    the whole volume), optionally after a local patch search that
    re-reads each atlas at its best-matching offset.

    The search picks, per voxel, the integer shift minimizing the local
    SSD within the patch window, the first shift in (dx, dy, dz) order
    winning a tie (a strict float32 compare), and takes the error
    against the atlas at that shift. Patch voxels outside the volume add
    nothing to the SSD, and shifts read the atlas edge-clamped, never
    wrapping to the opposite face. The offset is treated as locally
    constant within a patch. With no search (search_radius 0) the error
    map is |T - A|.

    All of it runs in a frame around the difference domain (box grown by
    patch_radius, where the squared differences are formed) with a
    margin of max(search_radius, patch_radius): per shift, one float32
    difference and one square pass, the margin slabs past a volume face
    zeroed, then the `_patch_sum` passes. Each error map is then
    one gather at the winning shifts from the float64 atlas, edge-padded
    into the frame: the same bits as |T - A| at that shift.
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

    passes = _patch_passes(at_box, frame_shape, p)
    strides = [int(np.prod(frame_shape[a + 1:])) for a in range(3)]
    shifts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
    offsets = shifts @ strides
    # the slabs of the patch reach past a volume face: they read as zeros
    slabs = []
    for a in range(3):
        for start, stop in ((at_patch[a][0], at_dom[a][0]),
                            (at_dom[a][1], at_patch[a][1])):
            if start < stop:
                slabs.append(window(at_patch[:a] + [(start, stop)]
                                    + at_patch[a + 1:]))
    lo, hi = _flat_range(at_dom, frame_shape)
    target = np.zeros(frame_shape, dtype=np.float32)
    target[window(at_dom)] = target_data[dom]
    target_flat = target.ravel()[lo:hi]
    sq = np.zeros(frame_shape, dtype=np.float32)
    bufs = [sq.ravel(), np.zeros(sq.size, dtype=np.float32)]
    diff = bufs[0][lo:hi]
    # the SSDs are compared over box's flat range in the buffer the last
    # pass writes; the rows' margins in between hold values nobody reads
    box_lo, box_hi = _flat_range(at_box, frame_shape)
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
            _patch_sum(bufs, passes, p)
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
    data = [a.warped_labels.data for a in atlases]
    active = data[0] != 0
    for d in data[1:]:
        active |= d != 0
    out = np.zeros(geom.dims, dtype=np.int32)
    prob = np.ones(geom.dims)
    if np.any(active):
        # (n_active, n_atlases), gathered atlas by atlas: no full-grid stack
        labels_stack = np.stack([d[active] for d in data], axis=-1)
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

    The error maps and the dependency matrices' error-product sums cover
    the error box of the module docstring, the active voxels' bounding
    box grown by patch_radius and clamped to the volume, and the patch
    search reads no further than the work box; every weight the vote
    reads has the bits of the same weight on the full grid."""
    cfg = cfg or FusionConfig()
    geom = _check_shared_geometry(atlases)
    if not target_image.geometry.same_grid(geom):
        raise ValueError(f"target image grid {target_image.geometry} must "
                         f"share the atlas geometry {geom}")

    def jlf_weights_at(active):
        (bbox,) = ndimage.find_objects(active.view(np.int8))
        box = grow_box(bbox, cfg.patch_radius, active.shape)
        errs = _searched_errors(target_image.data,
                                [a.warped_image.data for a in atlases],
                                cfg, box)
        return jlf_weights(dependency_matrix(
            errs, active[box], cfg.patch_radius, cfg.beta, cfg.epsilon))

    return _weighted_vote(atlases, jlf_weights_at)


def majority_vote(atlases):
    """Uniform-weight voting with the same tie-break as fuse."""
    _check_shared_geometry(atlases)
    n = len(atlases)
    return _weighted_vote(
        atlases, lambda active: np.full((int(active.sum()), n), 1.0 / n))
