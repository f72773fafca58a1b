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
  patch_radius more, so those are formed here, and each box-filter pass
  keeps only the rows the next pass (and finally the error box) reads;
- the work box, grown by 2 * patch_radius + search_radius: the shifted
  atlas reads reach search_radius past the difference domain.

Inside each box every read sees the values it sees on the full grid;
where a box face is a volume face, the zero padding and the edge clamp
are the same too. The search keeps each voxel's winning shift as an
index and gathers the error at that shift once per atlas, the same bits
as the full-grid error at that shift. The result is not bit-identical
to a full-grid run: the box filter is a running sum whose rounding
depends on where each line starts, so search shifts whose patch SSDs
tie to within that rounding can flip.
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

    The squared differences are formed on the difference domain, box
    grown by patch_radius, in one contiguous pass per shift over the flat
    range that domain spans in the padded read, and each axis's
    box-filter pass keeps only the rows the next pass reads, so the SSDs
    are compared on box alone.
    The winning shift is kept as an index, and each atlas's error map is
    one gather from the atlas, edge-padded around the difference domain
    by search_radius: the same bits as |T - A| at that shift.
    """
    dims = target_data.shape
    box = box or tuple(slice(0, d) for d in dims)
    r = cfg.search_radius
    if r == 0:
        return [np.abs(target_data[box] - img[box]) for img in atlas_images]
    size = 2 * cfg.patch_radius + 1
    dom = grow_box(box, cfg.patch_radius, dims)
    reads = grow_box(dom, r, dims)
    # edge padding that makes the atlas read cover dom grown by r
    pad = [(rs.start - (ds.start - r), (ds.stop + r) - rs.stop)
           for rs, ds in zip(reads, dom)]
    shape = tuple(s.stop - s.start for s in dom)
    inner = tuple(slice(b.start - d.start, b.stop - d.start)
                  for b, d in zip(box, dom))
    # box's voxels as flat indices of the padded read at shift 0; shift d
    # reads d . strides elements earlier
    padded_shape = tuple(n + 2 * r for n in shape)
    flat = np.arange(np.prod(padded_shape)).reshape(padded_shape)
    base = flat[tuple(slice(s.start + r, s.stop + r) for s in inner)]
    shifts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)))
    offsets = shifts @ (np.array(flat.strides) // flat.itemsize)
    # dom at shift 0 spans the flat range [lo, hi) of the padded frame, so
    # each shift's differences are one contiguous pass over that range,
    # against the target embedded in the frame; sq is dom's view of them
    at_dom = tuple(slice(r, r + n) for n in shape)
    lo, hi = flat[(r,) * 3], flat[tuple(r + n - 1 for n in shape)] + 1
    frame = np.zeros(padded_shape)
    target_dom = frame[at_dom]
    target_dom[...] = target_data[dom]
    target_flat = frame.ravel()[lo:hi]
    sq_frame = np.empty(padded_shape)
    sq_flat = sq_frame.ravel()[lo:hi]
    sq = sq_frame[at_dom]
    target_box = target_dom[inner]
    ssd = sq[inner]
    best_ssd = np.empty(target_box.shape)
    better = np.empty(target_box.shape, dtype=bool)
    index_type = np.min_scalar_type(len(shifts) - 1)
    best = np.empty(target_box.shape, dtype=index_type)
    candidate = np.empty(target_box.shape, dtype=index_type)
    errs = []
    for img in atlas_images:
        padded = np.pad(img[reads], pad, mode="edge")
        best_ssd.fill(np.inf)
        best.fill(0)
        padded_flat = padded.ravel()
        for k, off in enumerate(offsets):
            # shifted[x] = img[clamp(x - d)] over dom, at flat x - off
            np.subtract(target_flat, padded_flat[lo - off:hi - off],
                        out=sq_flat)
            np.multiply(sq_flat, sq_flat, out=sq_flat)
            # in place; after each pass only box's rows on that axis are
            # read again, so ssd ends up as the patch mean on box
            view = sq
            for axis in range(3):
                ndimage.uniform_filter1d(view, size, axis=axis, output=view,
                                         mode="constant")
                view = view[(slice(None),) * axis + (inner[axis],)]
            np.less(ssd, best_ssd, out=better)
            np.minimum(best_ssd, ssd, out=best_ssd)
            np.multiply(better, index_type.type(k), out=candidate)
            np.maximum(best, candidate, out=best)
        err = padded.take(base - offsets[best])
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
    computed from the same values as on the full grid, up to the box
    filter's running-sum rounding."""
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
