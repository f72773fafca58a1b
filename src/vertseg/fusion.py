"""Joint label fusion: per-voxel pairwise dependency matrices, weight
solves, and weighted consensus voting, plus a majority-vote baseline.

The dependency matrix at a voxel is built from local appearance error:

    M(i, j) = [ mean over the patch of |I_T - I_i| * |I_T - I_j| ]^beta

regularized by adding epsilon on the diagonal; fusion weights solve
w = M^-1 1 / (1^t M^-1 1). Negative weights are allowed; the consensus
label is the score argmax with ties broken toward the lower label value.

The vote reads weights only at active voxels, where some atlas has a
nonzero label, so `fuse` runs the patch search and the error-product
filters on a work box: the bounding box of the active voxels grown by
2 * patch_radius + search_radius and clamped to the volume. A weight
reads errors within patch_radius, each error's search reads squared
differences within patch_radius more, and each shifted atlas read
reaches search_radius further, so inside the box every read sees the
values it sees on the full grid; where a box face is a volume face, the
zero padding and the edge clamp are the same too. The result is not
bit-identical to a full-grid run: the box filter is a running sum whose
rounding depends on where each line starts, so search shifts whose
patch SSDs tie to within that rounding can flip.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .checks import integer, real
from .volume import LabelVolume


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
    """Solve w = M^-1 1 / (1^t M^-1 1); weights sum to exactly 1."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("dependency matrix has non-finite entries")
    x = np.linalg.solve(m, np.ones(m.shape[0]))
    return x / x.sum()


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


def _searched_errors(target_data, atlas_images, cfg):
    """Per-atlas absolute error maps, optionally after a local patch
    search that re-reads each atlas at its best-matching offset.

    The search picks, per voxel, the integer shift minimizing the local
    SSD within the patch window; the error map is then taken against the
    shifted atlas values. Shifts read the atlas edge-clamped: a shift
    past a face repeats the face voxel and never wraps to the opposite
    face. Patch products are still accumulated with a single box filter
    afterwards, so the offset is treated as locally constant within a
    patch. With no search (search_radius 0) the one shift always wins,
    so the error map is |T - A| directly.
    """
    r = cfg.search_radius
    if r == 0:
        return [np.abs(target_data - img) for img in atlas_images]
    size = 2 * cfg.patch_radius + 1
    nx, ny, nz = target_data.shape
    diff = np.empty(target_data.shape)
    ssd = np.empty(target_data.shape)
    better = np.empty(target_data.shape, dtype=bool)
    errs = []
    for img in atlas_images:
        padded = np.pad(img, r, mode="edge")
        best_ssd = np.full(target_data.shape, np.inf)
        best_err = np.empty(target_data.shape)
        for dx, dy, dz in itertools.product(range(-r, r + 1), repeat=3):
            # shifted[x] = img[clamp(x - d)], as a view
            shifted = padded[r - dx:r - dx + nx, r - dy:r - dy + ny,
                             r - dz:r - dz + nz]
            np.subtract(target_data, shifted, out=diff)
            np.multiply(diff, diff, out=ssd)
            ndimage.uniform_filter(ssd, size=size, output=ssd,
                                   mode="constant")
            np.less(ssd, best_ssd, out=better)
            np.copyto(best_ssd, ssd, where=better)
            np.abs(diff, out=diff)
            np.copyto(best_err, diff, where=better)
        errs.append(best_err)
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

    The patch search and the error-product filters run on the work box
    of the module docstring, the active voxels' bounding box grown by
    2 * patch_radius + search_radius and clamped to the volume; every
    weight the vote reads is computed from the same values as on the
    full grid, up to the box filter's running-sum rounding."""
    cfg = cfg or FusionConfig()
    geom = _check_shared_geometry(atlases)
    if not target_image.geometry.same_grid(geom):
        raise ValueError(f"target image grid {target_image.geometry} must "
                         f"share the atlas geometry {geom}")
    n = len(atlases)
    size = 2 * cfg.patch_radius + 1
    reach = 2 * cfg.patch_radius + cfg.search_radius

    def jlf_weights_at(active):
        (bbox,) = ndimage.find_objects(active.view(np.int8))
        box = tuple(slice(max(s.start - reach, 0), min(s.stop + reach, dim))
                    for s, dim in zip(bbox, active.shape))
        errs = _searched_errors(target_image.data[box],
                                [a.warped_image.data[box] for a in atlases],
                                cfg)
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
        x = np.linalg.solve(m, np.ones(n))
        return x / x.sum(axis=1, keepdims=True)

    return _weighted_vote(atlases, jlf_weights_at)


def majority_vote(atlases):
    """Uniform-weight voting with the same tie-break as fuse."""
    _check_shared_geometry(atlases)
    n = len(atlases)
    return _weighted_vote(
        atlases, lambda active: np.full((int(active.sum()), n), 1.0 / n))
