"""Synthetic spine phantom: a stack of ellipsoid vertebral bodies with
posterior box processes, plus known random deformations for registration
ground truth. Shapes are deliberately crude; they exercise the pipeline
math, not anatomy.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .registration import warp_atlas
from .transform import (AffineTransform, ComposedTransform, FFDTransform,
                        GridBasis, lattice_covering)
from .volume import (BoundingBox, GridGeometry, LabelVolume, ScalarVolume,
                     grow_box)

DEFORM_MAGNITUDE_MM = 3.0  # `deform_phantom`'s default, also the CLI's


@dataclass
class PhantomSpec:
    n_vertebrae: int = 5
    body_radii_mm: tuple = (11.0, 8.0, 9.0)
    disc_gap_mm: float = 4.0
    height_scale: tuple = None  # per vertebra, defaults to all 1.0
    bone_hu: float = 300.0
    disc_hu: float = 80.0
    air_hu: float = -1000.0
    noise_sd: float = 0.0
    seed: int = 0
    dims: tuple = (96, 96, 160)
    spacing: tuple = (0.4, 0.4, 1.0)
    box_margin_voxels: int = 2

    def __post_init__(self):
        if self.height_scale is None:
            self.height_scale = tuple(1.0 for _ in range(self.n_vertebrae))
        self.height_scale = tuple(float(h) for h in self.height_scale)
        if len(self.height_scale) != self.n_vertebrae:
            raise ValueError("need one height_scale per vertebra")
        if any(not 0.0 < h <= 1.0 for h in self.height_scale):
            raise ValueError("height_scale must lie in (0, 1]")
        if any(r <= 0 for r in self.body_radii_mm) or self.disc_gap_mm < 0:
            raise ValueError("radii must be > 0 and gap >= 0")


def _span(cond):
    """Slice from the first to the last True index of a 1-D boolean
    array; empty when there is none."""
    idx = np.flatnonzero(cond)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def make_phantom(spec):
    """Build (image, labels, per-vertebra bounding boxes) from a spec.

    Every shape is a sum or an intersection of per-axis terms, so each
    term is formed once from the 1-D voxel-center coordinates
    (`GridGeometry.axes`) and each vertebra is evaluated only on its box:
    the index ranges, per axis, where its body term is <= 1 or its
    process bounds hold. That is exact: the terms are non-negative, so a
    body voxel has every term <= 1, and the body sum is taken in the
    full-grid order, (x + y) + z, so every voxel gets the same bits. Each
    disc is evaluated on its own z-slab. The noise is one draw over the
    full grid, and the boxes come from one `ndimage.find_objects` pass.
    """
    geom = GridGeometry(spec.dims, spec.spacing, (0.0, 0.0, 0.0))
    ax_x, ax_y, ax_z = geom.axes()
    extent = [(geom.dims[a] - 1) * geom.spacing[a] for a in range(3)]

    rx, ry, rz = spec.body_radii_mm
    slot = 2.0 * rz + spec.disc_gap_mm
    total = spec.n_vertebrae * slot - spec.disc_gap_mm
    if total > extent[2] - 4.0:
        raise ValueError("vertebra stack does not fit the grid")
    z0 = (extent[2] - total) / 2.0 + rz
    cx = extent[0] / 2.0
    cy = extent[1] * 0.4
    proc_cy = cy + ry  # posterior process attaches behind the body
    if proc_cy + 9.0 > extent[1] or cx - rx < 0:
        raise ValueError("vertebra cross-section does not fit the grid")

    labels = np.zeros(geom.dims, dtype=np.int32)
    image = np.full(geom.dims, spec.air_hu)
    tx = ((ax_x - cx) / rx) ** 2
    ty = ((ax_y - cy) / ry) ** 2
    px = np.abs(ax_x - cx) <= 3.0
    py = (ax_y >= proc_cy - 2.0) & (ax_y <= proc_cy + 8.0)
    sx, sy = _span((tx <= 1.0) | px), _span((ty <= 1.0) | py)
    centers = []
    for k in range(spec.n_vertebrae):
        zc = z0 + k * slot
        h = spec.height_scale[k]
        centers.append(zc)
        tz = ((ax_z - zc) / (rz * h)) ** 2
        pz = np.abs(ax_z - zc) <= 0.6 * rz * h
        sz = _span((tz <= 1.0) | pz)
        body = ((tx[sx, None, None] + ty[None, sy, None])
                + tz[None, None, sz]) <= 1.0
        proc = px[sx, None, None] & py[None, sy, None] & pz[None, None, sz]
        box_labels = labels[sx, sy, sz]
        mask = (body | proc) & (box_labels == 0)
        box_labels[mask] = k + 1
        image[sx, sy, sz][mask] = spec.bone_hu

    # discs between adjacent vertebral bodies (intensity only, label 0)
    disc_r = 0.8 * min(rx, ry)
    disc_xy = ((((ax_x - cx) / disc_r) ** 2)[:, None]
               + (((ax_y - cy) / disc_r) ** 2)[None, :]) <= 1.0
    for k in range(spec.n_vertebrae - 1):
        lo = centers[k] + rz * spec.height_scale[k]
        hi = centers[k + 1] - rz * spec.height_scale[k + 1]
        slab_z = (ax_z >= lo) & (ax_z <= hi)
        sz = _span(slab_z)
        disc = disc_xy[:, :, None] & slab_z[sz] & (labels[:, :, sz] == 0)
        image[:, :, sz][disc] = spec.disc_hu

    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        image = image + rng.normal(0.0, spec.noise_sd, size=image.shape)

    boxes = []
    objects = ndimage.find_objects(labels, max_label=spec.n_vertebrae)
    for k, box in enumerate(objects):
        if box is None:
            raise ValueError(f"vertebra {k + 1} covers no voxel center")
        boxes.append(BoundingBox.from_slices(
            grow_box(box, spec.box_margin_voxels, geom.dims)))

    return ScalarVolume(geom, image), LabelVolume(geom, labels), boxes


def _random_smooth_ffd(geom, magnitude_mm, rng):
    lo = np.array(geom.origin)
    hi = lo + (np.array(geom.dims) - 1) * np.array(geom.spacing)
    lattice = lattice_covering(lo, hi, 20.0)  # control spacing, mm
    coef = rng.normal(0.0, 1.0, size=lattice.dims + (3,))
    # scale so the max displacement over the grid equals the magnitude
    disp = GridBasis(lattice, geom,
                     np.arange(np.prod(geom.dims))).forward(coef)
    peak = np.linalg.norm(disp, axis=-1).max()
    if peak > 0:
        coef *= magnitude_mm / peak
    return FFDTransform(lattice, coef)


def deform_phantom(image, labels, kind="smooth_ffd",
                   magnitude=DEFORM_MAGNITUDE_MM, seed=0):
    """Warp a phantom by a random transform of the given family.

    Returns (warped image, warped labels, transform), where the transform
    is the pull-back map: warped(x) = original(transform(x)). Registering
    the warped pair as target against the original therefore recovers the
    returned transform directly. The warp is `registration.warp_atlas`,
    which evaluates the transform once for the image and the labels, at
    the voxel centers through the lattice's `GridBasis`, as the smooth
    FFD's peak scaling does. magnitude (mm) must be a finite number >= 0.
    """
    if not 0.0 <= magnitude < np.inf:
        raise ValueError(
            f"magnitude must be a finite number >= 0, got {magnitude!r}")
    if kind not in ("translation", "affine", "smooth_ffd"):
        raise ValueError(f"unknown deformation kind {kind!r}")
    rng = np.random.default_rng(seed)
    geom = image.geometry
    if magnitude == 0:
        comp = ComposedTransform.identity()
        return (ScalarVolume(geom, image.data.copy()),
                LabelVolume(geom, labels.data.copy()), comp)

    if kind == "translation":
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        comp = ComposedTransform(
            AffineTransform(np.eye(3), magnitude * direction), None)
    elif kind == "affine":
        # random small linear part, scaled so corner motion ~= magnitude
        corners = np.array(geom.dims) * np.array(geom.spacing) / 2.0
        radius = np.linalg.norm(corners)
        delta = rng.normal(0.0, 1.0, size=(3, 3))
        delta *= (0.5 * magnitude / radius) / max(np.abs(delta).max(), 1e-12)
        center = np.array(geom.origin) + corners
        matrix = np.eye(3) + delta
        translation = (center - matrix @ center
                       + rng.normal(0.0, magnitude / 4.0, size=3))
        comp = ComposedTransform(AffineTransform(matrix, translation), None)
    else:
        ffd = _random_smooth_ffd(geom, magnitude, rng)
        comp = ComposedTransform(AffineTransform.identity(), ffd)

    return (*warp_atlas(image, labels, comp, geom), comp)
