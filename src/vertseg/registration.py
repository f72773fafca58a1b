"""Two-stage registration: affine initialization, then multi-resolution
FFD optimization of the weighted objective

    C = (1 - alpha) * NMI - alpha * P

by gradient ascent with monotone step acceptance. Deterministic: no
randomness, fixed reduction order.
"""

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .similarity import IntensityWindow, NmiObjective
from .transform import (AffineTransform, ComposedTransform, FFDTransform,
                        affine_apply, bending_operator, compose_apply,
                        ffd_basis, lattice_covering, refine_ffd)
from .volume import GridGeometry, downsample, pull_back

log = logging.getLogger(__name__)


@dataclass
class RegistrationConfig:
    alpha: float = 0.005
    pyramid_levels: int = 3
    control_spacing_mm: float = 5.0
    max_iters_per_level: int = 100
    step_tolerance: float = 1e-3  # mm
    objective_tolerance: float = 1e-6
    max_sample_voxels: int = 150_000  # 0 = use every target voxel
    window: IntensityWindow = field(default_factory=IntensityWindow)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.pyramid_levels < 1:
            raise ValueError("need at least one pyramid level")
        if self.control_spacing_mm <= 0.0:
            raise ValueError("control_spacing_mm must be > 0")


@dataclass
class RegistrationResult:
    transform: ComposedTransform
    final_objective: float
    per_level_trace: list  # [(iteration, level, C, NMI, P), ...]


def _check_nonconstant(vol, name):
    if np.ptp(vol.data) == 0:
        raise ValueError(f"{name} image is constant; nothing to register")


def _pyramid(vol, levels):
    """Coarse-to-fine list of volumes, factor 2 per level."""
    out = []
    for i in range(levels):
        f = 2 ** (levels - 1 - i)
        out.append(downsample(vol, (f, f, f)) if f > 1 else vol)
    return out


def _domain_corners(geom):
    lo = np.array(geom.origin)
    hi = lo + (np.array(geom.dims) - 1) * np.array(geom.spacing)
    corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1])
                        for z in (lo[2], hi[2])])
    return corners


def _intensity_centroid(vol):
    """Center of mass of the above-minimum intensity mass, in mm."""
    w = vol.data - vol.data.min()
    total = w.sum()
    if total <= 0:
        raise ValueError("constant image has no centroid")
    idx = np.indices(vol.geometry.dims, dtype=np.float64)
    com = np.array([(idx[a] * w).sum() for a in range(3)]) / total
    return np.array(vol.geometry.origin) + com * np.array(vol.geometry.spacing)


def _ascend(x, current, direction, evaluate, new_direction, step, max_step,
            cfg, accepted=None):
    """Monotone line-search ascent from x; returns (x, current).

    evaluate(x) gives a tuple led by the objective (ValueError: -inf) and
    current = evaluate(x). Each iteration halves step from its last value
    until x + step * direction improves, then grows it 1.5x up to
    max_step and reports accepted(iteration, result). It stops on a None
    direction, no improving step, a gain below cfg.objective_tolerance or
    cfg.max_iters_per_level iterations, and asks new_direction(x) only
    when another iteration will run."""
    for it in range(1, cfg.max_iters_per_level + 1):
        if direction is None:
            break
        while step >= cfg.step_tolerance:
            cand = x + step * direction
            try:
                result = evaluate(cand)
            except ValueError:
                result = (-np.inf,)
            if result[0] > current[0]:
                break
            step *= 0.5
        else:
            break
        gain = result[0] - current[0]
        x, current = cand, result
        step = min(step * 1.5, max_step)
        if accepted is not None:
            accepted(it, result)
        if gain < cfg.objective_tolerance or it == cfg.max_iters_per_level:
            break
        direction = new_direction(x)
    return x, current


def register_affine(target, floating, cfg=None):
    """Estimate the 12-parameter affine maximizing NMI, coarse to fine.

    Initialized by intensity-centroid alignment. Each level runs a
    translation-only ascent phase before the joint 12-parameter phase, so
    the (better-conditioned) shift converges before the matrix moves. The
    matrix acts about the target-domain center; step lengths are measured
    in mm of induced point motion.
    """
    cfg = cfg or RegistrationConfig()
    _check_nonconstant(target, "target")
    _check_nonconstant(floating, "floating")

    corners = _domain_corners(target.geometry)
    center = corners.mean(axis=0)
    radius = max(float(np.abs(corners - center).max()), 1.0)

    def affine_of(x):  # x = (matrix row-major, centered translation)
        m = x[:9].reshape(3, 3)
        return AffineTransform(m, center - m @ center + x[9:])

    # identity matrix, translation seeded by the intensity centroids
    x = np.concatenate([np.eye(3).ravel(), _intensity_centroid(floating)
                        - _intensity_centroid(target)])

    tgt_pyr = _pyramid(target, cfg.pyramid_levels)
    flt_pyr = _pyramid(floating, cfg.pyramid_levels)

    cap = cfg.max_sample_voxels or None
    for level, (tgt, flt) in enumerate(zip(tgt_pyr, flt_pyr)):
        obj = NmiObjective(tgt, flt, cfg.window, max_points=cap)
        pts_c = obj.points - center

        def value(x):
            return (obj.value_at(affine_apply(affine_of(x), obj.points)),)

        def direction(x, translation_only):
            _, pg = obj.point_gradient_at(
                affine_apply(affine_of(x), obj.points))
            g_t = pg.sum(axis=0)
            g_m = np.zeros((3, 3)) if translation_only else pg.T @ pts_c
            # scale the matrix block so the update norm is point motion
            # in mm
            norm = np.linalg.norm(np.concatenate([(g_m * radius).ravel(),
                                                  g_t]))
            if norm < 1e-15:
                return None
            return np.concatenate([g_m.ravel(), g_t]) / norm

        current = value(x)
        for translation_only in (True, False):
            phase = functools.partial(direction,
                                      translation_only=translation_only)
            x, current = _ascend(x, current, phase(x), value, phase,
                                 step=2.0 * max(tgt.geometry.spacing),
                                 max_step=4.0 * max(tgt.geometry.spacing),
                                 cfg=cfg)
        log.debug("affine level %d: NMI=%.5f", level, current[0])

    return affine_of(x)


def _penalty_grid(affine, target_geom, pad_mm, min_spacing_mm=0.0):
    """Axis-aligned grid covering the affinely mapped target domain.

    min_spacing_mm coarsens the quadrature: the penalty of a smooth
    control-lattice field is resolved well below the lattice spacing, so
    sampling finer than that only costs time.
    """
    mapped = affine_apply(affine, _domain_corners(target_geom))
    lo = mapped.min(axis=0) - pad_mm
    hi = mapped.max(axis=0) + pad_mm
    spacing = np.maximum(np.array(target_geom.spacing), min_spacing_mm)
    # floor keeps every sample inside [lo, hi], and so inside the lattice
    dims = np.maximum(np.floor((hi - lo) / spacing).astype(int) + 1, 2)
    return GridGeometry(tuple(dims), tuple(spacing), tuple(lo)), lo, hi


def register_ffd(target, floating, affine, cfg=None):
    """Coarse-to-fine FFD optimization of (1-alpha)*NMI - alpha*P.

    The control lattice lives in the affinely aligned space; coefficients
    are carried between levels by exact B-spline subdivision.
    """
    cfg = cfg or RegistrationConfig()
    _check_nonconstant(target, "target")
    _check_nonconstant(floating, "floating")

    tgt_pyr = _pyramid(target, cfg.pyramid_levels)
    flt_pyr = _pyramid(floating, cfg.pyramid_levels)

    # lattice domain: the full-resolution target domain in affine space,
    # padded so penalty samples and warped points keep full support
    pad = 2.0 * max(target.geometry.spacing)
    _, dom_lo, dom_hi = _penalty_grid(affine, target.geometry, pad)
    coarse_spacing = cfg.control_spacing_mm * 2 ** (cfg.pyramid_levels - 1)
    ffd = FFDTransform.zeros(lattice_covering(dom_lo, dom_hi, coarse_spacing))

    trace = []
    for level, (tgt, flt) in enumerate(zip(tgt_pyr, flt_pyr)):
        if level > 0:
            ffd = refine_ffd(ffd)
        obj = NmiObjective(tgt, flt, cfg.window,
                           max_points=cfg.max_sample_voxels or None)
        pen_geom, _, _ = _penalty_grid(
            affine, tgt.geometry, 0.0,
            min_spacing_mm=min(ffd.control_geom.spacing) / 4.0)
        coef, (current, nmi_val, p_val) = _ffd_level(
            obj, affine, ffd, pen_geom, cfg,
            step=1.0 * max(tgt.geometry.spacing),
            record=lambda it, result: trace.append((it, level) + result))
        ffd = FFDTransform(ffd.control_geom, coef)
        log.debug("ffd level %d: C=%.6f NMI=%.5f P=%.6f", level,
                  current, nmi_val, p_val)

    return RegistrationResult(ComposedTransform(affine, ffd), current, trace)


def _ffd_level(obj, affine, ffd, pen_geom, cfg, step, record):
    """Ascend (1-alpha)*NMI - alpha*P over ffd's coefficients on one
    pyramid level; returns (coefficients, (C, NMI, P)) and passes the
    start (iteration 0) and every accepted step to record.

    The affinely mapped samples z are fixed within a level, so the FFD
    is the linear map y = z + W c and the penalty the quadratic form
    P = sum_d c_d^T Q c_d: both operators are built once here, and freed
    on return, before the next level builds its own.
    """
    alpha = cfg.alpha
    z = affine_apply(affine, obj.points)
    basis = ffd_basis(ffd.control_geom, z)
    bend = bending_operator(ffd.control_geom, pen_geom)

    def evaluate(coef):
        c = coef.reshape(-1, 3)
        nmi_val = obj.value_at(z + basis @ c)
        p_val = float(np.sum(c * (bend @ c)))
        return (1.0 - alpha) * nmi_val - alpha * p_val, nmi_val, p_val

    def evaluate_with_direction(coef):
        c = coef.reshape(-1, 3)
        nmi_val, point_grad = obj.point_gradient_at(z + basis @ c)
        qc = bend @ c
        p_val = float(np.sum(c * qc))
        grad = ((1.0 - alpha) * (basis.T @ point_grad)
                - alpha * (2.0 * qc)).reshape(coef.shape)
        c_val = (1.0 - alpha) * nmi_val - alpha * p_val
        gnorm = np.abs(grad).max()
        # max control-point motion = step mm
        return (c_val, nmi_val, p_val), (None if gnorm < 1e-15
                                         else grad / gnorm)

    start, direction = evaluate_with_direction(ffd.coefficients)
    record(0, start)
    return _ascend(ffd.coefficients, start, direction, evaluate,
                   lambda coef: evaluate_with_direction(coef)[1],
                   step=step, max_step=2.0 * step, cfg=cfg, accepted=record)


def warp_atlas(atlas_img, atlas_lbl, comp, target_geom):
    """Pull atlas image (trilinear) and labels (nearest) onto the target
    grid through the composed transform, which is evaluated once for
    both."""
    pts = target_geom.grid_world_points()
    pts = compose_apply(comp, pts.reshape(-1, 3)).reshape(pts.shape)
    return (pull_back(atlas_img, target_geom, pts),
            pull_back(atlas_lbl, target_geom, pts))
