"""Two-stage registration: affine initialization, then multi-resolution
FFD optimization of the weighted objective

    C = (1 - alpha) * NMI - alpha * P

Both stages share one monotone backtracking line search (`_ascend`): the
affine stage along L-BFGS directions, the FFD stage along the normalised
gradient. Deterministic: no randomness, fixed reduction order.
"""

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import integer, real
from .similarity import IntensityWindow, NmiObjective
from .transform import (AffineTransform, ComposedTransform, FFDTransform,
                        GridBasis, affine_apply, bending_operator,
                        lattice_covering, refine_ffd)
from .volume import GridGeometry, downsample, pull_back

log = logging.getLogger(__name__)

_LBFGS_MEMORY = 6  # curvature pairs kept by the affine stage
# the affine stage's samples per pyramid level, at most: 12 parameters
# need a few thousand points (elastix's default budget; Klein et al.,
# IEEE TMI 2010), not the FFD's count
_AFFINE_SAMPLE_POINTS = 5000


@dataclass
class RegistrationConfig:
    """Settings of both registration stages. `max_sample_voxels` is the
    FFD stage's count of target voxels sampled per pyramid level (0:
    every voxel); the affine stage samples at most
    `_AFFINE_SAMPLE_POINTS` (5000) voxels per level, and fewer only when
    `max_sample_voxels` is smaller and not 0."""

    alpha: float = 0.005
    pyramid_levels: int = 3
    control_spacing_mm: float = 5.0
    max_iters_per_level: int = 100
    step_tolerance: float = 1e-3  # mm
    objective_tolerance: float = 1e-6
    max_sample_voxels: int = 150_000  # the FFD's; 0 = every target voxel
    window: IntensityWindow = field(default_factory=IntensityWindow)

    def __post_init__(self):
        for name in ("alpha", "control_spacing_mm", "step_tolerance",
                     "objective_tolerance"):
            setattr(self, name, real(name, getattr(self, name)))
        for name, minimum in (("pyramid_levels", 1),
                              ("max_iters_per_level", 0),
                              ("max_sample_voxels", 0)):
            setattr(self, name, integer(name, getattr(self, name), minimum))
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        for name in ("control_spacing_mm", "step_tolerance"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class RegistrationResult:
    transform: ComposedTransform
    final_objective: float
    per_level_trace: list  # [(iteration, level, C, NMI, P), ...]
    stops: list  # one Stop per FFD pyramid level


def _pyramid(vol, levels):
    """Coarse-to-fine list of volumes, factor 2 per level."""
    out = []
    for i in range(levels):
        f = 2 ** (levels - 1 - i)
        out.append(downsample(vol, (f, f, f)) if f > 1 else vol)
    return out


def _levels(target, floating, cfg, max_points):
    """Coarse-to-fine (target level, NmiObjective) pairs for either stage,
    each objective sampling at most max_points voxels (None: every one):
    the images are checked and both pyramids built at the call, each
    level's objective only when the caller reaches it."""
    for vol, name in ((target, "target"), (floating, "floating")):
        if np.ptp(vol.data) == 0:
            raise ValueError(f"{name} image is constant; nothing to register")
    pairs = list(zip(_pyramid(target, cfg.pyramid_levels),
                     _pyramid(floating, cfg.pyramid_levels)))
    return ((tgt, NmiObjective(tgt, flt, cfg.window, max_points=max_points))
            for tgt, flt in pairs)


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


class Stop(NamedTuple):
    """How one `_ascend` run ended: accepted steps, trial evaluations of
    the line search, and `reason`, one of "gtol" (a zero gradient, or a
    direction already shorter than `step_tolerance`), "ftol" (an
    accepted gain below `objective_tolerance`), "max_iters"
    (`max_iters_per_level` steps accepted) or "no_ascent" (no trial
    improved down to the shortest trial step)."""
    iterations: int
    evaluations: int
    reason: str


def _ascend(x, current, direction, evaluate, new_direction, cfg,
            accepted=None):
    """Monotone line-search ascent from x; returns (x, current, Stop).

    evaluate(x) gives a tuple led by the objective, and current =
    evaluate(x). Each iteration tries x + t * direction for t = 1, 1/2,
    1/4, ... along the caller-scaled direction, accepts the first strict
    improvement (a ValueError counts as a rejected trial) and reports
    accepted(iteration, result). It gives up once t * max|direction| <
    cfg.step_tolerance ("no_ascent", or "gtol" if even t = 1 is that
    short), and stops on a None direction ("gtol"), a gain below
    cfg.objective_tolerance ("ftol") or after cfg.max_iters_per_level
    iterations ("max_iters"); otherwise it asks new_direction(x, result,
    t) for the next direction."""
    evaluations = 0
    for it in range(1, cfg.max_iters_per_level + 1):
        reach = None if direction is None else np.abs(direction).max()
        if reach is None or reach < cfg.step_tolerance:
            return x, current, Stop(it - 1, evaluations, "gtol")
        t = 1.0
        while t * reach >= cfg.step_tolerance:
            cand = x + t * direction
            evaluations += 1
            result = None  # free a rejected trial before the next one
            try:
                result = evaluate(cand)
            except ValueError:
                result = (-np.inf,)
            if result[0] > current[0]:
                break
            t *= 0.5
        else:
            return x, current, Stop(it - 1, evaluations, "no_ascent")
        gain = result[0] - current[0]
        x, current = cand, result
        if accepted is not None:
            accepted(it, result)
        if gain < cfg.objective_tolerance:
            return x, current, Stop(it, evaluations, "ftol")
        if it < cfg.max_iters_per_level:
            direction = new_direction(x, result, t)
    return x, current, Stop(cfg.max_iters_per_level, evaluations,
                            "max_iters")


class _Lbfgs:
    """Limited-memory BFGS ascent directions (two-loop recursion, Liu &
    Nocedal 1989) for parameters in mm.

    direction(u, g) takes the parameters and the objective gradient at
    each accepted point, in order. With no usable curvature pair, or when
    the quasi-Newton direction is not an ascent direction (which also
    clears the memory), it returns the gradient scaled to `step` mm.
    Every direction is capped at `max_step` mm; None means a zero
    gradient. Pairs without positive curvature are not stored.
    """

    def __init__(self, step, max_step):
        self.step, self.max_step = step, max_step
        self.pairs = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / (s . y))
        self._last = None

    def direction(self, u, g):
        if self._last is not None:
            s, y = u - self._last[0], self._last[1] - g
            sy = float(s @ y)
            if sy > 0.0:
                self.pairs.append((s, y, 1.0 / sy))
        self._last = (u, g)
        d = self._two_loop(g) if self.pairs else None
        if d is None or not d @ g > 0.0:
            self.pairs.clear()
            norm = np.linalg.norm(g)
            if norm < 1e-15:
                return None
            d = g * (self.step / norm)
        norm = np.linalg.norm(d)
        return d * (self.max_step / norm) if norm > self.max_step else d

    def _two_loop(self, g):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        s, y, _ = self.pairs[-1]
        r = q * (float(s @ y) / float(y @ y))
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            r += (a - rho * (y @ r)) * s
        return r


def register_affine(target, floating, cfg=None, start=None):
    """Estimate the 12-parameter affine maximizing NMI, coarse to fine.

    Starts from `start`, an AffineTransform mapping target points to
    floating points (the pipeline passes the map of the target
    vertebra's box onto the atlas vertebra's), or by default from
    intensity-centroid alignment: the identity matrix and the shift
    between the centroids. Each level samples at most
    `_AFFINE_SAMPLE_POINTS` (5000) target voxels, fewer if
    `cfg.max_sample_voxels` is smaller and not 0, and runs one L-BFGS
    ascent over all 12 parameters: the matrix, which acts about the
    target-domain center and is scaled by the domain radius, and the
    translation, so every parameter is in mm of point motion. Each trial
    returns NMI and its gradient in one call; the first direction is the
    gradient scaled to 2 voxels, and every direction is capped at 4
    voxels (of the level's largest spacing). Each level's stop is logged
    at DEBUG.
    """
    cfg = cfg or RegistrationConfig()
    levels = _levels(target, floating, cfg,
                     min(cfg.max_sample_voxels or _AFFINE_SAMPLE_POINTS,
                         _AFFINE_SAMPLE_POINTS))
    corners = _domain_corners(target.geometry)
    center = corners.mean(axis=0)
    radius = max(float(np.abs(corners - center).max()), 1.0)

    def affine_of(u):  # u = (radius * matrix row-major, centered shift)
        m = u[:9].reshape(3, 3) / radius
        return AffineTransform(m, center - m @ center + u[9:])

    if start is None:  # identity matrix, shift between the centroids
        start = AffineTransform(np.eye(3), _intensity_centroid(floating)
                                - _intensity_centroid(target))
    u = np.concatenate([radius * start.matrix.ravel(),
                        start.translation - (center - start.matrix @ center)])

    for level, (tgt, obj) in enumerate(levels):
        pts_c = obj.points - center

        def evaluate(u):
            nmi_val, pg = obj.point_gradient_at(
                affine_apply(affine_of(u), obj.points))
            return nmi_val, np.concatenate([(pg.T @ pts_c).ravel() / radius,
                                            pg.sum(axis=0)])

        spacing = max(tgt.geometry.spacing)
        lbfgs = _Lbfgs(step=2.0 * spacing, max_step=4.0 * spacing)
        current = evaluate(u)
        u, current, stop = _ascend(
            u, current, lbfgs.direction(u, current[1]), evaluate,
            lambda u, result, t: lbfgs.direction(u, result[1]), cfg)
        log.debug("affine level %d: NMI=%.5f, %d iterations, %d "
                  "evaluations, stop %s", level, current[0], *stop)

    return affine_of(u)


def _penalty_grid(target_geom, pad_mm, min_spacing_mm=0.0):
    """Axis-aligned grid covering the target domain grown by pad_mm.

    min_spacing_mm coarsens the quadrature: the penalty of a smooth
    control-lattice field is resolved well below the lattice spacing, so
    sampling finer than that only costs time.
    """
    corners = _domain_corners(target_geom)
    lo = corners[0] - pad_mm
    hi = corners[-1] + pad_mm
    spacing = np.maximum(np.array(target_geom.spacing), min_spacing_mm)
    # floor keeps every sample inside [lo, hi], and so inside the lattice
    dims = np.maximum(np.floor((hi - lo) / spacing).astype(int) + 1, 2)
    return GridGeometry(tuple(dims), tuple(spacing), tuple(lo)), lo, hi


def register_ffd(target, floating, affine, cfg=None):
    """Coarse-to-fine FFD optimization of (1-alpha)*NMI - alpha*P for the
    transform x -> A x + u(x).

    The control lattice and the penalty grids live on the target domain,
    fixed whatever the affine; coefficients are carried between levels
    by exact B-spline subdivision.
    """
    cfg = cfg or RegistrationConfig()
    levels = _levels(target, floating, cfg, cfg.max_sample_voxels or None)

    # lattice domain: the full-resolution target domain, padded by two
    # voxels so that samples on its faces keep full support whatever the
    # rounding of their lattice coordinates
    pad = 2.0 * max(target.geometry.spacing)
    _, dom_lo, dom_hi = _penalty_grid(target.geometry, pad)
    coarse_spacing = cfg.control_spacing_mm * 2 ** (cfg.pyramid_levels - 1)
    ffd = FFDTransform.zeros(lattice_covering(dom_lo, dom_hi, coarse_spacing))

    trace, stops = [], []
    for level, (tgt, obj) in enumerate(levels):
        if level > 0:
            ffd = refine_ffd(ffd)
        pen_geom, _, _ = _penalty_grid(
            tgt.geometry, 0.0,
            min_spacing_mm=min(ffd.control_geom.spacing) / 4.0)
        coef, (current, nmi_val, p_val), stop = _ffd_level(
            obj, affine, ffd, pen_geom, cfg,
            step=1.0 * max(tgt.geometry.spacing),
            record=lambda it, result: trace.append((it, level) + result[:3]))
        ffd = FFDTransform(ffd.control_geom, coef)
        stops.append(stop)
        log.debug("ffd level %d: C=%.6f NMI=%.5f P=%.6f, %d iterations, "
                  "%d evaluations, stop %s", level, current, nmi_val, p_val,
                  *stop)

    return RegistrationResult(ComposedTransform(affine, ffd), current, trace,
                              stops)


def _ffd_level(obj, affine, ffd, pen_geom, cfg, step, record):
    """Ascend (1-alpha)*NMI - alpha*P over ffd's coefficients on one
    pyramid level; returns (coefficients, (C, NMI, P), Stop), and passes
    the start (iteration 0) and every accepted step to record. Each trial
    is one `point_gradient_at` call and gives (C, NMI, P, (point_grad,
    Qc)).

    Each direction is the max-normalised gradient times a step length in
    mm of control-point motion: `step` at first, then 1.5 times the last
    accepted step, at most 2 * step. A trial keeps its point gradient and
    Qc, and the coefficient gradient (1-alpha) W^T point_grad -
    2 alpha Qc is formed only where a direction is taken: at the start
    and after an accepted step that the ascent continues from. Rejected
    trials, and the last accepted one, skip the adjoint product.

    The samples x are voxel centers of the level's target grid, so the
    warped points are y = A x + W c with W the lattice's `GridBasis` on
    that grid (three small matmuls each way, no per-point rows), and the
    penalty is the quadratic form P = sum_d c_d^T Q c_d. Both operators
    are built once here, and freed on return, before the next level
    builds its own.
    """
    alpha = cfg.alpha
    z = affine_apply(affine, obj.points)
    basis = GridBasis(ffd.control_geom, obj.grid, obj.indices)
    bend = bending_operator(ffd.control_geom, pen_geom)

    def evaluate(coef):
        c = coef.reshape(-1, 3)
        nmi_val, point_grad = obj.point_gradient_at(z + basis.forward(c))
        qc = bend @ c
        p_val = float(np.sum(c * qc))
        return ((1.0 - alpha) * nmi_val - alpha * p_val, nmi_val, p_val,
                (point_grad, qc))

    def direction(result, length):
        point_grad, qc = result[3]
        grad = ((1.0 - alpha) * basis.adjoint(point_grad)
                - alpha * (2.0 * qc)).reshape(ffd.coefficients.shape)
        gnorm = np.abs(grad).max()
        return None if gnorm < 1e-15 else length * (grad / gnorm)

    length = step  # the scale of the direction in use

    def new_direction(coef, result, t):
        nonlocal length
        length = min(1.5 * t * length, 2.0 * step)
        return direction(result, length)

    start = evaluate(ffd.coefficients)
    record(0, start)
    coef, current, stop = _ascend(ffd.coefficients, start,
                                  direction(start, step), evaluate,
                                  new_direction, cfg, accepted=record)
    return coef, current[:3], stop


def warp_atlas(atlas_img, atlas_lbl, comp, target_geom):
    """Pull atlas image (trilinear) and labels (nearest) onto the target
    grid through the composed transform, which is evaluated once for
    both: A x + u(x) at every voxel center x, with u from the lattice's
    `GridBasis` on the target grid, as registration evaluates it.
    `phantom.deform_phantom` warps through it too."""
    pts = affine_apply(comp.affine,
                       target_geom.grid_world_points().reshape(-1, 3))
    if comp.ffd is not None:  # the basis is freed before the sampling
        pts += GridBasis(comp.ffd.control_geom, target_geom,
                         np.arange(len(pts))).forward(comp.ffd.coefficients)
    pts = pts.reshape(target_geom.dims + (3,))
    return (pull_back(atlas_img, target_geom, pts),
            pull_back(atlas_lbl, target_geom, pts))
