"""Affine and cubic B-spline free-form deformation transforms.

The composed transform is x -> A x + u(x) (Rueckert et al., IEEE TMI
1999): an affine map plus a displacement field u on a control-point
lattice that lives on the target domain, u(x) = sum over the 4x4x4
neighboring control points of (tensor B-spline weight * coefficient).
Coefficients are stored in mm. The smoothness penalty is the mean
squared second derivative of the displacement field (cross terms
doubled), summed over the three displacement components.

The displacement is linear and the penalty quadratic in the
coefficients c (flattened to (n_nodes, 3)), so each has one operator
that depends only on the lattice and the sample points. W is the
(V, n_nodes) matrix of B-spline weights at the points: the displacement
is W c and W^T pulls per-point gradients back onto the lattice. At voxel
centers of an axis-aligned grid, W is a tensor product of three small
per-axis weight matrices, and `GridBasis` applies W and W^T with three
matmuls each, with no per-point rows. Every evaluation on a voxel grid
uses it: a registration level, whose samples are voxel centers of its
target grid, forward and transposed, and the atlas warp and the phantom
deformation forward at every voxel. At arbitrary points (`ffd_displace`,
and so `compose_apply`) W is never formed: each point's 64 support
nodes are gathered from the coefficients one node at a time, weighted
and summed, as the spline image samples its taps.
`bending_operator` is the symmetric Q with penalty P = sum_d c_d^T Q c_d
and gradient 2 Q c. The penalty grid is axis-aligned too, so Q is a
weighted sum of tensor products of small per-axis Gram matrices, and
`BendingOperator` applies it with three matmuls per term, in the same
pattern as `GridBasis`. A registration level builds each operator once
and reuses it on every objective evaluation.
"""

import json
from dataclasses import dataclass

import numpy as np

from .bspline import (BLOCK_POINTS, refine_coefficients_1d, support_offsets,
                      support_weights)
from .volume import GridGeometry


def _finite(name, values):
    """values as a float64 array, after checking that every entry is
    finite: a NaN or inf would only fail later, at a sample point."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite, got a NaN or inf entry")
    return values


@dataclass
class AffineTransform:
    """x -> matrix @ x + translation (mm)."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.matrix = _finite("affine matrix", self.matrix).reshape(3, 3)
        self.translation = _finite("affine translation",
                                   self.translation).reshape(3)
        if abs(np.linalg.det(self.matrix)) <= 1e-12:
            raise ValueError("affine matrix is singular")

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))


def affine_apply(A, x):
    """Apply an affine transform to point(s) x (..., 3). The translation
    is added in place, into the product: one (..., 3) array is made."""
    x = np.asarray(x, dtype=np.float64)
    y = x @ A.matrix.T
    y += A.translation
    return y


@dataclass
class FFDTransform:
    """Cubic B-spline displacement field on a control lattice.

    control_geom.origin is the world position of lattice node (0,0,0) and
    control_geom.spacing the control-point spacing. coefficients has shape
    dims + (3,), displacements in mm.
    """

    control_geom: GridGeometry
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = _finite("FFD coefficients", self.coefficients)
        expect = self.control_geom.dims + (3,)
        if self.coefficients.shape != expect:
            raise ValueError(
                f"coefficients shape {self.coefficients.shape} != {expect}")
        if any(d < 4 for d in self.control_geom.dims):
            raise ValueError("lattice needs >= 4 control points per axis")

    @classmethod
    def zeros(cls, control_geom):
        return cls(control_geom, np.zeros(control_geom.dims + (3,)))


def lattice_covering(domain_lo, domain_hi, spacing_mm):
    """Control lattice geometry covering a world-space box with full
    cubic support at (and slightly beyond) both domain boundaries."""
    lo = np.asarray(domain_lo, dtype=np.float64)
    hi = np.asarray(domain_hi, dtype=np.float64)
    if np.any(hi < lo):
        raise ValueError("empty lattice domain")
    s = float(spacing_mm)
    n = np.ceil((hi - lo) / s).astype(int) + 4
    n = np.maximum(n, 4)
    return GridGeometry(dims=tuple(n), spacing=(s, s, s),
                        origin=tuple(lo - s))


def ffd_displace(ffd, x):
    """Displacement (mm) of the FFD at world point(s) x (..., 3).

    Evaluated BLOCK_POINTS points at a time, component-major: one
    `support_weights` call over all three axes and one support check per
    block, then, for each of the 64 support nodes in C order, one gather
    of the (3, n_nodes) coefficients at that node, scaled by its weight
    (wx * wy) * wz and added into the block's (3, n) sum, which starts
    at zero. Each point's sum runs over its nodes in that order,
    whatever the blocking. A point whose support leaves the lattice
    raises ValueError."""
    x = np.asarray(x, dtype=np.float64)
    pts = x.reshape(-1, 3)
    geom = ffd.control_geom
    ny, nz = geom.dims[1:]
    coef = np.ascontiguousarray(ffd.coefficients.reshape(-1, 3).T)
    nodes = list(zip(support_offsets(geom.dims), np.ndindex(4, 4, 4)))
    out = np.empty_like(pts)
    tap = np.empty((3, min(len(pts), BLOCK_POINTS)))
    for start in range(0, len(pts), BLOCK_POINTS):
        blk = slice(start, start + BLOCK_POINTS)
        # all three axes at once: i0 is (3, m), w (4, 3, m)
        i0, w = support_weights(geom.world_to_voxel(pts[blk]).T)
        if np.any(i0 < 0) or np.any(i0.T > np.subtract(geom.dims, 4)):
            raise ValueError("point outside FFD lattice support")
        base = (i0[0] * ny + i0[1]) * nz + i0[2]
        t = tap[:, :len(base)]
        total = np.zeros_like(t)
        for off, (i, j, k) in nodes:
            coef.take(base + off, axis=1, out=t)
            t *= (w[i, 0] * w[j, 1]) * w[k, 2]
            total += t
        out[blk] = total.T
    return out.reshape(x.shape)


@dataclass
class ComposedTransform:
    """Affine pre-alignment plus an FFD on the target domain:
    x -> A(x) + ffd_displacement(x). ffd may be None (affine only)."""

    affine: AffineTransform
    ffd: FFDTransform = None

    @classmethod
    def identity(cls):
        return cls(AffineTransform.identity(), None)


def compose_apply(comp, x):
    """Apply a ComposedTransform to point(s) x (..., 3)."""
    y = affine_apply(comp.affine, x)
    if comp.ffd is not None:
        y = y + ffd_displace(comp.ffd, x)
    return y


# second-derivative pairs of the penalty: (axis orders, weight)
_DERIV_PAIRS = [
    ((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0),
    ((1, 1, 0), 2.0), ((1, 0, 1), 2.0), ((0, 1, 1), 2.0),
]


def _axis_weight_matrix(i0, w, n):
    """Dense (len(i0), n) matrix of the tap-major (4, len(i0)) B-spline
    (derivative) weights w of supports starting at i0; each row has the 4
    support-node entries."""
    mat = np.zeros((i0.size, n))
    rows = np.arange(i0.size)
    for o in range(4):
        mat[rows, i0 + o] = w[o]
    return mat


def _axis_supports(control_geom, grid_geom, *orders):
    """Per axis, (i0, rows) of `support_weights(u, *orders)` at the
    lattice coordinates u of the grid's voxel centers, after checking
    that every support lies inside the lattice."""
    supports = []
    for a in range(3):
        idx = np.arange(grid_geom.dims[a], dtype=np.float64)
        world = grid_geom.origin[a] + idx * grid_geom.spacing[a]
        u = (world - control_geom.origin[a]) / control_geom.spacing[a]
        i0, *rows = support_weights(u, *orders)
        if np.any(i0 < 0) or np.any(i0 > control_geom.dims[a] - 4):
            raise ValueError("grid point outside FFD lattice support")
        supports.append((i0, rows))
    return supports


class GridBasis:
    """The FFD basis W at the voxel centers `indices` (distinct flat
    C-order indices) of an axis-aligned grid, applied separably.

    On the grid, W is the tensor product of three dense per-axis
    (n_axis, L_axis) weight matrices. `forward` evaluates the field on
    the whole grid with one matmul per axis, component-major, and takes
    the indexed points; `adjoint` scatters point values into a zero grid
    and runs the three transposed matmuls. A grid point outside the
    lattice support raises ValueError, as in `ffd_displace`.
    """

    def __init__(self, control_geom, grid_geom, indices):
        self.shape = control_geom.dims + (3,)
        self.grid_dims = grid_geom.dims
        self.indices = indices
        self.axes = [_axis_weight_matrix(i0, w, n) for (i0, (w,)), n
                     in zip(_axis_supports(control_geom, grid_geom),
                            control_geom.dims)]

    def forward(self, coef):
        """W c: the displacements (V, 3) at the indexed points of the
        coefficients c, shaped (n_nodes, 3) or lattice dims + (3,)."""
        bx, by, bz = self.axes
        c = np.ascontiguousarray(np.moveaxis(coef.reshape(self.shape), -1, 0))
        t = by @ (c @ bz.T)  # (3, Lx, ny, nz)
        field = bx @ t.reshape(3, self.shape[0], -1)  # (3, nx, ny * nz)
        return np.take(field.reshape(3, -1), self.indices, axis=1).T

    def adjoint(self, g):
        """W^T g: the (n_nodes, 3) pull-back of point values g (V, 3)."""
        bx, by, bz = self.axes
        nx, ny, nz = self.grid_dims
        grid = np.zeros((3, nx * ny * nz))
        grid[:, self.indices] = g.T
        t = bx.T @ grid.reshape(3, nx, ny * nz)  # (3, Lx, ny * nz)
        t = (by.T @ t.reshape(3, -1, ny, nz)) @ bz  # (3, Lx, Ly, Lz)
        return np.moveaxis(t, 0, -1).reshape(-1, 3)


class BendingOperator:
    """The bending energy's symmetric (n_nodes, n_nodes) Q, applied
    separably: Q = sum over the six `_DERIV_PAIRS` of
    weight * (Gx kron Gy kron Gz), with G the 1-D Gram matrices of the
    per-axis B-spline derivative weights (see `bending_operator`).

    `q @ c` takes c shaped (n_nodes, k) and runs three small matmuls per
    term, as `GridBasis.forward` does; no (n_nodes, n_nodes) matrix is
    formed. Applied to the identity it reproduces the Kronecker sum bit
    for bit: each entry is weight * (Gx * (Gy * Gz)), summed over the
    terms in order.
    """

    def __init__(self, dims, terms):
        self.dims = dims
        self.terms = terms  # [(weight, (gx, gy, gz))]

    def __matmul__(self, c):
        k = c.shape[1]
        c = np.ascontiguousarray(np.moveaxis(c.reshape(self.dims + (k,)),
                                             -1, 0))
        out = None
        for weight, (gx, gy, gz) in self.terms:
            t = gy @ (c @ gz.T)  # (k, nx, ny, nz)
            t = weight * (gx @ t.reshape(k, self.dims[0], -1))
            out = t if out is None else out + t
        return np.moveaxis(out, 0, -1).reshape(-1, k)


def bending_operator(control_geom, sample_geom):
    """The `BendingOperator` Q of the bending energy.

    The energy is the mean, over the voxel centers of sample_geom, of the
    squared second derivatives of the displacement (world mm, cross terms
    doubled): P = sum_d c_d^T Q c_d over the displacement components c_d.
    The sample grid is axis-aligned, so each derivative term is a
    Kronecker product of 1-D Gram matrices G = W^T W of the per-axis
    B-spline (derivative) weights, and Q is their weighted sum.
    """
    dims = control_geom.dims
    sp = np.array(control_geom.spacing)
    n_samples = np.prod(sample_geom.dims)
    gram = [[], [], []]  # gram[deriv][axis]
    for a, (i0, rows) in enumerate(_axis_supports(control_geom, sample_geom,
                                                  0, 1, 2)):
        for deriv, w in enumerate(rows):
            m = _axis_weight_matrix(i0, w, dims[a])
            gram[deriv].append(m.T @ m)

    terms = []
    for orders, lam in _DERIV_PAIRS:
        axes = _axes_of(orders)
        scale = 1.0 / (sp[axes[0]] * sp[axes[1]])
        terms.append((lam * scale * scale / n_samples,
                      tuple(gram[o][a] for a, o in enumerate(orders))))
    return BendingOperator(dims, terms)


def bending_energy(ffd, sample_geom, with_gradient=True):
    """Bending energy P of the FFD on the voxel centers of sample_geom
    (see bending_operator). Returns (P, gradient) with gradient shaped
    like the coefficients, or (P, None) when with_gradient is False.
    """
    c = ffd.coefficients.reshape(-1, 3)
    qc = bending_operator(ffd.control_geom, sample_geom) @ c
    value = float(np.sum(c * qc))
    if not with_gradient:
        return value, None
    return value, (2.0 * qc).reshape(ffd.coefficients.shape)


def _axes_of(orders):
    """The two (possibly equal) axes carrying the derivative orders."""
    axes = []
    for a, o in enumerate(orders):
        axes.extend([a] * o)
    return axes


def refine_ffd(ffd):
    """Halve the control spacing, preserving the displacement field exactly
    over the original support."""
    c = ffd.coefficients
    for axis in range(3):
        c = refine_coefficients_1d(c, axis)
    geom = GridGeometry(
        dims=tuple(2 * d - 1 for d in ffd.control_geom.dims),
        spacing=tuple(s / 2.0 for s in ffd.control_geom.spacing),
        origin=ffd.control_geom.origin,
    )
    return FFDTransform(geom, c)


# v1 files hold an FFD fitted in the affinely aligned space,
# x -> A x + u(A x); v2 files the target-domain form x -> A x + u(x)
_FORMAT = "vertseg-transform-v2"


def save_transform(path, comp):
    """Serialize a ComposedTransform to JSON (round-trip exact floats)."""
    doc = {
        "format": _FORMAT,
        "affine": {
            "matrix": comp.affine.matrix.tolist(),
            "translation": comp.affine.translation.tolist(),
        },
    }
    if comp.ffd is not None:
        doc["ffd"] = {
            "dims": list(comp.ffd.control_geom.dims),
            "spacing": list(comp.ffd.control_geom.spacing),
            "origin": list(comp.ffd.control_geom.origin),
            "coefficients": comp.ffd.coefficients.ravel().tolist(),
        }
    # dumps encodes in C; dump would stream through the Python encoder
    with open(path, "w") as f:
        f.write(json.dumps(doc))


def load_transform(path):
    """Read a ComposedTransform written by `save_transform`."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") == "vertseg-transform-v1":
        raise ValueError(
            f"{path}: a vertseg-transform-v1 file, whose FFD was fitted in "
            f"the affinely aligned space (x -> A x + u(A x)); this version "
            f"reads {_FORMAT} (x -> A x + u(x)) only: register again")
    if doc.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a vertseg transform file")
    aff = AffineTransform(np.array(doc["affine"]["matrix"]),
                          np.array(doc["affine"]["translation"]))
    ffd = None
    if "ffd" in doc:
        g = doc["ffd"]
        geom = GridGeometry(tuple(g["dims"]), tuple(g["spacing"]),
                            tuple(g["origin"]))
        coef = np.array(g["coefficients"]).reshape(geom.dims + (3,))
        ffd = FFDTransform(geom, coef)
    return ComposedTransform(aff, ffd)
