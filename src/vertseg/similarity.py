"""Intensity similarity: NMI and its gradient.

NMI is (H1 + H2) / H12 of a joint intensity histogram (Studholme, Hill &
Hawkes 1999). One function, `_nmi_terms`, turns a flat count table into
the NMI and the logs its derivative reads, for both kinds of table:

* `nmi`, the value reported to users and tests, takes the nearest bin on
  both axes, so identical aligned images score exactly 2;
* `NmiObjective`, the optimizer's differentiable objective, spreads each
  sample by a cubic B-spline Parzen kernel along the floating-intensity
  axis (`_parzen_counts`, which also returns the flat bins and kernel
  derivative rows that the objective's gradient reuses), where smoothness
  in the warp matters more than exact diagonal structure.

The objective has one evaluation path, `NmiObjective.point_gradient_at`:
it samples the floating image at warped points with one spline gather,
`SplineImage.sample` (value, gradient and in-domain count together),
bins the values and returns the NMI with its derivative per point. The
floating image is a quadratic B-spline: C1, so that derivative is exact,
from 27 coefficients per sample. The Parzen window and the FFD lattice
stay cubic. The transform-level methods only map the samples before
calling it: `value` through `compose_apply`, whose FFD part is
`ffd_displace`'s per-node gather, and `value_and_ffd_gradient` through
`affine_apply` and the separable FFD basis on the target grid,
`GridBasis`, which also pulls the point gradient back onto the lattice.
Both registration stages score every trial with one `point_gradient_at`
call.

The per-point kernels work on axis-major rows, in place where they can:
`SplineImage.sample` maps the (V, 3) points to a (3, V) array of voxel
coordinates, clamps each axis row in place and hands `support_weights`
(3, n) slices of it block by block; `_parzen_counts` clamps the flat
bins in place. Each element sees the arithmetic of a point-major
evaluation in the same order, so values and gradients keep their bits.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .bspline import BLOCK_POINTS, support_offsets, support_weights
from .checks import integer, real
from .transform import GridBasis, affine_apply, compose_apply


@dataclass(frozen=True)
class IntensityWindow:
    """Linear binning of [lo, hi] HU onto bin coordinates [0, bins-1]."""

    lo: float = -1024.0
    hi: float = 2048.0
    bins: int = 64

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        object.__setattr__(self, "bins", integer("bins", self.bins, 8))
        if not self.lo < self.hi:
            raise ValueError("window lo must be < hi")

    @property
    def scale(self):
        return (self.bins - 1) / (self.hi - self.lo)

    def bin_coord(self, values):
        """Continuous bin coordinate, clamped to [0, bins-1]."""
        c = (np.asarray(values, dtype=np.float64) - self.lo) * self.scale
        return np.clip(c, 0.0, self.bins - 1)


def _parzen_counts(rows, c2, nb):
    """Flat joint counts of samples in target rows `rows` (target bin
    times nb) at floating bin coordinates c2, each spread by the cubic
    B-spline over its 4 (edge-clamped) floating bins. Also returns the
    flat bins of those taps and the kernel's derivative weights, both
    (4, V)."""
    i0, w, dw = support_weights(c2, 0, 1)
    flat = np.empty(w.shape, dtype=np.int64)
    counts = np.zeros(nb * nb)
    for o, f in enumerate(flat):
        np.add(i0, o, out=f)
        np.clip(f, 0, nb - 1, out=f)
        f += rows
        counts += np.bincount(f, weights=w[o], minlength=nb * nb)
    return counts, flat, dw


def _nmi_terms(counts, nb):
    """NMI (H1 + H2) / H12 of flat joint counts (nb * nb, target-major),
    with what its derivative reads: the logs of the target-marginal,
    floating-marginal and joint probabilities (0 where a probability is
    0), the total mass n and the joint entropy H12, in nats with
    0 log 0 := 0. A table with one occupied bin has NMI 2."""
    counts = counts.reshape(nb, nb)
    n = float(counts.sum())
    ps = (counts.sum(axis=1) / n, counts.sum(axis=0) / n, counts / n)
    with np.errstate(divide="ignore"):
        logs = tuple(np.where(p > 0, np.log(p), 0.0) for p in ps)
    h1, h2, h12 = (float(-np.sum((p * lp)[p > 0]))
                   for p, lp in zip(ps, logs))
    return (2.0 if h12 == 0.0 else (h1 + h2) / h12), logs, n, h12


def nmi(img1, img2, window=IntensityWindow()):
    """Normalized mutual information (H1 + H2) / H12 of two volumes on a
    shared grid, from their joint histogram with the nearest bin on both
    axes: identical volumes score exactly 2. To score a region, crop both
    volumes to it (`volume.crop`)."""
    if not img1.geometry.same_grid(img2.geometry):
        raise ValueError(f"volumes must share geometry: {img1.geometry} "
                         f"vs {img2.geometry}")
    a = np.round(window.bin_coord(img1.data.ravel())).astype(np.int64)
    b = np.round(window.bin_coord(img2.data.ravel())).astype(np.int64)
    nb = window.bins
    counts = np.bincount(a * nb + b, minlength=nb * nb).astype(np.float64)
    return _nmi_terms(counts, nb)[0]


def _contract_taps(t, w):
    """Sum over the leading tap axis of t weighted by w (taps, V), in one
    einsum pass: ((t0*w0 + t1*w1) + t2*w2) + ... for every output
    element. For a single output element einsum may take its dot-product
    loop, which sums in another order, so that case is summed explicitly:
    a point's result does not depend on the size of its block."""
    if t[0].size == 1:
        out = t[0] * w[0]
        for k in range(1, len(t)):
            out = out + t[k] * w[k]
        return out
    return np.einsum("k...v,kv->...v", t, w)


class SplineImage:
    """Quadratic-spline interpolating view of a ScalarVolume with analytic
    spatial gradients (used by the differentiable similarity path).

    The quadratic B-spline is C1, so the objective's analytic gradient is
    the derivative of a smooth function, and each sample reads a 3x3x3
    support: 27 coefficients instead of the cubic's 64. The prefiltered
    coefficients (`spline_filter(order=2, mode="mirror")`) are
    mirror-extended once, by 1 node on each side of each axis, which
    covers the support of every in-domain coordinate. A point's support
    starts at node floor(u + 0.5) - 1 and is read at that node plus the
    fixed `support_offsets`; value and gradient come from that one gather.

    `sample` maps the points to voxels once, into axis-major rows (3, V),
    and clamps each row in place; a NaN or infinite point raises
    ValueError there, and the number of points that lie in the image
    domain comes from the same clamp.

    Its weights come from one `support_weights` call per block of
    BLOCK_POINTS, over all three axes, on a (3, n) slice of those rows
    with no copy. The warped points lie on no grid, so the weights do
    not factor per axis as in `transform.GridBasis`: the gather is
    tap-major, in (z, y, x) tap order, one `take` per tap through the
    flat coefficients shifted by the tap's offset into one buffer. A
    block of n points gathers a (3, 3, 3, n) array, contracted along its
    leading axis, z then y then x, with the (3, n) weight rows;
    `_contract_taps` sums each axis's three taps in order, in one einsum
    call per contraction. The kernel argument is node - u, so each
    derivative changes sign: the three gradient components are divided
    by the negated spacing instead of negating the (3, 3, n) derivative
    rows. Negation is exact, so only a component that cancels to exactly
    zero can differ from a negated-row evaluation, in the sign of that
    zero.
    """

    def __init__(self, vol):
        self.geometry = vol.geometry
        padded = np.pad(ndimage.spline_filter(vol.data, order=2,
                                              mode="mirror"),
                        1, mode="reflect")
        self._coef = padded.ravel()
        self._strides = padded.shape[1] * padded.shape[2], padded.shape[2]
        # the 27 support offsets in (z, y, x) tap order
        self._offsets = support_offsets(padded.shape, 3).reshape(
            3, 3, 3).transpose(2, 1, 0).ravel()
        self._dims = np.array(vol.geometry.dims)
        self._spacing = np.array(vol.geometry.spacing)

    def sample(self, pts_world):
        """Spline value and gradient (HU/mm) at world points (V, 3), from
        one padded gather, and the number of points that no clamp moved.

        Coordinates are clamped to the image domain, so the sampled value
        is continuous everywhere; beyond a face the value is constant along
        that axis, and the gradient component there is 0 accordingly. A
        NaN or infinite point raises ValueError.
        """
        # axis-major: u[a] is the row of axis-a voxel coordinates
        u = self.geometry.world_to_voxel(np.asfortranarray(pts_world)).T
        outside = np.empty(u.shape, dtype=bool)
        for row, out, hi in zip(u, outside, self._dims - 1.0):
            np.logical_and(row >= 0.0, row <= hi, out=out)
            np.logical_not(out, out=out)  # NaN is not in [0, hi] either
            if out.any() and not np.isfinite(row[out]).all():
                raise ValueError("non-finite warped sample point")
            np.clip(row, 0.0, hi, out=row)
        # BLOCK_POINTS at a time, into one gather buffer: each point's
        # (3, 3, 3) coefficient neighborhood is gathered, so the
        # temporaries grow with the block
        val = np.empty(u.shape[1])
        grad = np.empty(u.shape[::-1])
        taps = np.empty((27, min(u.shape[1], BLOCK_POINTS)))
        for start in range(0, u.shape[1], BLOCK_POINTS):
            blk = slice(start, start + BLOCK_POINTS)
            self._value_and_gradient(u[:, blk], taps, val[blk], grad[blk])
        grad.T[outside] = 0.0
        return val, grad, len(val) - np.count_nonzero(
            outside[0] | outside[1] | outside[2])

    def _value_and_gradient(self, u, taps, val, grad):
        """Write the spline value and gradient (HU/mm) at in-domain voxel
        coordinates u (3, V) into val (V,) and grad (V, 3), gathering
        through taps (27, >= V)."""
        # all three axes at once: i0 is (3, V), w and dw (3, 3, V)
        i0, w, dw = support_weights(u, 0, 1, degree=2)
        sy, sz = self._strides
        # the padded flat index of each support's first node: the padding
        # shifts node i to i + 1 on each axis
        base = (i0[0] * sy + i0[1] * sz) + i0[2]
        base += sy + sz + 1
        # the (z, y, x)-tap-major neighborhoods, (3, 3, 3, V), one tap at
        # a time through the flat coefficients shifted by its offset; the
        # clamp keeps every index in range, so mode="clip" clips nothing
        c = taps[:, :len(base)]
        for tap, off in zip(c, self._offsets):
            self._coef[off:].take(base, out=tap, mode="clip")
        c = c.reshape(3, 3, 3, -1)
        # contract one axis at a time along the leading tap axis
        cz = _contract_taps(c, w[:, 2])
        cy = _contract_taps(cz, w[:, 1])
        val[:] = _contract_taps(cy, w[:, 0])
        # the kernel argument is node - u: each derivative changes sign,
        # folded into the division by the spacing
        for a, g in enumerate((
                _contract_taps(cy, dw[:, 0]),
                _contract_taps(_contract_taps(cz, dw[:, 1]), w[:, 0]),
                _contract_taps(_contract_taps(_contract_taps(c, dw[:, 2]),
                                              w[:, 1]), w[:, 0]))):
            np.divide(g, -self._spacing[a], out=grad[:, a])


class NmiObjective:
    """Parzen-smoothed NMI between a fixed target and a spline-sampled
    floating image, differentiable in the warp.

    The samples are the target's voxel centers, all of them or a fixed
    subset of max_points (None or >= 1): `points`, at the sorted flat
    C-order `indices` of the target grid `grid`. To register a region,
    crop the target to it (`volume.crop` keeps world coordinates).
    Target voxels are binned once; each evaluation samples the floating
    image at the warped voxel centers, accumulates the Parzen joint
    histogram, and pushes the entropy derivative back through the
    kernel, the image gradient, and the transform parameters.
    """

    def __init__(self, target, floating, window=IntensityWindow(),
                 max_points=None):
        if max_points is not None:
            max_points = integer("max_points", max_points, 1)
        self.grid = target.geometry
        size = target.data.size
        if max_points is None or size <= max_points:
            self.indices = np.arange(size)
        else:
            # deterministic uniform subset keeps evaluations tractable on
            # large grids while leaving the NMI estimate essentially intact
            self.indices = np.sort(np.random.default_rng(0).choice(
                size, size=max_points, replace=False))
        t = target.data.ravel()[self.indices]
        # only the sampled voxel centers are mapped: the same values as the
        # grid's `grid_world_points` at those indices
        self.points = np.stack(
            [ax[i] for ax, i in zip(self.grid.axes(), np.unravel_index(
                self.indices, self.grid.dims))], axis=-1)
        self.window = window
        # each target sample's row of the flat joint histogram
        self.target_rows = (np.round(window.bin_coord(t)).astype(np.int64)
                            * window.bins)
        self.spline = SplineImage(floating)

    def value(self, comp):
        """NMI with the floating image sampled at the samples mapped
        through comp: the value of `point_gradient_at`."""
        return self.point_gradient_at(compose_apply(comp, self.points))[0]

    def point_gradient_at(self, y):
        """NMI at warped points y (V, 3) and its derivative with respect
        to each of them (mm).

        The points are mapped to voxels once, in `SplineImage.sample`. The
        flat bins and kernel derivative rows of the Parzen histogram are
        reused for the derivative, which gathers d NMI / d counts from the
        raveled table with one 1-D take. The NMI and the logs of the
        probabilities that d NMI / d counts reads come from `_nmi_terms`,
        as `nmi`'s value does.
        """
        v, g, inside = self.spline.sample(y)
        # all warped points contribute (clamped sampling keeps the value
        # continuous as points cross the floating-image boundary), but the
        # overlap must not vanish entirely
        if not inside:
            raise ValueError("no warped sample falls inside the floating image")
        nb = self.window.bins
        c2 = self.window.bin_coord(v)
        # where the window clamps, the bin coordinate does not move with v
        clipped = (c2 <= 0.0) | (c2 >= nb - 1)
        counts, flat, dw = _parzen_counts(self.target_rows, c2, nb)
        nmi_val, (l1, l2, l12), n, h12 = _nmi_terms(counts, nb)
        if h12 == 0.0:
            return nmi_val, np.zeros_like(self.points)
        # d NMI / d counts(a, b)
        dnmi_dh = (-(l1[:, None] + 1.0) - (l2[None, :] + 1.0)
                   + nmi_val * (l12 + 1.0)) / (n * h12)

        # the kernel argument is bin - c2, hence the sign
        dnmi_dc2 = -_contract_taps(np.take(dnmi_dh, flat), dw)
        dnmi_dc2[clipped] = 0.0

        g *= (dnmi_dc2 * self.window.scale)[:, None]  # in place: g is ours
        return nmi_val, g

    def value_and_ffd_gradient(self, comp):
        """NMI and its analytic gradient over the FFD coefficients of
        x -> A x + u(x): the point gradient pulled back through the
        transposed FFD basis on the target grid."""
        coef = comp.ffd.coefficients
        basis = GridBasis(comp.ffd.control_geom, self.grid, self.indices)
        nmi_val, point_grad = self.point_gradient_at(
            affine_apply(comp.affine, self.points) + basis.forward(coef))
        return nmi_val, basis.adjoint(point_grad).reshape(coef.shape)
