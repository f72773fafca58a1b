"""B-spline kernels shared by the deformation model and image sampling.

All evaluation is tensor-product: 1D kernel values at the fractional
coordinate are combined across axes over a (degree + 1)-point support.
Every caller gets those values as tap-major rows from one
`support_weights`. The deformation model, its bending energy, its
subdivision and the Parzen histogram are cubic; the spline image that
registration samples is quadratic.
"""

import numpy as np

# points per block in the per-point kernels (FFD basis rows, spline image
# sampling). The spline image gathers (3, 3, 3, block) coefficients, 27
# taps per point, 1.1 MB at 5000 points, within one core's L2 cache, and
# reads it twice, once per einsum contraction of its leading tap axis. Not
# a power of two: blocks of 4096 or 8192 points lay their arrays out 2 or
# 4 MiB apart, and the cubic gather then ran up to 2.5x slower.
BLOCK_POINTS = 5000


def bspline3(t):
    """Cubic B-spline kernel value at offset t (support |t| < 2)."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    m1 = t < 1.0
    m2 = (t >= 1.0) & (t < 2.0)
    out[m1] = (4.0 - 6.0 * t[m1] ** 2 + 3.0 * t[m1] ** 3) / 6.0
    out[m2] = (2.0 - t[m2]) ** 3 / 6.0
    return out


def bspline3_d1(t):
    """First derivative of the cubic B-spline kernel."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    s = np.sign(t)
    out = np.zeros_like(t)
    m1 = a < 1.0
    m2 = (a >= 1.0) & (a < 2.0)
    out[m1] = s[m1] * (-2.0 * a[m1] + 1.5 * a[m1] ** 2)
    out[m2] = s[m2] * (-0.5 * (2.0 - a[m2]) ** 2)
    return out


def bspline3_d2(t):
    """Second derivative of the cubic B-spline kernel."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    m1 = t < 1.0
    m2 = (t >= 1.0) & (t < 2.0)
    out[m1] = -2.0 + 3.0 * t[m1]
    out[m2] = 2.0 - t[m2]
    return out


def _weight_rows(f, deriv, degree):
    """The 1D weights at fractional parts f, one array per support node.

    Cubic (f = u - floor(u)): nodes i0..i0+3 at offsets -1-f, -f, 1-f,
    2-f. Quadratic (f = u - floor(u + 0.5), in [-0.5, 0.5)): nodes
    i0..i0+2 at offsets -1-f, -f, 1-f. Closed forms of the kernel (or
    derivative) at those fixed offsets, with no masked evaluation.
    """
    if degree == 2:
        if deriv == 0:
            lo, hi = 0.5 - f, 0.5 + f
            return [0.5 * lo * lo, 0.75 - f * f, 0.5 * hi * hi]
        if deriv == 1:
            return [0.5 - f, 2.0 * f, -0.5 - f]
        raise ValueError(f"unsupported derivative order {deriv}")
    g = 1.0 - f
    if deriv == 0:
        return [g * g * g / 6.0,
                (3.0 * f * f * f - 6.0 * f * f + 4.0) / 6.0,
                (-3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0) / 6.0,
                f * f * f / 6.0]
    if deriv == 1:
        return [0.5 * g * g,
                2.0 * f - 1.5 * f * f,
                -2.0 * g + 1.5 * g * g,
                -0.5 * f * f]
    if deriv == 2:
        return [g, 3.0 * f - 2.0, 1.0 - 3.0 * f, f]
    raise ValueError(f"unsupported derivative order {deriv}")


def support_weights(u, *orders, degree=3):
    """Tap-major 1D weights over the B-spline support of coordinates u.

    Returns (i0, rows...): the first support index, floor(u) - 1 for the
    cubic (degree 3, 4 nodes) and floor(u + 0.5) - 1 for the quadratic
    (degree 2, 3 nodes), and for each derivative order asked for (the
    kernel alone by default) one (degree + 1,) + u.shape array whose row
    o is the kernel (or derivative) at node i0 + o minus u, the same bits
    whether the order is asked for alone or with others.
    """
    u = np.asarray(u, dtype=np.float64)
    iu = np.floor(u + 0.5) if degree == 2 else np.floor(u)
    f = u - iu
    return (iu.astype(np.int64) - 1, *(np.array(_weight_rows(f, d, degree))
                                       for d in orders or (0,)))


def support_offsets(dims, taps=4):
    """Flat offsets, in a C-order array of shape dims, of the taps**3
    nodes of a cubic (4) or quadratic (3) support from its first node
    (i0, j0, k0), in C order."""
    ny, nz = dims[1:]
    o = np.arange(taps)
    return ((o[:, None, None] * ny + o[None, :, None]) * nz
            + o[None, None, :]).ravel()


# Two-scale (dyadic subdivision) mask for cubic B-splines: coefficients at
# half spacing that reproduce the coarse spline exactly.
REFINE_MASK = np.array([0.125, 0.5, 0.75, 0.5, 0.125])
REFINE_OFFSETS = np.arange(-2, 3)


def refine_coefficients_1d(coef, axis):
    """Dyadic cubic B-spline subdivision along one axis.

    Input length n maps to 2n - 1 coefficients at half spacing covering the
    same node extent; the represented spline is unchanged.
    """
    coef = np.asarray(coef, dtype=np.float64)
    n = coef.shape[axis]
    out_shape = list(coef.shape)
    out_shape[axis] = 2 * n - 1
    out = np.zeros(out_shape, dtype=np.float64)
    src = np.moveaxis(coef, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    for k, m in zip(REFINE_OFFSETS, REFINE_MASK):
        # fine index j receives coarse i where j = 2i + k
        j = 2 * np.arange(n) + k
        keep = (j >= 0) & (j < 2 * n - 1)
        dst[j[keep]] += m * src[keep]
    return out
