"""B-spline kernels shared by the deformation model and image sampling.

All evaluation is tensor-product: 1D kernel values at the fractional
coordinate are combined across axes over a (degree + 1)-point support.
Every caller gets those values as tap-major rows from one
`support_weights`. The deformation model, its bending energy, its
subdivision and the Parzen histogram are cubic; the spline image that
registration samples is quadratic.
"""

import numpy as np

# points per block in the per-point kernels (FFD displacement, spline image
# sampling, trilinear and nearest-neighbour pull-back). The spline image
# gathers (3, 3, 3, block) coefficients, 27 taps per point, into one
# buffer of 1.1 MB at 5000 points, within one core's L2 cache, and reads
# it twice, once per einsum contraction of its leading tap axis; its
# weight rows, (2, 3, 3, block), are another 0.7 MB. The pull-back's
# per-axis rows are 40 kB each. Not a power of two: blocks of 4096 or
# 8192 points lay their arrays out 2 or 4 MiB apart, and the cubic gather
# then ran up to 2.5x slower.
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


def _fill_rows(r, f, deriv, degree):
    """Write the 1D weights at fractional parts f into r, one row per
    support node, with no temporaries.

    Cubic (f = u - floor(u), g = 1 - f): nodes i0..i0+3 at offsets -1-f,
    -f, 1-f, 2-f, with rows g^3 / 6, (3 f^3 - 6 f^2 + 4) / 6,
    (-3 f^3 + 3 f^2 + 3 f + 1) / 6 and f^3 / 6; derivatives 0.5 g^2,
    2 f - 1.5 f^2, -2 g + 1.5 g^2 and -0.5 f^2; second derivatives g,
    3 f - 2, 1 - 3 f and f. Quadratic (f = u - floor(u + 0.5), in
    [-0.5, 0.5)): nodes i0..i0+2 at offsets -1-f, -f, 1-f, with rows
    0.5 (0.5 - f)^2, 0.75 - f^2 and 0.5 (0.5 + f)^2; derivatives 0.5 - f,
    2 f and -0.5 - f. Each row is evaluated left to right as written
    (3 f^3 as ((3 f) f) f), whichever rows hold intermediates on the way.
    """
    if degree == 2 and deriv == 0:
        # r[1] holds 0.5 - f, then 0.5 + f, before its own row
        for row, half_f in ((r[0], np.subtract), (r[2], np.add)):
            half_f(0.5, f, out=r[1])
            np.multiply(0.5, r[1], out=row)
            row *= r[1]
        np.multiply(f, f, out=r[1])
        np.subtract(0.75, r[1], out=r[1])
    elif degree == 2 and deriv == 1:
        np.subtract(0.5, f, out=r[0])
        np.multiply(2.0, f, out=r[1])
        np.subtract(-0.5, f, out=r[2])
    elif degree == 3 and deriv == 0:
        np.subtract(1.0, f, out=r[3])  # g
        np.multiply(r[3], r[3], out=r[0])
        r[0] *= r[3]
        r[0] /= 6.0
        np.multiply(3.0, f, out=r[1])
        r[1] *= f
        r[1] *= f
        np.multiply(6.0, f, out=r[2])  # 6 f^2
        r[2] *= f
        r[1] -= r[2]
        r[1] += 4.0
        r[1] /= 6.0
        np.multiply(-3.0, f, out=r[2])
        r[2] *= f
        r[2] *= f
        np.multiply(3.0, f, out=r[3])  # 3 f^2, then 3 f
        r[3] *= f
        r[2] += r[3]
        np.multiply(3.0, f, out=r[3])
        r[2] += r[3]
        r[2] += 1.0
        r[2] /= 6.0
        np.multiply(f, f, out=r[3])
        r[3] *= f
        r[3] /= 6.0
    elif degree == 3 and deriv == 1:
        np.subtract(1.0, f, out=r[3])  # g
        np.multiply(0.5, r[3], out=r[0])
        r[0] *= r[3]
        np.multiply(-2.0, r[3], out=r[2])
        np.multiply(1.5, r[3], out=r[1])  # 1.5 g^2
        r[1] *= r[3]
        r[2] += r[1]
        np.multiply(2.0, f, out=r[1])
        np.multiply(1.5, f, out=r[3])  # 1.5 f^2
        r[3] *= f
        r[1] -= r[3]
        np.multiply(-0.5, f, out=r[3])
        r[3] *= f
    elif degree == 3 and deriv == 2:
        np.subtract(1.0, f, out=r[0])
        np.multiply(3.0, f, out=r[1])
        r[1] -= 2.0
        np.multiply(3.0, f, out=r[2])
        np.subtract(1.0, r[2], out=r[2])
        np.copyto(r[3], f)
    else:
        raise ValueError(f"unsupported derivative order {deriv} for degree "
                         f"{degree}")


def support_weights(u, *orders, degree=3):
    """Tap-major 1D weights over the B-spline support of coordinates u.

    Returns (i0, rows...): the first support index, floor(u) - 1 for the
    cubic (degree 3, 4 nodes) and floor(u + 0.5) - 1 for the quadratic
    (degree 2, 3 nodes), and for each derivative order asked for (the
    kernel alone by default) one (degree + 1,) + u.shape array whose row
    o is the kernel (or derivative) at node i0 + o minus u, the same bits
    whether the order is asked for alone or with others, and whatever
    the memory layout of u. All rows are written into one C-ordered
    (len(orders), degree + 1) + u.shape array (`_fill_rows`); the arrays
    returned are its leading slices.
    """
    u = np.asarray(u, dtype=np.float64)
    iu = np.floor(u + 0.5) if degree == 2 else np.floor(u)
    f = u - iu
    orders = orders or (0,)
    rows = np.empty((len(orders), degree + 1) + u.shape)
    for d, r in zip(orders, rows):
        # one 0-d view per row when u is a scalar, so that out= works
        _fill_rows([r[o, ...] for o in range(degree + 1)], f, d, degree)
    return (iu.astype(np.int64) - 1, *rows)


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
