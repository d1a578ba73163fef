"""Hot numeric kernels, vectorized with numpy and LAPACK.

The Crank-Nicolson steps take a prebuilt band, assembled with array
expressions, and solve it with LAPACK ``dgtsv`` (Gaussian elimination with
partial pivoting; the early cascade steps are advection-dominated, so the
band is not diagonally dominant and the pivoting is needed).  scipy's
``dgtsv`` works on copies of its inputs, so one band can serve many solves.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv as _lapack_dgtsv

# ---------------------------------------------------------------------------
# tridiagonal solve
# ---------------------------------------------------------------------------


def tridiag_solve(dl, d, du, b):
    """LAPACK dgtsv on copies of the band arrays."""
    _, _, _, x, info = _lapack_dgtsv(dl, d, du, b)
    if info != 0:
        raise ZeroDivisionError("singular tridiagonal matrix")
    return x


# ---------------------------------------------------------------------------
# Crank-Nicolson step for the cascade equation
#   ds/dt = D s'' + a(x,t) s' + q,   a = -x/t
# with linear-extrapolation closure s[0] = 2 s[1] - s[2] (and mirrored) that
# pins the second difference at the two boundary columns to zero.
#
# A step's system is a band (lower, diag, upper, left, center, right): the
# implicit tridiagonal matrix of the interior unknowns (index 1..n-2) and the
# explicit coefficients applied to the known slice,
#   rhs = left * s[:-2] + center * s[1:-1] + right * s[2:] (+ the source term).
# The cascade band depends on (x, t, D, dt, dx) only, so one band serves every
# cascade order.
# ---------------------------------------------------------------------------


def cascade_bands(x, tm, d_coeff, dt, dx):
    """Bands of the cascade steps whose half-step times are ``tm``, a 1-D
    array, built in one array operation per coefficient: a list with one
    band per step, whose arrays are rows of those 2-D coefficient arrays."""
    n = x.shape[0]
    alpha = d_coeff * dt / (2.0 * dx * dx)
    a = -x / tm[:, None]
    beta = a * dt / (4.0 * dx)
    left = alpha - beta[:, 1:-1]
    right = alpha + beta[:, 1:-1]
    lower = -(alpha - beta[:, 2:-1])  # sub-diagonal for rows 2..n-2
    diag = np.full((len(tm), n - 2), 1.0 + 2.0 * alpha)
    upper = -(alpha + beta[:, 1:-2])  # super-diagonal for rows 1..n-3
    # fold the extrapolated boundary unknowns into the edge rows
    diag[:, 0] = 1.0 + 2.0 * beta[:, 1]
    upper[:, 0] = -2.0 * beta[:, 1]
    diag[:, -1] = 1.0 - 2.0 * beta[:, n - 2]
    lower[:, -1] = 2.0 * beta[:, n - 2]
    center = 1.0 - 2.0 * alpha
    return [(lower[j], diag[j], upper[j], left[j], center, right[j]) for j in range(len(tm))]


def cascade_cn_step(s_in, band, dq, s_out):
    """One step from ``s_in`` to ``s_out`` on ``band``; ``dq`` is dt times
    the source averaged over the step."""
    lower, diag, upper, left, center, right = band
    rhs = left * s_in[:-2] + center * s_in[1:-1] + right * s_in[2:] + dq[1:-1]
    sol = tridiag_solve(lower, diag, upper, rhs)
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[-1] = 2.0 * sol[-1] - sol[-2]
    return s_out


# ---------------------------------------------------------------------------
# Crank-Nicolson step for the Fokker-Planck equation in flux form
#   dw/dt = -d/dx(a w) + D w'',  a given at the nx-1 cell interfaces,
#   absorbing (zero) boundary values.  Same band layout as the cascade step.
# ---------------------------------------------------------------------------


def fp_band(a_half, d_coeff, dt, dx):
    """Band of one step whose interface drift is ``a_half``."""
    n = a_half.shape[0] + 1
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    ar = a_half[1:]  # right interface of rows 1..n-2
    al = a_half[:-1]  # left interface of rows 1..n-2
    diag = np.full(n - 2, 1.0 + 2.0 * alpha) + g * (ar - al)
    upper = -(alpha - g * ar[:-1])
    lower = -(alpha + g * al[1:])
    left = alpha + g * al
    center = 1.0 - 2.0 * alpha - g * (ar - al)
    right = alpha - g * ar
    return lower, diag, upper, left, center, right


def fp_cn_step(w_in, band, w_out):
    """One step from ``w_in`` to ``w_out`` on ``band`` (see fp_band)."""
    lower, diag, upper, left, center, right = band
    rhs = left * w_in[:-2] + center * w_in[1:-1] + right * w_in[2:]
    sol = tridiag_solve(lower, diag, upper, rhs)
    w_out[1:-1] = sol
    w_out[0] = 0.0
    w_out[-1] = 0.0
    return w_out
