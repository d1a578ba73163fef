"""Hot numeric kernels, vectorized with numpy and LAPACK.

The Crank-Nicolson steps assemble their tridiagonal band with array
expressions and solve it with LAPACK ``dgtsv`` (Gaussian elimination with
partial pivoting; the early cascade steps are advection-dominated, so the
band is not diagonally dominant and the pivoting is needed).
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
# ---------------------------------------------------------------------------


def _cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar):
    """Band and rhs for the interior unknowns (index 1..n-2)."""
    n = x.shape[0]
    alpha = d_coeff * dt / (2.0 * dx * dx)
    a = -x / tm
    beta = a * dt / (4.0 * dx)
    # explicit half-step applied to the known slice
    rhs = (
        (alpha - beta[1:-1]) * s_in[:-2]
        + (1.0 - 2.0 * alpha) * s_in[1:-1]
        + (alpha + beta[1:-1]) * s_in[2:]
        + dt * qbar[1:-1]
    )
    lower = -(alpha - beta[2:-1])  # sub-diagonal for rows 2..n-2
    diag = np.full(n - 2, 1.0 + 2.0 * alpha)
    upper = -(alpha + beta[1:-2])  # super-diagonal for rows 1..n-3
    # fold the extrapolated boundary unknowns into the edge rows
    diag[0] = 1.0 + 2.0 * beta[1]
    upper[0] = -2.0 * beta[1]
    diag[-1] = 1.0 - 2.0 * beta[n - 2]
    lower[-1] = 2.0 * beta[n - 2]
    return lower, diag, upper, rhs


def cascade_cn_step(x, tm, d_coeff, dt, dx, s_in, qbar, s_out):
    lower, diag, upper, rhs = _cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar)
    sol = tridiag_solve(lower, diag, upper, rhs)
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[-1] = 2.0 * sol[-1] - sol[-2]
    return s_out


# ---------------------------------------------------------------------------
# Crank-Nicolson step for the Fokker-Planck equation in flux form
#   dw/dt = -d/dx(a w) + D w'',  a given at the nx-1 cell interfaces,
#   absorbing (zero) boundary values.
# ---------------------------------------------------------------------------


def fp_cn_step(a_half, d_coeff, dt, dx, w_in, w_out):
    n = w_in.shape[0]
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    ar = a_half[1:]  # right interface of rows 1..n-2
    al = a_half[:-1]  # left interface of rows 1..n-2
    diag = np.full(n - 2, 1.0 + 2.0 * alpha) + g * (ar - al)
    upper = -(alpha - g * ar[:-1])
    lower = -(alpha + g * al[1:])
    rhs = (
        (alpha + g * al) * w_in[:-2]
        + (1.0 - 2.0 * alpha - g * (ar - al)) * w_in[1:-1]
        + (alpha - g * ar) * w_in[2:]
    )
    sol = tridiag_solve(lower, diag, upper, rhs)
    w_out[1:-1] = sol
    w_out[0] = 0.0
    w_out[-1] = 0.0
    return w_out
