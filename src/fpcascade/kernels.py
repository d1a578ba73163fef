"""Hot numeric kernels, vectorized with numpy and LAPACK.

The Crank-Nicolson steps (of the cascade, and of the density equation with
a fourth-order compact flux) take a prebuilt band, assembled with array
expressions, and solve it with LAPACK ``dgtsv`` (Gaussian elimination with
partial pivoting; the early cascade steps are advection-dominated, so the
band is not diagonally dominant and the pivoting is needed).  scipy's
``dgtsv`` works on copies of its inputs, so one band can serve many solves.

``dgtsv`` is the package's only use of scipy, so it is taken straight from
scipy's compiled LAPACK extension ``scipy/linalg/_flapack``, without running
``scipy.linalg``'s package ``__init__``.  That ``__init__`` costs about
0.35 s and 17 MB of resident memory per process (it pulls in scipy's
array-API layer, ``numpy.f2py`` and more); the extension alone loads in
about 8 ms.  It is the same f2py wrapper around the same LAPACK code, and
the module is registered under its own name, so a later
``import scipy.linalg`` reuses it: ``scipy.linalg.lapack.dgtsv`` is then
this module's ``_lapack_dgtsv``.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension, loaded (or taken from
    ``sys.modules``) without importing ``scipy`` or ``scipy.linalg``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    linalg_dir = Path(scipy_spec.submodule_search_locations[0], "linalg")
    spec = FileFinder(str(linalg_dir), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {linalg_dir}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lapack_dgtsv = _load_flapack().dgtsv

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


def cascade_band(x, tm, d_coeff, dt, dx):
    """Band of the cascade step whose half-step time is ``tm``."""
    n = x.shape[0]
    alpha = d_coeff * dt / (2.0 * dx * dx)
    a = -x / tm
    beta = a * dt / (4.0 * dx)
    left = alpha - beta[1:-1]
    right = alpha + beta[1:-1]
    lower = -(alpha - beta[2:-1])  # sub-diagonal for rows 2..n-2
    diag = np.full(n - 2, 1.0 + 2.0 * alpha)
    upper = -(alpha + beta[1:-2])  # super-diagonal for rows 1..n-3
    # fold the extrapolated boundary unknowns into the edge rows
    diag[0] = 1.0 + 2.0 * beta[1]
    upper[0] = -2.0 * beta[1]
    diag[-1] = 1.0 - 2.0 * beta[n - 2]
    lower[-1] = 2.0 * beta[n - 2]
    center = 1.0 - 2.0 * alpha
    return lower, diag, upper, left, center, right


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
#
# The space discretisation is a fourth-order compact flux (docs/method.md,
# section 5): at interface k, with cell Peclet number P = a dx / D,
#   flux    F_k = D_f (w_(k+1) - w_k) / dx - a (w_k + w_(k+1)) / 2,
#   mass    phi_k = alpha w_(k+1) + beta w_k,  (M w)_i = w_i + phi_(i) - phi_(i-1),
# with D_f = 12 D / (12 - P^2), alpha = (12 - 6P - 2P^2) / (12 (12 - P^2)) and
# beta = -(12 + 6P - 2P^2) / (12 (12 - P^2)) where |P| < 2, and the
# second-order flux (alpha = beta = 0, D_f = D) elsewhere.  A step solves
# (M - h/2 L) w+ = (M + h/2 L) w.  The weights sit at the interfaces, so every
# column of M sums to 1 and the trapezoid mass is conserved to rounding.
# ---------------------------------------------------------------------------


# the shortest step, in units of dx^2 / D, on which fp_band keeps the full mass
# weights (on a shorter one their implicit matrix loses its sign pattern), and
# so the shortest substep of reference.fd_substeps
FD_MIN_STEP = 1.0 / 6.0


def fp_band(a_half, d_coeff, dt, dx):
    """Band of one compact-flux step whose interface drift is ``a_half``.

    On a step shorter than ``h_min = FD_MIN_STEP * dx^2 / D`` the mass
    weights alpha and beta are scaled by ``dt / h_min`` (1 gives the
    fourth-order scheme, 0 the lumped mass of the second-order one), which
    keeps the implicit matrix's off-diagonals non-positive."""
    h_min = FD_MIN_STEP * dx * dx / d_coeff
    weight = dt / h_min if dt < h_min else 1.0
    c = d_coeff * dt / (2.0 * dx * dx)
    # an overflowing Peclet number is past the |P| < 2 guard; an inf or NaN
    # drift gives a non-finite band, which fp_fd_solve's slice check names
    with np.errstate(over="ignore", invalid="ignore"):
        p = a_half * (dx / d_coeff)
        inside = np.abs(p) < 2.0
        pc = np.where(inside, p, 0.0)
        q = 12.0 - pc * pc
        k = np.where(inside, weight / (12.0 * q), 0.0)
        m = k * (2.0 * q - 12.0)  # mass weights: alpha = m - n6, beta = -(m + n6)
        n6 = (6.0 * k) * pc
        diff = c * (12.0 / q)  # h/2 times D_f / dx^2
        adv = (0.5 * c) * p  # h/2 times a / (2 dx)
        e = diff - adv  # h/2 L's weight on w_(k+1) from interface k
        f = diff + adv  # and on w_k, with the opposite sign in row k
        pr = (m - n6) + e  # explicit weight on w_(k+1) in row k
        qr = (m - n6) - e  # implicit one
        rl = -(m + n6) - f  # row k+1's explicit weight on w_k, negated
        sl = -(m + n6) + f  # and its implicit one, negated
        lower = -sl[1:-1]
        diag = 1.0 + sl[1:] - qr[:-1]
        upper = qr[1:-1]
        left = -rl[:-1]
        center = 1.0 + rl[1:] - pr[:-1]
        right = pr[1:]
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
