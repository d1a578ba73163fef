"""Hot numeric kernels with two interchangeable lanes.

Every kernel exists twice: a numba ``@njit`` version (``*_numba``) and a
vectorized numpy/LAPACK version (``*_numpy``).  The public names bind to one
lane at import time, selected by the ``FPCASCADE_NUMBA`` environment variable:

    FPCASCADE_NUMBA=auto   use numba when importable (default)
    FPCASCADE_NUMBA=0      force the numpy lane
    FPCASCADE_NUMBA=1      require numba, fail loudly if missing

The tridiagonal solver is a port of LAPACK's ``dgtsv`` (Gaussian elimination
with partial pivoting), so the two lanes produce bit-identical results for the
Crank-Nicolson steps.  The Box-Muller normal generator evaluates log/cos
through libm in the numba lane and through numpy ufuncs in the numpy lane;
those may differ in the last ulp, which is why cross-lane tests on sampled
paths use a tiny tolerance instead of exact equality.

Deterministic random numbers use splitmix64 with random access: the k-th
output of a stream seeded with ``s`` is ``mix64(s + k*GOLDEN)``, so per-path
substreams are independent of how paths are partitioned across workers.
"""

import math
import os

import numpy as np
from scipy.linalg.lapack import dgtsv as _lapack_dgtsv

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53
_S11, _S27, _S30, _S31 = (np.uint64(b) for b in (11, 27, 30, 31))

_flag = os.environ.get("FPCASCADE_NUMBA", "auto").strip().lower()
if _flag in ("0", "off", "false", "no"):
    NUMBA_ENABLED = False
    _numba_required = False
elif _flag in ("1", "on", "true", "yes", "require"):
    NUMBA_ENABLED = True
    _numba_required = True
else:
    NUMBA_ENABLED = True
    _numba_required = False

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False
    if _numba_required:
        raise ImportError(
            "FPCASCADE_NUMBA=1 requires numba, which is not importable"
        )

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco


USE_NUMBA = NUMBA_ENABLED and HAS_NUMBA


def active_lane():
    """Name of the kernel lane selected at import time."""
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# tridiagonal solve (dgtsv port)
# ---------------------------------------------------------------------------


@njit(cache=True)
def _gtsv_inplace(dl, d, du, b):
    """Solve a tridiagonal system by LU with partial pivoting, LAPACK dgtsv style.

    dl, d, du, b are overwritten; the solution ends up in b.
    """
    n = d.shape[0]
    du2 = 0.0
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise ZeroDivisionError("singular tridiagonal matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            if i < n - 2:
                dl[i] = 0.0  # stores du2 slot unused
        else:
            # interchange rows i and i+1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            tmp = d[i + 1]
            d[i + 1] = du[i] - fact * tmp
            du2 = 0.0
            if i < n - 2:
                du2 = du[i + 1]
                du[i + 1] = -fact * du2
            du[i] = tmp
            tmp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = tmp - fact * b[i]
            if i < n - 2:
                dl[i] = du2  # remember second superdiagonal entry
    if d[n - 1] == 0.0:
        raise ZeroDivisionError("singular tridiagonal matrix")
    # back substitution; dl[i] holds the second superdiagonal where pivoted
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def tridiag_solve_numpy(dl, d, du, b):
    """LAPACK dgtsv on copies of the band arrays."""
    _, _, _, x, info = _lapack_dgtsv(dl, d, du, b)
    if info != 0:
        raise ZeroDivisionError("singular tridiagonal matrix")
    return x


def tridiag_solve_numba(dl, d, du, b):
    return _gtsv_inplace(dl.copy(), d.copy(), du.copy(), b.copy())


# ---------------------------------------------------------------------------
# Crank-Nicolson step for the cascade equation
#   ds/dt = D s'' + a(x,t) s' + q,   a = -x/t
# with linear-extrapolation closure s[0] = 2 s[1] - s[2] (and mirrored) that
# pins the second difference at the two boundary columns to zero.
# ---------------------------------------------------------------------------


def _cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar):
    """Band and rhs for the interior unknowns (index 1..n-2), numpy lane."""
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


def cascade_cn_step_numpy(x, tm, d_coeff, dt, dx, s_in, qbar, s_out):
    lower, diag, upper, rhs = _cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar)
    sol = tridiag_solve_numpy(lower, diag, upper, rhs)
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[-1] = 2.0 * sol[-1] - sol[-2]
    return s_out


@njit(cache=True)
def _cascade_cn_step_jit(x, tm, d_coeff, dt, dx, s_in, qbar, s_out):
    n = x.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    lower = np.empty(m - 1)
    diag = np.empty(m)
    upper = np.empty(m - 1)
    rhs = np.empty(m)
    for i in range(1, n - 1):
        beta_i = (-x[i] / tm) * dt / (4.0 * dx)
        rhs[i - 1] = (
            (alpha - beta_i) * s_in[i - 1]
            + (1.0 - 2.0 * alpha) * s_in[i]
            + (alpha + beta_i) * s_in[i + 1]
            + dt * qbar[i]
        )
        diag[i - 1] = 1.0 + 2.0 * alpha
        if i > 1:
            lower[i - 2] = -(alpha - beta_i)
        if i < n - 2:
            upper[i - 1] = -(alpha + beta_i)
    beta_1 = (-x[1] / tm) * dt / (4.0 * dx)
    beta_r = (-x[n - 2] / tm) * dt / (4.0 * dx)
    diag[0] = 1.0 + 2.0 * beta_1
    upper[0] = -2.0 * beta_1
    diag[m - 1] = 1.0 - 2.0 * beta_r
    lower[m - 2] = 2.0 * beta_r
    sol = _gtsv_inplace(lower, diag, upper, rhs)
    for i in range(1, n - 1):
        s_out[i] = sol[i - 1]
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[n - 1] = 2.0 * sol[m - 1] - sol[m - 2]
    return s_out


def cascade_cn_step_numba(x, tm, d_coeff, dt, dx, s_in, qbar, s_out):
    return _cascade_cn_step_jit(x, tm, d_coeff, dt, dx, s_in, qbar, s_out)


# ---------------------------------------------------------------------------
# Crank-Nicolson step for the Fokker-Planck equation in flux form
#   dw/dt = -d/dx(a w) + D w'',  a given at the nx-1 cell interfaces,
#   absorbing (zero) boundary values.
# ---------------------------------------------------------------------------


def fp_cn_step_numpy(a_half, d_coeff, dt, dx, w_in, w_out):
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
    sol = tridiag_solve_numpy(lower, diag, upper, rhs)
    w_out[1:-1] = sol
    w_out[0] = 0.0
    w_out[-1] = 0.0
    return w_out


@njit(cache=True)
def _fp_cn_step_jit(a_half, d_coeff, dt, dx, w_in, w_out):
    n = w_in.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    lower = np.empty(m - 1)
    diag = np.empty(m)
    upper = np.empty(m - 1)
    rhs = np.empty(m)
    for i in range(1, n - 1):
        ar = a_half[i]
        al = a_half[i - 1]
        diag[i - 1] = 1.0 + 2.0 * alpha + g * (ar - al)
        if i < n - 2:
            upper[i - 1] = -(alpha - g * ar)
        if i > 1:
            lower[i - 2] = -(alpha + g * al)
        rhs[i - 1] = (
            (alpha + g * al) * w_in[i - 1]
            + (1.0 - 2.0 * alpha - g * (ar - al)) * w_in[i]
            + (alpha - g * ar) * w_in[i + 1]
        )
    sol = _gtsv_inplace(lower, diag, upper, rhs)
    for i in range(1, n - 1):
        w_out[i] = sol[i - 1]
    w_out[0] = 0.0
    w_out[n - 1] = 0.0
    return w_out


def fp_cn_step_numba(a_half, d_coeff, dt, dx, w_in, w_out):
    return _fp_cn_step_jit(a_half, d_coeff, dt, dx, w_in, w_out)


# ---------------------------------------------------------------------------
# splitmix64 substreams and Box-Muller normals
# ---------------------------------------------------------------------------


def splitmix64_mix_numpy(z):
    """Output function of splitmix64 on uint64 array input."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def path_stream_states_numpy(master_seed, n_paths):
    """Substream state for each path: mix64(master + (p+1)*GOLDEN)."""
    p = np.arange(1, n_paths + 1, dtype=np.uint64)
    return splitmix64_mix_numpy(np.uint64(master_seed) + p * _GOLDEN)


def normals_scratch(size):
    """Work buffers for ``bm_normals`` calls that fill at most ``size`` normals."""
    return np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64), np.empty(size)


def _rows(states, out):
    """``out`` as a (B, n) view: normal k+b of every substream in row b."""
    rows = out if out.ndim == 2 else out[np.newaxis]
    if rows.shape[1] != states.shape[0]:
        raise ValueError(f"out holds {rows.shape[1]} normals per step, expected {states.shape[0]}")
    return rows


def _uniform_bits(states, first, tmp, u):
    """Top 53 bits of stream output ``first + 2b`` of every substream, into row b of u."""
    offsets = np.arange(first, first + 2 * u.shape[0], 2, dtype=np.uint64)
    offsets *= _GOLDEN  # uint64 arrays wrap mod 2**64 like the stream, without a warning
    np.add(states, offsets[:, np.newaxis], out=u)
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(u, shift, out=tmp)
        np.bitwise_xor(u, tmp, out=u)
        np.multiply(u, mult, out=u)
    np.right_shift(u, _S31, out=tmp)
    np.bitwise_xor(u, tmp, out=u)
    np.right_shift(u, _S11, out=u)


def bm_normals_numpy(states, k, out, scratch=None):
    """Normals k, k+1, ... of every substream (Box-Muller, fresh pair each).

    ``out`` of shape (n,) receives normal k; of shape (B, n), row b receives
    normal k+b.  ``scratch`` from ``normals_scratch(out.size)`` or larger is
    reused instead of allocating work arrays on every call.  Each value goes
    through the same operations in the same order as the one-normal formula
    sqrt(-2 log f1) * cos(2 pi f2), so batch size and path grouping leave the
    bits unchanged.
    """
    rows = _rows(states, out)
    if scratch is None:
        scratch = normals_scratch(rows.size)
    u, tmp, f = (buf[: rows.size].reshape(rows.shape) for buf in scratch)
    _uniform_bits(states, 2 * int(k) + 1, tmp, u)
    # the values are below 2**53, so the signed cast is exact, and it is
    # several times faster than numpy's uint64 -> float64 cast
    rows[...] = u.view(np.int64)
    rows += 1.0
    rows *= _U53  # (0, 1]
    np.log(rows, out=rows)
    rows *= -2.0
    np.sqrt(rows, out=rows)
    _uniform_bits(states, 2 * int(k) + 2, tmp, u)
    f[...] = u.view(np.int64)
    f *= _U53  # [0, 1)
    f *= 2.0 * np.pi
    np.cos(f, out=f)
    rows *= f
    return out


@njit(cache=True)
def _bm_normals_jit(states, k, out):
    n = states.shape[0]
    kk = np.uint64(2 * k)
    one = np.uint64(1)
    two = np.uint64(2)
    for i in range(n):
        z1 = states[i] + (kk + one) * _GOLDEN
        z1 = (z1 ^ (z1 >> np.uint64(30))) * _MIX1
        z1 = (z1 ^ (z1 >> np.uint64(27))) * _MIX2
        z1 = z1 ^ (z1 >> np.uint64(31))
        z2 = states[i] + (kk + two) * _GOLDEN
        z2 = (z2 ^ (z2 >> np.uint64(30))) * _MIX1
        z2 = (z2 ^ (z2 >> np.uint64(27))) * _MIX2
        z2 = z2 ^ (z2 >> np.uint64(31))
        f1 = (float(z1 >> np.uint64(11)) + 1.0) * _U53
        f2 = float(z2 >> np.uint64(11)) * _U53
        out[i] = math.sqrt(-2.0 * math.log(f1)) * math.cos(2.0 * math.pi * f2)
    return out


def bm_normals_numba(states, k, out, scratch=None):
    """Same contract as ``bm_normals_numpy``; ``scratch`` is not needed."""
    rows = _rows(states, out)
    # the mod-2**64 wraparound is the stream; without numba the loop runs on
    # numpy scalars, which would warn about it
    with np.errstate(over="ignore"):
        for b in range(rows.shape[0]):
            _bm_normals_jit(states, np.uint64(int(k) + b), rows[b])
    return out


# public bindings for the selected lane
if USE_NUMBA:
    tridiag_solve = tridiag_solve_numba
    cascade_cn_step = cascade_cn_step_numba
    fp_cn_step = fp_cn_step_numba
    bm_normals = bm_normals_numba
else:
    tridiag_solve = tridiag_solve_numpy
    cascade_cn_step = cascade_cn_step_numpy
    fp_cn_step = fp_cn_step_numpy
    bm_normals = bm_normals_numpy

path_stream_states = path_stream_states_numpy
