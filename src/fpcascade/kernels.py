"""Hot numeric kernels, vectorized with numpy and LAPACK.

The Crank-Nicolson steps assemble their tridiagonal band with array
expressions and solve it with LAPACK ``dgtsv`` (Gaussian elimination with
partial pivoting; the early cascade steps are advection-dominated, so the
band is not diagonally dominant and the pivoting is needed).

Deterministic random numbers use splitmix64 with random access: the k-th
output of a stream seeded with ``s`` is ``mix64(s + k*GOLDEN)``, so per-path
substreams are independent of how paths are partitioned across workers.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv as _lapack_dgtsv

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53
_S11, _S27, _S30, _S31 = (np.uint64(b) for b in (11, 27, 30, 31))

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


# ---------------------------------------------------------------------------
# splitmix64 substreams and Box-Muller normals
# ---------------------------------------------------------------------------


def splitmix64_mix(z):
    """Output function of splitmix64 on uint64 array input."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def path_stream_states(master_seed, n_paths):
    """Substream state for each path: mix64(master + (p+1)*GOLDEN)."""
    p = np.arange(1, n_paths + 1, dtype=np.uint64)
    return splitmix64_mix(np.uint64(master_seed) + p * _GOLDEN)


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


def bm_normals(states, k, out, scratch=None):
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
