import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

import fpcascade.kernels as K


def _lapack_solve(lower, diag, upper, rhs):
    _, _, _, sol, info = dgtsv(lower, diag, upper, rhs)
    assert info == 0
    return sol


def _cascade_step_loop(x, tm, d_coeff, dt, dx, s_in, qbar):
    """The cascade CN step with its band assembled one row at a time."""
    n = x.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    lower, diag, upper, rhs = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)
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
    # the extrapolated boundary unknowns folded into the edge rows
    beta_1 = (-x[1] / tm) * dt / (4.0 * dx)
    beta_r = (-x[n - 2] / tm) * dt / (4.0 * dx)
    diag[0] = 1.0 + 2.0 * beta_1
    upper[0] = -2.0 * beta_1
    diag[m - 1] = 1.0 - 2.0 * beta_r
    lower[m - 2] = 2.0 * beta_r
    sol = _lapack_solve(lower, diag, upper, rhs)
    s_out = np.empty(n)
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[n - 1] = 2.0 * sol[m - 1] - sol[m - 2]
    return s_out


def _fp_step_loop(a_half, d_coeff, dt, dx, w_in):
    """The flux-form FP CN step with its band assembled one row at a time."""
    n = w_in.shape[0]
    m = n - 2
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    lower, diag, upper, rhs = np.empty(m - 1), np.empty(m), np.empty(m - 1), np.empty(m)
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
    w_out = np.zeros(n)
    w_out[1:-1] = _lapack_solve(lower, diag, upper, rhs)
    return w_out


def _bits(a):
    return a.view(np.uint64)


class TestTridiag:
    def test_solves_reference_system(self):
        # the second system has a near-zero diagonal; elimination without row
        # interchanges leaves a residual near 1e-8 and an error near 1e-6 on it
        for scale, shift in ((1.0, 4.0), (1e-9, 0.0)):
            rng = np.random.default_rng(3)
            n = 50
            dl, d, du = rng.normal(size=n - 1), scale * rng.normal(size=n) + shift, rng.normal(size=n - 1)
            x_true = rng.normal(size=n)
            a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
            b = a @ x_true
            x = K.tridiag_solve(dl, d, du, b)
            assert np.abs(a @ x - b).max() <= 1e-13
            assert np.abs(x - x_true).max() <= 1e-15 * np.linalg.cond(a)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            K.tridiag_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


class TestStepKernels:
    def test_cascade_step_matches_loop_oracle_bitwise(self):
        # small tm makes the early steps advection-dominated (|beta| >> alpha)
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        s = np.sin(x) + 0.1 * x * x
        q = np.cos(x)
        for tm in (0.0105, 0.05, 0.5, 3.0):
            for dt in (0.01, 0.002):
                out = K.cascade_cn_step(x, tm, 1.0, dt, dx, s, q, np.empty_like(x))
                assert np.array_equal(_bits(out), _bits(_cascade_step_loop(x, tm, 1.0, dt, dx, s, q)))

    def test_fp_step_matches_loop_oracle_bitwise(self):
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        for lam in (0.0, -0.1, 0.3):
            a_half = -lam * (x[:-1] + dx / 2)
            out = K.fp_cn_step(a_half, 1.0, 1e-3, dx, w, np.empty_like(x))
            assert np.array_equal(_bits(out), _bits(_fp_step_loop(a_half, 1.0, 1e-3, dx, w)))

    def test_fp_step_conserves_interior_flux_balance(self):
        # with zero drift and symmetric data the step keeps symmetry
        x = np.linspace(-8, 8, 401)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        out = np.empty_like(x)
        K.fp_cn_step(np.zeros(len(x) - 1), 1.0, 1e-3, dx, w, out)
        assert np.allclose(out, out[::-1], atol=1e-15)


def _bm_normals_formula(states, k):
    """Normal k of every substream, written out as one allocating expression."""
    mask = (1 << 64) - 1
    golden = int(K._GOLDEN)
    off1 = np.uint64(((2 * int(k) + 1) * golden) & mask)
    off2 = np.uint64(((2 * int(k) + 2) * golden) & mask)
    u1 = K.splitmix64_mix(states + off1)
    u2 = K.splitmix64_mix(states + off2)
    f1 = ((u1 >> np.uint64(11)).astype(np.float64) + 1.0) * K._U53
    f2 = (u2 >> np.uint64(11)).astype(np.float64) * K._U53
    return np.sqrt(-2.0 * np.log(f1)) * np.cos(2.0 * np.pi * f2)


class TestNormals:
    # path counts around the SIMD widths, so vector tails are exercised
    @pytest.mark.parametrize("n", [1, 7, 4095, 4097, 10001])
    def test_batched_rows_equal_single_calls(self, n):
        states = K.path_stream_states(31, n)
        rows = np.empty((5, n))
        K.bm_normals(states, 1000, rows, K.normals_scratch(6 * n))
        for b in range(5):
            z = np.empty(n)
            K.bm_normals(states, 1000 + b, z)
            assert np.array_equal(_bits(rows[b]), _bits(z))

    @pytest.mark.parametrize("n", [1, 7, 4097])
    def test_matches_one_normal_formula(self, n):
        states = K.path_stream_states(8, n)
        rows = np.empty((3, n))
        K.bm_normals(states, 2**40, rows)
        for b in range(3):
            assert np.array_equal(_bits(rows[b]), _bits(_bm_normals_formula(states, 2**40 + b)))

    def test_noncontiguous_out_is_written(self):
        states = K.path_stream_states(3, 100)
        z = np.zeros((100, 2))
        K.bm_normals(states, 4, z[:, 1])
        assert np.array_equal(_bits(z[:, 1]), _bits(_bm_normals_formula(states, 4)))
        assert not z[:, 0].any()

    def test_within_lane_deterministic(self):
        states = K.path_stream_states(99, 1000)
        z1, z2 = np.empty(1000), np.empty(1000)
        K.bm_normals(states, 7, z1)
        K.bm_normals(states, 7, z2)
        assert np.array_equal(z1, z2)

    def test_moments(self):
        states = K.path_stream_states(2024, 200000)
        z = np.empty(200000)
        K.bm_normals(states, 0, z)
        assert abs(z.mean()) <= 0.01
        assert abs(z.var() - 1.0) <= 0.02
        assert np.all(np.isfinite(z))

    def test_partition_independence(self):
        # normals of a path depend only on (seed, path index), not the batch
        full = K.path_stream_states(5, 1000)
        lo = K.path_stream_states(5, 400)
        z_full, z_lo = np.empty(1000), np.empty(400)
        K.bm_normals(full, 2, z_full)
        K.bm_normals(lo, 2, z_lo)
        assert np.array_equal(z_full[:400], z_lo)

    def test_distinct_streams(self):
        states = K.path_stream_states(5, 10000)
        assert len(np.unique(states)) == 10000


def test_splitmix_mix_reference_values():
    # first outputs of the reference splitmix64 stream seeded with 0
    golden = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    out = K.splitmix64_mix(np.array([golden, (2 * golden) & mask], dtype=np.uint64))
    assert out[0] == np.uint64(0xE220A8397B1DCDAF)
    assert out[1] == np.uint64(0x6E789E6AA1B965F4)
