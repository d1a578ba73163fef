import numpy as np
import pytest

import fpcascade.kernels as K


def test_active_lane_is_known():
    assert K.active_lane() in ("numba", "numpy")


class TestTridiag:
    def test_matches_lapack_bitwise(self):
        # includes non-diagonally-dominant systems, where pivoting matters
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 80))
            dl = rng.normal(size=n - 1) * 10.0 ** float(rng.integers(-2, 3))
            d = rng.normal(size=n)
            du = rng.normal(size=n - 1) * 10.0 ** float(rng.integers(-2, 3))
            b = rng.normal(size=n)
            assert np.array_equal(
                K.tridiag_solve_numpy(dl, d, du, b), K.tridiag_solve_numba(dl, d, du, b)
            )

    def test_solves_reference_system(self):
        rng = np.random.default_rng(3)
        n = 50
        dl, d, du = rng.normal(size=n - 1), rng.normal(size=n) + 4.0, rng.normal(size=n - 1)
        x_true = rng.normal(size=n)
        a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        b = a @ x_true
        for solve in (K.tridiag_solve_numpy, K.tridiag_solve_numba):
            assert np.abs(solve(dl, d, du, b) - x_true).max() <= 1e-11

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            K.tridiag_solve_numba(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


class TestStepKernels:
    def test_cascade_step_cross_lane_bitwise(self):
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        s = np.sin(x) + 0.1 * x * x
        q = np.cos(x)
        out_np, out_nb = np.empty_like(x), np.empty_like(x)
        K.cascade_cn_step_numpy(x, 0.015, 1.0, 0.01, dx, s, q, out_np)
        K.cascade_cn_step_numba(x, 0.015, 1.0, 0.01, dx, s, q, out_nb)
        assert np.array_equal(out_np, out_nb)

    def test_fp_step_cross_lane_bitwise(self):
        x = np.linspace(-10, 10, 801)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        a_half = -0.1 * (x[:-1] + dx / 2)
        out_np, out_nb = np.empty_like(x), np.empty_like(x)
        K.fp_cn_step_numpy(a_half, 1.0, 1e-3, dx, w, out_np)
        K.fp_cn_step_numba(a_half, 1.0, 1e-3, dx, w, out_nb)
        assert np.array_equal(out_np, out_nb)

    def test_fp_step_conserves_interior_flux_balance(self):
        # with zero drift and symmetric data the step keeps symmetry
        x = np.linspace(-8, 8, 401)
        dx = x[1] - x[0]
        w = np.exp(-x * x)
        w[0] = w[-1] = 0.0
        out = np.empty_like(x)
        K.fp_cn_step_numpy(np.zeros(len(x) - 1), 1.0, 1e-3, dx, w, out)
        assert np.allclose(out, out[::-1], atol=1e-15)


def _bm_normals_formula(states, k):
    """Normal k of every substream, written out as one allocating expression."""
    mask = (1 << 64) - 1
    golden = int(K._GOLDEN)
    off1 = np.uint64(((2 * int(k) + 1) * golden) & mask)
    off2 = np.uint64(((2 * int(k) + 2) * golden) & mask)
    u1 = K.splitmix64_mix_numpy(states + off1)
    u2 = K.splitmix64_mix_numpy(states + off2)
    f1 = ((u1 >> np.uint64(11)).astype(np.float64) + 1.0) * K._U53
    f2 = (u2 >> np.uint64(11)).astype(np.float64) * K._U53
    return np.sqrt(-2.0 * np.log(f1)) * np.cos(2.0 * np.pi * f2)


def _bits(a):
    return a.view(np.uint64)


class TestNormals:
    def test_cross_lane_agreement(self):
        states = K.path_stream_states(12345, 20000)
        z_np, z_nb = np.empty(20000), np.empty(20000)
        K.bm_normals_numpy(states, 3, z_np)
        K.bm_normals_numba(states, 3, z_nb)
        # libm vs numpy ufunc log/cos may differ in the last ulp
        assert np.abs(z_np - z_nb).max() <= 1e-12
        rows_np, rows_nb = np.empty((3, 64)), np.empty((3, 64))
        K.bm_normals_numpy(states[:64], 3, rows_np)
        K.bm_normals_numba(states[:64], 3, rows_nb)
        assert np.abs(rows_np - rows_nb).max() <= 1e-12
        assert np.array_equal(rows_np[0], z_np[:64])

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
        K.bm_normals_numpy(states, 2**40, rows)
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
    out = K.splitmix64_mix_numpy(np.array([golden, (2 * golden) & mask], dtype=np.uint64))
    assert out[0] == np.uint64(0xE220A8397B1DCDAF)
    assert out[1] == np.uint64(0x6E789E6AA1B965F4)
