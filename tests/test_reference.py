import numpy as np
import pytest

from fpcascade import kernels, reference
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV, example1_density_exact, ou_density_exact, w0_diffusion
from fpcascade.reference import (
    SampleEnsemble,
    density_from_samples,
    em_simulate,
    fp_fd_solve,
    oracle_density,
    oracle_moments,
)

COS = ModulationV("cos", 1.0)
SEED = 20107


def normalized_init(drift, lam, grid, d=1.0):
    w = oracle_density(drift, d, lam, grid.x, grid.t0)
    return w / float(trapezoid(w, grid.dx))


class TestFdSolver:
    def test_zero_drift_matches_heat_kernel(self):
        grid = Grid(-12.0, 12.0, 1601, 0.1, 1.0, 451)
        sol = fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))
        ref = w0_diffusion(grid.x, 1.0, 1.0)
        assert float(trapezoid(np.abs(sol.values[-1] - ref), grid.dx)) <= 1e-4

    def test_ou_matches_exact(self):
        grid = Grid(-12.0, 12.0, 1201, 0.01, 1.0, 801)
        drift = quadratic_ou()
        sol = fp_fd_solve(drift, 1.0, 0.1, grid, normalized_init(drift, 0.1, grid))
        ref = ou_density_exact(grid.x, 1.0, 1.0, 0.1)
        assert float(trapezoid(np.abs(sol.values[-1] - ref), grid.dx)) <= 1e-3

    def test_example1_matches_exact_at_t2(self):
        grid = Grid(-16.0, 16.0, 1601, 0.05, 2.0, 601)
        drift = linear_time_modulated(COS)
        sol = fp_fd_solve(drift, 1.0, 0.5, grid, normalized_init(drift, 0.5, grid))
        ref = example1_density_exact(grid.x, 2.0, 1.0, 0.5, COS)
        assert float(trapezoid(np.abs(sol.values[-1] - ref), grid.dx)) <= 1e-3

    def test_mass_conserved_throughout(self):
        grid = Grid(-12.0, 12.0, 801, 0.05, 1.0, 301)
        drift = quadratic_ou()
        sol = fp_fd_solve(drift, 1.0, 0.1, grid, normalized_init(drift, 0.1, grid))
        masses = trapezoid(sol.values, grid.dx)
        assert np.abs(masses - 1.0).max() <= 1e-8
        assert sol.values.min() >= -1e-12

    def test_rejects_bad_init(self):
        grid = Grid(-8.0, 8.0, 401, 0.1, 1.0, 51)
        good = normalized_init(zero_drift(), 0.0, grid)
        with pytest.raises(ValueError, match="unit"):
            fp_fd_solve(zero_drift(), 1.0, 0.0, grid, 2.0 * good)
        bad = good.copy()
        bad[3] = -0.01
        with pytest.raises(ValueError, match="non-negative"):
            fp_fd_solve(zero_drift(), 1.0, 0.0, grid, bad)

    def test_narrow_domain_aborts_with_hint(self):
        grid = Grid(-4.0, 4.0, 401, 0.1, 1.0, 101)
        with pytest.raises(SolverError, match="widen the domain"):
            fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))


class TestEmSimulate:
    def test_wiener_variance_within_3se(self):
        n = 20000
        ens = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 1e-3, n, SEED)
        x = ens.positions[0]
        se = 2.0 * np.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 2.0) <= 3 * se

    def test_ou_variance_within_3se(self):
        n = 20000
        ens = em_simulate(quadratic_ou(), 1.0, 0.1, 0.01, [1.0], 1e-3, n, SEED)
        x = ens.positions[0]
        target = 1.8126924692201814
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - target) <= 3 * se

    def test_same_seed_bitwise(self):
        a = em_simulate(quadratic_ou(), 1.0, 0.1, 0.05, [0.5, 1.0], 2e-3, 500, 7)
        b = em_simulate(quadratic_ou(), 1.0, 0.1, 0.05, [0.5, 1.0], 2e-3, 500, 7)
        for pa, pb in zip(a.positions, b.positions):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], 2e-3, 500, 7)
        b = em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], 2e-3, 500, 8)
        assert not np.array_equal(a.positions[0], b.positions[0])

    def test_checkpoints_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0, 0.5], 1e-2, 10, 1)
        with pytest.raises(ValueError, match=">= t0"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [0.01], 1e-2, 10, 1)
        with pytest.raises(ValueError, match="dt"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], -1e-2, 10, 1)


def _em_one_step_at_a_time(drift, d_coeff, lam, t0, checkpoints, dt, n_paths, seed):
    """Reference for em_simulate: all paths together, one normal per step."""
    states = kernels.path_stream_states(seed, n_paths)
    z = np.empty(n_paths)
    k = 0
    kernels.bm_normals(states, k, z)
    k += 1
    mean0, var0 = oracle_moments(drift, d_coeff, lam, t0)
    xpos = mean0 + np.sqrt(var0) * z
    noise_scale = np.sqrt(2.0 * d_coeff)
    out = []
    t_now = t0
    for c in checkpoints:
        span = c - t_now
        if span > 0:
            n_steps = max(int(np.ceil(span / dt - 1e-12)), 1)
            h = span / n_steps
            sqrt_h = np.sqrt(h)
            for _ in range(n_steps):
                kernels.bm_normals(states, k, z)
                k += 1
                xpos = xpos + drift.drift_coefficient(xpos, t_now, lam) * h + noise_scale * sqrt_h * z
                t_now += h
            t_now = c
        out.append(xpos.copy())
    return out


def _assert_same_bits(positions, expected):
    assert len(positions) == len(expected)
    for a, b in zip(positions, expected):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the first checkpoint takes no step; the steps overrun the normal batches
EM_CASE = dict(d_coeff=1.0, t0=0.02, checkpoints=[0.02, 0.2, 0.35], dt=0.01, seed=SEED)


class TestEmChunking:
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize(
        "drift,lam",
        [(zero_drift(), 0.0), (linear_time_modulated(COS), 0.5), (quadratic_ou(), 0.1)],
        ids=["zero", "example1", "ou"],
    )
    def test_matches_one_step_reference(self, monkeypatch, drift, lam, extra):
        # two chunks start at twice the minimum chunk size
        monkeypatch.setattr(reference, "_EM_CHUNKS", 2)
        n = 2 * reference._EM_MIN_CHUNK + extra
        ens = em_simulate(drift, lam=lam, n_paths=n, **EM_CASE)
        _assert_same_bits(ens.positions, _em_one_step_at_a_time(drift, lam=lam, n_paths=n, **EM_CASE))

    def test_chunk_count_does_not_change_bits(self, monkeypatch):
        n = 13001
        first_draws = []  # width of each chunk, from its initial draw
        draw = kernels.bm_normals

        def recording(states, k, out, scratch=None):
            if k == 0:
                first_draws.append(len(states))
            return draw(states, k, out, scratch)

        monkeypatch.setattr(kernels, "bm_normals", recording)
        results = []
        for n_chunks in (1, 2, 3):
            monkeypatch.setattr(reference, "_EM_CHUNKS", n_chunks)
            first_draws.clear()
            results.append(em_simulate(quadratic_ou(), lam=0.1, n_paths=n, **EM_CASE).positions)
            assert len(first_draws) == n_chunks and sum(first_draws) == n
        for other in results[1:]:
            _assert_same_bits(other, results[0])


class TestDensityFromSamples:
    def test_single_node_spike(self):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        ens = SampleEnsemble(checkpoints=(1.0,), positions=(np.full(100, grid.x[4]),), seed=0)
        w = density_from_samples(ens, grid)
        assert w.populated[1] and not w.populated[0]
        assert abs(trapezoid(np.nan_to_num(w.values[1]), grid.dx) - 1.0) <= 1e-12
        assert np.count_nonzero(w.values[1]) == 1

    def test_wiener_histogram_l1(self):
        grid = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)
        ens = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 1e-3, 100000, SEED)
        w = density_from_samples(ens, grid)
        ref = w0_diffusion(grid.x, 1.0, 1.0)
        assert float(trapezoid(np.abs(w.values[1] - ref), grid.dx)) <= 0.02

    def test_halving_error_with_4x_paths(self):
        # mean L1 over seeds drops by ~2 when the path count goes 1e4 -> 4e4
        grid = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)
        ref = w0_diffusion(grid.x, 1.0, 1.0)

        def mean_l1(n):
            vals = []
            for seed in range(5):
                ens = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 2e-3, n, seed)
                w = density_from_samples(ens, grid)
                vals.append(float(trapezoid(np.abs(w.values[1] - ref), grid.dx)))
            return np.mean(vals)

        ratio = mean_l1(10000) / mean_l1(40000)
        assert 1.4 <= ratio <= 2.6

    def test_checkpoint_off_grid_rejected(self):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        ens = SampleEnsemble(checkpoints=(0.7,), positions=(np.zeros(10),), seed=0)
        with pytest.raises(ValueError, match="time node"):
            density_from_samples(ens, grid)

    def test_mismatched_checkpoint_lengths_rejected(self):
        with pytest.raises(ValueError, match="paths"):
            SampleEnsemble(checkpoints=(0.5, 1.0), positions=(np.zeros(4), np.zeros(5)), seed=0)


@pytest.mark.parametrize(
    "drift,lam",
    [(zero_drift(), 0.0), (linear_time_modulated(COS), 0.5), (quadratic_ou(), 0.1)],
    ids=["zero", "example1", "ou"],
)
def test_fd_and_mc_agree(drift, lam):
    # the two references agree with each other: histogram L1 <= 0.03
    coarse = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)
    fine = Grid(-12.0, 12.0, 1201, 0.01, 1.0, 801)
    sol = fp_fd_solve(drift, 1.0, lam, fine, normalized_init(drift, lam, fine))
    ens = em_simulate(drift, 1.0, lam, 0.01, [1.0], 2e-3, 100000, SEED)
    hist = density_from_samples(ens, coarse)
    fd_coarse = np.interp(coarse.x, fine.x, sol.values[-1])
    fd_coarse /= float(trapezoid(fd_coarse, coarse.dx))
    l1 = float(trapezoid(np.abs(hist.values[1] - fd_coarse), coarse.dx))
    assert l1 <= 0.03
