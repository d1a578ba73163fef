import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    after_call,
    assert_no_child_process,
    builtin_drifts,
    counted_forks,
    example1_density_exact,
    in_children,
    kill_self,
    ou_density_exact,
    singular,
)
from fpcascade import forked, kernels, reference
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.model import NEGATIVITY_FLOOR, DriftSpec, Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV, w0_diffusion
from fpcascade.reference import (
    FD_SUBSTEP_RATIO,
    density_from_samples,
    em_simulate,
    fd_substeps,
    fp_fd_solve,
    oracle_density,
    oracle_law,
)
from fpcascade.transform import potential_exponent

COS = ModulationV("cos", 1.0)
SEED = 20107


def normalized_init(drift, lam, grid, d=1.0):
    w = oracle_density(drift, d, lam, grid.x, grid.t0)
    return w / float(trapezoid(w, grid.dx))


def test_drift_without_closed_forms_has_no_oracle():
    ou = quadratic_ou()
    drift = DriftSpec("custom", ou.u, ou.du_dx, ou.d2u_dx2, ou.du_dt)
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="no closed-form density for drift family 'custom'"):
        oracle_density(drift, 1.0, 0.1, x, 0.5)
    with pytest.raises(ValueError, match="no closed-form density for drift family 'custom'"):
        oracle_law(drift, 0.1, 0.5)
    # lam = 0 is the heat kernel whatever the drift
    assert np.array_equal(oracle_density(drift, 1.0, 0.0, x, 0.5), w0_diffusion(x, 0.5, 1.0))
    assert oracle_law(drift, 0.0, 0.5) == (0.0, 0.5)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    drift=builtin_drifts(),
    lam=st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]), st.floats(-323.0, -12.0)),
    d_coeff=st.floats(0.1, 10.0),
    t=st.floats(0.01, 10.0),
)
def test_tiny_lambda_density_is_the_heat_kernel(drift, lam, d_coeff, t):
    # at |lam| <= 1e-12 the shift |lam Vbar| <= 3e-11 and the quadratic
    # family's relative time change |lam t| <= 1e-11 move the density on 8
    # standard deviations by a relative 1e-8 at most; 1 - exp(-2 lam t)
    # cancels to 0 here, where -expm1 does not, and below about 1e-308
    # (10^-323 is a subnormal) 2 lam t underflows
    x = np.linspace(-8.0, 8.0, 33) * np.sqrt(2.0 * d_coeff * t)
    w = oracle_density(drift, d_coeff, lam, x, t)
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w, w0_diffusion(x, t, d_coeff), rtol=1e-6, atol=0.0)


def test_drift_without_closed_forms_is_solved_from_its_evaluators():
    # FD and the transform read only U_1's four evaluators, so a hand-built
    # drift with the quadratic family's evaluators gives its bits exactly
    ou = quadratic_ou()
    custom = DriftSpec("custom", ou.u, ou.du_dx, ou.d2u_dx2, ou.du_dt)
    grid = Grid(-12.0, 12.0, 241, 0.1, 1.0, 31)
    w_init = normalized_init(ou, 0.3, grid)
    fd = [fp_fd_solve(drift, 1.0, 0.3, grid, w_init).values for drift in (ou, custom)]
    assert fd[0].tobytes() == fd[1].tobytes()
    expo = [potential_exponent(drift, 1.0, 0.3, grid) for drift in (ou, custom)]
    assert expo[0].tobytes() == expo[1].tobytes()


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_init(self, value):
        # a NaN slice passes the sign and mass checks, and an inf one fails
        # the mass check; both are named as non-finite input
        grid = Grid(-8.0, 8.0, 401, 0.1, 1.0, 51)
        with pytest.raises(ValueError, match="initial slice must hold finite values only"):
            fp_fd_solve(zero_drift(), 1.0, 0.0, grid, np.full(401, value))

    def test_narrow_domain_aborts_with_hint(self):
        grid = Grid(-4.0, 4.0, 401, 0.1, 1.0, 101)
        with pytest.raises(SolverError, match="widen the domain"):
            fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))

    def test_non_finite_slice_aborts_at_its_step(self):
        # dU/dx turns NaN after t = 0.5: output step 13 (t = 0.49 to 0.52)
        # takes two substeps, the second at mid time 0.512 with a NaN band, so
        # slice 14 (t = 0.52) is the first NaN slice; a NaN passes the mass
        # and undershoot checks, so only the finiteness check can name it
        ou = quadratic_ou()

        def du_dx(x, t):
            return np.where(np.asarray(t) > 0.5, np.nan, np.asarray(x, dtype=float))

        drift = DriftSpec("custom", ou.u, du_dx, ou.d2u_dx2, ou.du_dt)
        grid = Grid(-12.0, 12.0, 241, 0.1, 1.0, 31)
        with pytest.raises(SolverError, match=r"non-finite values at step 14 \(t=0\.52\)"):
            fp_fd_solve(drift, 1.0, 0.3, grid, normalized_init(ou, 0.3, grid))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    drift=builtin_drifts(),
    d_coeff=st.floats(0.1, 10.0),
    nx=st.integers(81, 161),
    dx=st.floats(0.02, 0.5),
    edge_peclet=st.floats(2.0, 8.0),
    sign=st.sampled_from([1.0, -1.0]),
    step=st.floats(0.02, 0.99),
    nt=st.integers(2, 6),
    width=st.floats(1.0, 4.0),
)
def test_fd_gives_a_density_or_a_solver_abort(drift, d_coeff, nx, dx, edge_peclet, sign, step, nt, width):
    # lam puts the quadratic family's cell Peclet number |lam x| dx / D at
    # edge_peclet >= 2 on the edges, so both sides of the |P| < 2 guard run;
    # every output step is shorter than dx^2 / (6 D), so the scaled mass
    # weights run; the start density is ``width`` nodes wide, and the domain
    # 80-160 nodes
    half = 0.5 * dx * (nx - 1)
    lam = sign * edge_peclet * d_coeff / (dx * half)
    t0 = (width * dx) ** 2 / (2.0 * d_coeff)
    dt = step * dx * dx / (6.0 * d_coeff)
    grid = Grid(-half, half, nx, t0, t0 + (nt - 1) * dt, nt)
    # past |P| = 2 the plain central flux is not positive either, so an
    # undershoot there is an abort, not a fault
    try:
        sol = fp_fd_solve(drift, d_coeff, lam, grid, normalized_init(drift, lam, grid, d=d_coeff))
    except SolverError:
        return
    assert np.abs(trapezoid(sol.values, grid.dx) - 1.0).max() <= reference.FD_MASS_TOL
    assert sol.values.min() >= NEGATIVITY_FLOOR


@pytest.mark.parametrize("step", [0.1, 0.5, 0.9])
def test_short_output_steps_keep_the_density_non_negative(step):
    # output steps of `step` times dx^2 / (6 D) from a start one node wide:
    # with the mass weights scaled by the same factor (kernels.fp_band) the
    # implicit matrix keeps its sign pattern and the explicit
    # one is non-negative, so no value goes below 0; at the full weights this
    # run undershoots to -1.2e-8..-1.4e-8 and aborts
    dx, t0 = 0.1, 0.005
    dt = step * dx * dx / 6.0
    grid = Grid(-8.0, 8.0, 161, t0, t0 + 5 * dt, 6)
    sol = fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))
    assert sol.values.min() >= 0.0


class TestFdAborts:
    """The per-step aborts of fp_fd_solve, each forced at one step of a zero
    drift run that passes every check by itself (t = 0.555 + 0.03 j).  Output
    steps 0 and 1 are longer than ``FD_SUBSTEP_RATIO`` times their start
    time, so each takes two CN steps: CN calls 0-1 make output step 0, calls
    2-3 step 1, and call k >= 4 makes step k - 2."""

    GRID = Grid(-12.0, 12.0, 241, 0.555, 1.455, 31)

    def solve(self):
        return fp_fd_solve(zero_drift(), 1.0, 0.0, self.GRID, normalized_init(zero_drift(), 0.0, self.GRID))

    def test_mass_drift(self, monkeypatch):
        def scale(w_in, band, w_out):
            w_out *= 1.0 + 1e-6

        after_call(monkeypatch, kernels, "fp_cn_step", 7, scale)
        with pytest.raises(SolverError, match=r"^FD mass drift \|1\.000001\d* - 1\| > 1e-08 first at step 6 \(t=0\.735\): mass gained$"):
            self.solve()

    def test_undershoot(self, monkeypatch):
        def dip(w_in, band, w_out):
            w_out[2] = -1e-9  # next to the edge, where the density is about 1e-30

        after_call(monkeypatch, kernels, "fp_cn_step", 7, dip)
        with pytest.raises(SolverError, match=r"^FD undershoot -1\.000e-09 below -1e-12 at step 6; refine the grid$"):
            self.solve()

    def test_singular_step(self, monkeypatch):
        after_call(monkeypatch, kernels, "tridiag_solve", 5, singular)
        with pytest.raises(SolverError, match=r"^FD tridiagonal solve failed at step 3$") as info:
            self.solve()
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_faults_in_a_substep_name_its_output_step(self, monkeypatch):
        # the slice checks run once per output step: a scale after the first
        # substep of output step 1 (call 2) surfaces at slice 2
        def scale(w_in, band, w_out):
            w_out *= 1.0 + 1e-6

        after_call(monkeypatch, kernels, "fp_cn_step", 2, scale)
        with pytest.raises(SolverError, match=r"^FD mass drift \|1\.000001\d* - 1\| > 1e-08 first at step 2 \(t=0\.615\): mass gained$"):
            self.solve()
        monkeypatch.undo()
        after_call(monkeypatch, kernels, "tridiag_solve", 1, singular)
        with pytest.raises(SolverError, match=r"^FD tridiagonal solve failed at step 0$"):
            self.solve()


def _count_cn_steps(monkeypatch):
    calls, real = [], kernels.fp_cn_step

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(kernels, "fp_cn_step", counting)
    return calls


class TestFdSubsteps:
    """The early-time substeps of fp_fd_solve (``reference.fd_substeps``)."""

    def test_short_step_is_one_step_at_its_mid_time(self):
        assert fd_substeps(2.5, 2.55, 0.05, 0.1, 1.0) == [(2.5 + 0.5 * 0.05, 0.05)]
        # 0.05 * 2 is 0.1 exactly: a step of FD_SUBSTEP_RATIO times its start stays whole
        assert FD_SUBSTEP_RATIO * 2.0 == 0.1
        assert fd_substeps(2.0, 2.1, 0.1, 0.1, 1.0) == [(2.05, 0.1)]
        # so does a step no longer than the floor dx^2 / (6 D), whatever its start
        assert fd_substeps(0.01, 0.0115, 0.0015, 0.1, 1.0) == [(0.01 + 0.5 * 0.0015, 0.0015)]

    # dx = 1 at D = 1e305 puts the floor dx^2 / (6 D) at 1.7e-306, below
    # every aim, so these splits are purely geometric
    @pytest.mark.parametrize("t_start, t_end", [(0.05, 0.0975), (0.1, 0.8), (1e-6, 0.05), (1e-300, 1e300)])
    def test_long_step_splits_geometrically(self, t_start, t_end):
        steps = fd_substeps(t_start, t_end, t_end - t_start, 1.0, 1e305)
        mids, lengths = np.array(steps).T
        starts = mids - 0.5 * lengths
        assert len(steps) == math.ceil((math.log(t_end) - math.log(t_start)) / math.log(1.0 + FD_SUBSTEP_RATIO))
        assert mids[0] == t_start + 0.5 * lengths[0] and starts[-1] + lengths[-1] == pytest.approx(t_end, rel=1e-15)
        np.testing.assert_allclose(starts[1:], starts[:-1] + lengths[:-1], rtol=1e-15)
        # exp() of an argument near 700 (at 1e300) has a relative error near 1e-13
        assert (lengths <= FD_SUBSTEP_RATIO * starts * (1.0 + 1e-10)).all()
        # one common ratio
        np.testing.assert_allclose(lengths[1:-1] / lengths[:-2], lengths[1] / lengths[0], rtol=1e-10)

    @pytest.mark.parametrize("t_start, t_end, dx, count", [
        # below the knee h_min / FD_SUBSTEP_RATIO = 0.0333 only (dx 0.1, D 1)
        (1e-3, 0.02, 0.1, 11),
        # 20.0 aims of h_min up to the knee, then 8.3 growing ones: 28.3
        # aims, but 29 substeps would make the first shorter than h_min
        (1e-6, 0.05, 0.1, 28),
        # ou-wide-domain's first output step (dx 0.2): h_min = 0.0067 > 0.05 t
        (0.05, 0.0975, 0.2, 7),
        (1e-300, 1e300, 0.1, 14247),
    ])
    def test_substeps_are_never_shorter_than_the_floor(self, t_start, t_end, dx, count):
        h_min = dx * dx / 6.0
        steps = fd_substeps(t_start, t_end, t_end - t_start, dx, 1.0)
        mids, lengths = np.array(steps).T
        starts = mids - 0.5 * lengths
        assert len(steps) == count
        assert mids[0] == t_start + 0.5 * lengths[0] and starts[-1] + lengths[-1] == pytest.approx(t_end, rel=1e-15)
        assert (lengths >= h_min * (1.0 - 1e-12)).all()
        # within a rounding of the aim max(FD_SUBSTEP_RATIO t, h_min)
        aims = np.maximum(FD_SUBSTEP_RATIO * starts, h_min)
        assert (lengths <= aims * (1.0 + 1.0 / (count - 1))).all()

    def test_acceptance_grid_splits_only_its_early_output_steps(self, monkeypatch):
        # t0 = 0.01, dt = 9e-4: output steps starting before t = dt / 0.05 =
        # 0.018 (j = 0..8) take two CN steps each, every later one a single step
        calls = _count_cn_steps(monkeypatch)
        grid = Grid(-12.0, 12.0, 1601, 0.01, 1.0, 1101)  # criterion 6
        fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))
        assert len(calls) == grid.nt - 1 + 9

    def test_tiny_t0_takes_few_steps(self, monkeypatch):
        # the first output step spans t = 1e-6 to 0.05; equal substeps of at
        # most 0.05 t0 would take a million.  The run counts 20.0 aims of
        # h_min = dx^2 / 6 up to t = 0.0333, then ln(1 / 0.0333) / ln 1.05 =
        # 69.7 growing ones, and each of the 20 output steps rounds its own
        # count up by less than one: at most 109 CN steps
        calls = _count_cn_steps(monkeypatch)
        grid = Grid(-12.0, 12.0, 241, 1e-6, 1.0, 21)
        fp_fd_solve(zero_drift(), 1.0, 0.0, grid, normalized_init(zero_drift(), 0.0, grid))
        assert len(calls) <= 109

    @pytest.mark.parametrize("family, lam, grid, bound", [
        # the two CLI benchmark grids: example1 with the RunConfig defaults,
        # and the OU run of cli_ou_mc_heavy
        ("example1", 0.2, Grid(-24.0, 24.0, 961, 0.05, 5.0, 199), 1.5e-3),
        ("ou", 0.1, Grid(-12.0, 12.0, 241, 0.05, 1.0, 21), 3e-3),
    ])
    def test_cli_benchmark_grids_match_exact(self, family, lam, grid, bound):
        assert _fd_error(family, lam, grid) <= bound

    @pytest.mark.parametrize("family, lam, grid", [
        ("example1", 0.2, Grid(-24.0, 24.0, 961, 0.05, 5.0, 199)),
        ("ou", 0.1, Grid(-12.0, 12.0, 241, 0.05, 1.0, 21)),
    ], ids=["example1-defaults", "ou-w2"])
    def test_cli_benchmark_grids_within_3e_4(self, family, lam, grid):
        # the compact flux's bound on both benchmark grids (9.5e-5 and 7.9e-5)
        assert _fd_error(family, lam, grid) <= 3e-4


_W2_GRID = dict(x_min=-12.0, x_max=12.0, t0=0.05, t_max=1.0, nt=21)  # cli_ou_mc_heavy's grid, but nx


def _fd_solve(family, lam, grid):
    drift = linear_time_modulated(COS) if family == "example1" else zero_drift() if family == "zero" \
        else quadratic_ou()
    return fp_fd_solve(drift, 1.0, lam, grid, normalized_init(drift, lam, grid)).values


def _fd_error(family, lam, grid, values=None):
    """Max-slice L1 distance of FD from the normalized exact density."""
    values = _fd_solve(family, lam, grid) if values is None else values
    exact = np.array([example1_density_exact(grid.x, t, 1.0, lam, COS) if family == "example1"
                      else w0_diffusion(grid.x, t, 1.0) if family == "zero"
                      else ou_density_exact(grid.x, t, 1.0, lam) for t in grid.t])
    exact /= trapezoid(exact, grid.dx)[:, None]
    return float(trapezoid(np.abs(values - exact), grid.dx).max())


def _max_l1(a, b, grid):
    return float(trapezoid(np.abs(a - b), grid.dx).max())


class TestFdOrder:
    """FD's error split into its space and time parts.  The space part is the
    error of a solve whose substep ratio is so small, and whose dx^2 / (6 D)
    floor is lifted, that its time part is under a tenth of it; the time part
    is a solve's distance from such a solve."""

    @pytest.mark.parametrize("family, lam, ratio, most, fall", [
        # fourth order: 3.75e-5 -> 2.25e-6 (16.7x)
        ("zero", 0.0, 0.00125, 1e-4, 10.0),
        ("example1", 0.5, 0.00125, 1e-4, 10.0),
        # a drift varying in x leaves an O(dx^2 a') remainder: 4.6e-5 -> 8.6e-6 (5.3x)
        ("ou", 0.1, 0.0025, 1e-4, 3.0),
    ])
    def test_space_part_refines(self, monkeypatch, family, lam, ratio, most, fall):
        monkeypatch.setattr(kernels, "FD_MIN_STEP", 0.0)
        monkeypatch.setattr(reference, "FD_SUBSTEP_RATIO", ratio)
        coarse, fine = Grid(nx=241, **_W2_GRID), Grid(nx=481, **_W2_GRID)
        values = _fd_solve(family, lam, fine)
        space = [_fd_error(family, lam, coarse), _fd_error(family, lam, fine, values)]
        monkeypatch.setattr(reference, "FD_SUBSTEP_RATIO", ratio / 2)
        # the time part at ``ratio`` is 4/3 of its distance from a solve at half of it
        time_part = 4.0 / 3.0 * _max_l1(values, _fd_solve(family, lam, fine), fine)
        assert time_part <= 0.1 * space[1], (time_part, space)
        assert space[0] <= most and space[0] / space[1] >= fall, space

    @pytest.mark.parametrize("family, lam", [("ou", 0.1), ("example1", 0.5)])
    def test_time_part_falls_with_the_substep_ratio(self, monkeypatch, family, lam):
        # on W2's grid, with the floor in place: 3.7e-4, 9.9e-5, 2.8e-5 at
        # ratios 0.1, 0.05 and 0.025 for OU
        grid = Grid(nx=241, **_W2_GRID)
        monkeypatch.setattr(kernels, "FD_MIN_STEP", 0.0)
        monkeypatch.setattr(reference, "FD_SUBSTEP_RATIO", 0.000625)
        reference_solve = _fd_solve(family, lam, grid)
        monkeypatch.undo()
        parts = []
        for ratio in (0.1, 0.05, 0.025):
            monkeypatch.setattr(reference, "FD_SUBSTEP_RATIO", ratio)
            parts.append(_max_l1(_fd_solve(family, lam, grid), reference_solve, grid))
        assert parts[0] / parts[1] >= 3.0 and parts[1] / parts[2] >= 3.0, parts


def test_cascade_and_fd_do_not_import_numpy_random():
    # only em_simulate draws normals, and numpy.random costs about 6 MB of
    # RSS; run in a fresh interpreter, since another test may have imported it here
    script = (
        "import sys\n"
        "import fpcascade as F\n"
        "from fpcascade.analysis import trapezoid\n"
        "drift, grid = F.quadratic_ou(), F.Grid(-12.0, 12.0, 241, 0.1, 1.0, 31)\n"
        "F.assemble_density(F.solve_expansion(drift, 1.0, 0.3, 2, grid), drift)\n"
        "w = F.reference.oracle_density(drift, 1.0, 0.3, grid.x, grid.t0)\n"
        "F.fp_fd_solve(drift, 1.0, 0.3, grid, w / float(trapezoid(w, grid.dx)))\n"
        "assert 'numpy.random' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(reference.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestEmSimulate:
    def test_wiener_variance_within_3se(self):
        n = 20000
        x = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 1e-3, n, SEED)[0]
        se = 2.0 * np.sqrt(2.0 / (n // 2 - 1))  # over the n/2 mirrored pairs (stream v3)
        assert abs(x.var(ddof=1) - 2.0) <= 3 * se

    def test_ou_variance_within_3se(self):
        n = 20000
        x = em_simulate(quadratic_ou(), 1.0, 0.1, 0.01, [1.0], 1e-3, n, SEED)[0]
        target = 1.8126924692201814
        se = target * np.sqrt(2.0 / (n // 2 - 1))  # over the n/2 mirrored pairs (stream v3)
        assert abs(x.var(ddof=1) - target) <= 3 * se

    def test_same_seed_bitwise(self):
        a = em_simulate(quadratic_ou(), 1.0, 0.1, 0.05, [0.5, 1.0], 2e-3, 500, 7)
        b = em_simulate(quadratic_ou(), 1.0, 0.1, 0.05, [0.5, 1.0], 2e-3, 500, 7)
        assert a.shape == (2, 500)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], 2e-3, 500, 7)
        b = em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], 2e-3, 500, 8)
        assert not np.array_equal(a, b)

    def test_stream_v3_frozen_values(self):
        # numpy does not promise to keep Generator distribution streams fixed
        # across releases (NEP 19); these are the first three normals of
        # block 0 and the first two of block 1 at SEED on numpy 2.4.6.
        # sd0 = sqrt(2 * 0.5 * 1) = 1, so the t0 positions are the normals
        # themselves.  Block 0 draws 2048 and mirrors them into paths
        # 2048-4095; the 3-path tail block draws two and mirrors the first.
        x = em_simulate(zero_drift(), 0.5, 0.0, 1.0, [1.0], 0.1, 4099, SEED)[0]
        head = [0.22768900846720733, -0.5469519682795477, -0.87332237899652]
        assert x[:3].tolist() == head
        assert x[2048:2051].tolist() == [-v for v in head]
        assert x[4096:].tolist() == [0.06535214159510895, -1.8258448055918879, -0.06535214159510895]

    @pytest.mark.parametrize(
        "drift,lam", [(zero_drift(), 0.0), (quadratic_ou(), 0.1), (quadratic_ou(), -0.2)], ids=["zero", "ou", "ou-neg"]
    )
    def test_mirrored_paths_are_bit_exact_negations(self, drift, lam):
        # mean 0 at t0 and a drift odd in x: path lo + h + i is -(path lo + i)
        n = 4096 + 1001
        for x in em_simulate(drift, lam=lam, n_paths=n, **EM_CASE):
            for lo, m in ((0, 4096), (4096, 1001)):
                h = (m + 1) // 2
                block = x[lo : lo + m]
                assert np.array_equal(block[h:].view(np.uint64), np.negative(block[: m - h]).view(np.uint64))

    def test_checkpoints_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0, 0.5], 1e-2, 10, 1)
        with pytest.raises(ValueError, match=">= t0"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [0.01], 1e-2, 10, 1)
        with pytest.raises(ValueError, match="dt"):
            em_simulate(zero_drift(), 1.0, 0.0, 0.05, [1.0], -1e-2, 10, 1)


def _drift_allocating(drift, x, t, lam):
    """D1 = -dU/dx = -(lam U_1') in a fresh array, kept here so that the
    oracle does not move with em_step's work buffer."""
    x = np.asarray(x, dtype=float)
    return -(lam * np.broadcast_to(np.asarray(drift.du_dx(x, t), dtype=float), x.shape))


def _em_one_step_at_a_time(drift, d_coeff, lam, t0, checkpoints, dt, n_paths, seed):
    """Reference for em_simulate: all paths together, one normal per path and
    step; a block of m <= 4096 paths draws ceil(m/2) from its generator and
    appends the negations of the first m - ceil(m/2) (stream v3)."""
    widths = [min(4096, n_paths - lo) for lo in range(0, n_paths, 4096)]
    gens = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))
            for b in range(len(widths))]

    def block_normals(gen, m):
        drawn = gen.standard_normal(-(-m // 2))
        return np.concatenate([drawn, -drawn[: m // 2]])

    def normals():
        return np.concatenate([block_normals(gen, w) for gen, w in zip(gens, widths)])

    mean0, time0 = oracle_law(drift, lam, t0)
    var0 = 2.0 * d_coeff * time0
    xpos = mean0 + np.sqrt(var0) * normals()
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
                z = normals()
                xpos = xpos + _drift_allocating(drift, xpos, t_now, lam) * h + noise_scale * sqrt_h * z
                t_now += h
            t_now = c
        out.append(xpos.copy())
    return out


def _assert_same_bits(positions, expected):
    assert len(positions) == len(expected)
    for a, b in zip(positions, expected):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the first checkpoint takes no step
EM_CASE = dict(d_coeff=1.0, t0=0.02, checkpoints=[0.02, 0.2, 0.35], dt=0.01, seed=SEED)


class TestEmChunking:
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize(
        "drift,lam",
        [(zero_drift(), 0.0), (linear_time_modulated(COS), 0.5), (quadratic_ou(), 0.1)],
        ids=["zero", "example1", "ou"],
    )
    def test_matches_one_step_reference(self, monkeypatch, drift, lam, extra):
        # two chunks start at two blocks; one path more or less crosses a block boundary
        monkeypatch.setattr(reference, "_EM_CHUNKS", 2)
        n = 2 * reference._EM_BLOCK + extra
        positions = em_simulate(drift, lam=lam, n_paths=n, **EM_CASE)
        _assert_same_bits(positions, _em_one_step_at_a_time(drift, lam=lam, n_paths=n, **EM_CASE))

    def test_chunk_count_does_not_change_bits(self, monkeypatch):
        n = 13001
        chunks = []  # [lo, hi) paths of each chunk, as handed to the chunk runner
        run_split = forked.run_split

        def recording(name, work, jobs):
            chunks.extend(jobs)
            return run_split(name, work, jobs)

        monkeypatch.setattr(forked, "run_split", recording)
        results = []
        for n_chunks in (1, 2, 3):
            monkeypatch.setattr(reference, "_EM_CHUNKS", n_chunks)
            chunks.clear()
            results.append(em_simulate(quadratic_ou(), lam=0.1, n_paths=n, **EM_CASE))
            widths = [hi - lo for lo, hi in chunks]
            assert len(widths) == n_chunks and sum(widths) == n
            assert all(w % reference._EM_BLOCK == 0 for w in widths[:-1])
            assert [lo for lo, _ in chunks] == [0, *(hi for _, hi in chunks[:-1])]
        for other in results[1:]:
            _assert_same_bits(other, results[0])


def _raise_in_chunk():
    raise RuntimeError("chunk 1 gave up")


# three chunks (the last an odd 1-path block), so two chunk processes
THREE_CHUNKS = dict(drift=quadratic_ou(), lam=0.1, n_paths=3 * 4096 + 1, **EM_CASE)


@pytest.mark.skipif(not forked.ENABLED, reason="the chunk processes fork on Linux only")
class TestEmChunkProcesses:
    @pytest.fixture(autouse=True)
    def three_chunks(self, monkeypatch):
        monkeypatch.setattr(reference, "_EM_CHUNKS", 3)

    def test_forks_all_but_one_chunk_and_matches_gate_off(self, monkeypatch):
        forks = counted_forks(monkeypatch)
        forked_run = em_simulate(**THREE_CHUNKS)
        assert len(forks) == 2
        assert_no_child_process()
        monkeypatch.setattr(forked, "ENABLED", False)
        _assert_same_bits(em_simulate(**THREE_CHUNKS), forked_run)
        assert len(forks) == 2

    @pytest.mark.parametrize("act, message", [
        (_raise_in_chunk, "RuntimeError: chunk 1 gave up"),
        (kill_self, "killed by signal 9"),
    ], ids=["raises", "killed"])
    def test_failing_chunk_fails_the_run_with_its_message(self, monkeypatch, act, message):
        in_children(monkeypatch, reference, "_em_paths", act)
        with pytest.raises(OSError, match="Monte Carlo chunk process failed: " + re.escape(message)):
            em_simulate(**THREE_CHUNKS)
        assert_no_child_process()

    def test_error_in_own_chunk_kills_every_child(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def stall_in_children_fail_here(*args):
            if os.getpid() != parent:
                (tmp_path / str(os.getpid())).touch()
                time.sleep(60)
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 2:  # fail only once both children are mid-run
                assert time.monotonic() < deadline, "the chunk processes never started"
                time.sleep(0.01)
            raise SolverError("own chunk abort")

        monkeypatch.setattr(reference, "_em_paths", stall_in_children_fail_here)
        began = time.monotonic()
        with pytest.raises(SolverError, match="own chunk abort"):
            em_simulate(**THREE_CHUNKS)
        assert time.monotonic() - began < 30, "the chunk processes were waited for, not killed"
        assert_no_child_process()

    def test_failed_fork_leaves_no_open_fd_and_no_child(self, monkeypatch):
        forks = counted_forks(monkeypatch, fail_from=1)  # the second chunk process cannot fork
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            em_simulate(**THREE_CHUNKS)
        assert len(forks) == 2
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_process()


class TestDensityFromSamples:
    def test_single_node_spike(self):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        w = density_from_samples(np.full((1, 100), grid.x[4]), [1], grid)
        assert w.populated[1] and not w.populated[0]
        assert abs(trapezoid(np.nan_to_num(w.values[1]), grid.dx) - 1.0) <= 1e-12
        assert np.count_nonzero(w.values[1]) == 1

    def test_wiener_histogram_l1(self):
        grid = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)
        positions = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 1e-3, 100000, SEED)
        w = density_from_samples(positions, [1], grid)
        ref = w0_diffusion(grid.x, 1.0, 1.0)
        assert float(trapezoid(np.abs(w.values[1] - ref), grid.dx)) <= 0.02

    def test_halving_error_with_4x_paths(self):
        # mean L1 over seeds drops by ~2 when the path count goes 1e4 -> 4e4
        grid = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)
        ref = w0_diffusion(grid.x, 1.0, 1.0)

        def mean_l1(n):
            vals = []
            for seed in range(5):
                positions = em_simulate(zero_drift(), 1.0, 0.0, 0.01, [1.0], 2e-3, n, seed)
                w = density_from_samples(positions, [1], grid)
                vals.append(float(trapezoid(np.abs(w.values[1] - ref), grid.dx)))
            return np.mean(vals)

        ratio = mean_l1(10000) / mean_l1(40000)
        assert 1.4 <= ratio <= 2.6

    def test_row_count_must_match_slices(self):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        with pytest.raises(ValueError, match="2 rows of positions for 1 slices"):
            density_from_samples(np.zeros((2, 10)), [1], grid)
        with pytest.raises(ValueError, match="1 rows of positions for 2 slices"):
            density_from_samples(np.zeros((1, 10)), [0, 1], grid)

    @pytest.mark.parametrize("slices", [[-1], [2], [1, 0], [1, 1]],
                             ids=["negative", "past-nt", "descending", "repeated"])
    def test_slices_must_be_ascending_node_indices(self, slices):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        with pytest.raises(ValueError, match=r"slices must be ascending, distinct indices in \[0, 2\)"):
            density_from_samples(np.zeros((len(slices), 10)), slices, grid)

    def test_every_sample_off_the_grid_rejected(self):
        # the bins span [x_min - dx/2, x_max + dx/2]; slice 0 keeps its samples
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        positions = np.array([np.zeros(10), np.concatenate([np.full(5, -2.26), np.full(5, 2.26)])])
        with pytest.raises(ValueError, match="^all samples of slice 1 fall outside the grid$"):
            density_from_samples(positions, [0, 1], grid)

    def test_empty_row_rejected(self):
        grid = Grid(-2.0, 2.0, 9, 0.5, 1.0, 2)
        with pytest.raises(ValueError, match="slice 1 holds no samples"):
            density_from_samples(np.zeros((1, 0)), [1], grid)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    grid=st.builds(lambda lo, width, nx, nt: Grid(lo, lo + width, nx, 0.1, 1.0, nt),
                   st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(5, 60), st.integers(2, 8)),
    data=st.data(),
)
def test_histogram_gives_unit_mass_slices_or_a_value_error(grid, data):
    # samples on and off the grid, +-inf and NaN among them: every populated
    # slice is a density of unit trapezoid mass, every other one NaN, and a
    # ValueError is the only other outcome (this suite turns a warning into
    # an error)
    slices = sorted(data.draw(st.sets(st.integers(0, grid.nt - 1), min_size=1)))
    width = grid.x_max - grid.x_min
    sample = st.one_of(st.floats(grid.x_min - width, grid.x_max + width), st.sampled_from([np.inf, -np.inf, np.nan]))
    size = len(slices) * data.draw(st.integers(0, 30))
    positions = np.array(data.draw(st.lists(sample, min_size=size, max_size=size))).reshape(len(slices), -1)
    try:
        w = density_from_samples(positions, slices, grid)
    except ValueError:
        return
    assert np.array_equal(np.flatnonzero(w.populated), slices)
    assert w.values[slices].min() >= 0.0
    np.testing.assert_allclose(trapezoid(w.values[slices], grid.dx), 1.0, rtol=0.0, atol=1e-12)
    assert np.isnan(np.delete(w.values, slices, axis=0)).all()


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
    positions = em_simulate(drift, 1.0, lam, 0.01, [1.0], 2e-3, 100000, SEED)
    hist = density_from_samples(positions, [1], coarse)
    fd_coarse = np.interp(coarse.x, fine.x, sol.values[-1])
    fd_coarse /= float(trapezoid(fd_coarse, coarse.dx))
    l1 = float(trapezoid(np.abs(hist.values[1] - fd_coarse), coarse.dx))
    assert l1 <= 0.03
