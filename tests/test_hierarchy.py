import numpy as np
import pytest

from conftest import (after_call, cascade_residual, example1_density_exact, ou_density_exact, ou_density_pert,
                      ou_s2, sample_density, singular)
from fpcascade import kernels
from fpcascade.analysis import field_distance, trapezoid
from fpcascade.errors import SolverError
from fpcascade.hierarchy import _gradient, _source_arrays, analytic_expansion, assemble_density, solve_expansion
from fpcascade.model import ActionExpansion, DriftSpec, Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV, example1_action, ou_action, s0_log_heat_kernel, w0_diffusion

COS = ModulationV("cos", 1.0)


def lattice(grid, fn):
    return np.array([fn(grid.x, tj) for tj in grid.t])


class TestS0:
    def test_frozen_values_and_symmetry(self):
        grid = Grid(-10.0, 10.0, 401, 0.25, 2.5, 10)
        s0 = analytic_expansion(zero_drift(), 1.0, 0.0, 0, grid).action_sum()
        j = np.argmin(np.abs(grid.t - 1.0))
        i = np.argmin(np.abs(grid.x))
        assert grid.t[j] == 1.0 and grid.x[i] == 0.0
        assert s0[j, i] == pytest.approx(-1.2655121234846454, rel=1e-14)
        i2 = np.argmin(np.abs(grid.x - 2.0))
        assert s0[j, i2] == pytest.approx(-2.2655121234846454, rel=1e-14)
        # even in x: mirrored nodes agree up to the fp asymmetry of the nodes
        assert np.allclose(s0, s0[:, ::-1], rtol=0, atol=1e-11)
        assert np.array_equal(
            s0_log_heat_kernel(grid.x, 1.0, 1.0), s0_log_heat_kernel(-grid.x, 1.0, 1.0)
        )

    def test_exp_s0_unit_mass_per_slice(self):
        grid = Grid(-14.0, 14.0, 1401, 0.05, 2.0, 11)
        s0 = analytic_expansion(zero_drift(), 1.0, 0.0, 0, grid).action_sum()
        masses = trapezoid(np.exp(s0 / 1.0), grid.dx)
        assert np.abs(masses - 1.0).max() <= 1e-10


class TestCascadeSource:
    """The order-n source the march consumes, from _source_arrays with the x
    gradients of injected lower orders."""

    def test_order1_is_pure_potential_term(self, small_grid):
        src = _source_arrays(1, quadratic_ou(), 1.0, small_grid.x, small_grid.t[:, None], [])
        assert np.allclose(src, 0.5)

    def test_ou_order2_with_injected_s1(self, small_grid):
        s1 = lattice(small_grid, lambda x, t: ou_action(1, x, t, 1.0))
        grads = [_gradient(s1, small_grid.dx)]
        src = _source_arrays(2, quadratic_ou(), 1.0, small_grid.x, small_grid.t[:, None], grads)
        expected = -small_grid.x**2 / 4.0
        assert np.abs(src - expected[None, :]).max() <= 1e-10

    def test_example1_order2_matches_closed_source(self, small_grid):
        # source = (S1')^2 - V^2/4 with S1' = (V - Vbar/t)/2
        drift = linear_time_modulated(COS)
        s1 = lattice(small_grid, lambda x, t: example1_action(1, x, t, COS))
        grads = [_gradient(s1, small_grid.dx)]
        src = _source_arrays(2, drift, 1.0, small_grid.x, small_grid.t[:, None], grads)
        t = small_grid.t[:, None]
        expected = 0.25 * (COS.value(t) - COS.antiderivative(t) / t) ** 2 - COS.value(t) ** 2 / 4
        assert np.abs(src - expected).max() <= 1e-9


class TestAdvanceTerm:
    """One cascade order marched by solve_expansion on profiles the scheme
    integrates exactly."""

    def test_zero_source_zero_init(self, small_grid):
        term = solve_expansion(zero_drift(), 1.0, 0.3, 1, small_grid).terms[0]
        assert np.all(term == 0.0)

    def test_ou_s1_zero_init_gives_t_minus_t0(self, small_grid):
        # the quadratic potential with no closed form to start from: source
        # D/2 with a zero start, S = (t - t0)/2, exact for the scheme
        ou = quadratic_ou()
        drift = DriftSpec("custom", ou.u, ou.du_dx, ou.d2u_dx2, ou.du_dt)
        term = solve_expansion(drift, 1.0, 0.1, 1, small_grid).terms[0]
        expected = 0.5 * (small_grid.t - small_grid.t0)
        assert np.abs(term - expected[:, None]).max() <= 1e-8

    def test_ou_s1_oracle_init_gives_dt_over_2(self, small_grid):
        term = solve_expansion(quadratic_ou(), 1.0, 0.1, 1, small_grid).terms[0]
        expected = 0.5 * small_grid.t
        assert np.abs(term - expected[:, None]).max() <= 1e-8

    def test_example1_s1_numeric_matches_oracle(self):
        grid = Grid(-10.0, 10.0, 401, 0.01, 5.0, 250)
        drift = linear_time_modulated(COS)
        exp = solve_expansion(drift, 1.0, 0.5, 1, grid)
        oracle = np.array([example1_action(1, grid.x, tj, COS) for tj in grid.t])
        assert np.abs(exp.terms[0] - oracle).max() <= 1e-3


class TestSolveExpansion:
    def test_order_zero_only_s0(self, small_grid):
        exp = solve_expansion(zero_drift(), 1.0, 0.0, 0, small_grid)
        assert exp.order == 0 and exp.terms == ()
        ref = analytic_expansion(zero_drift(), 1.0, 0.0, 0, small_grid).action_sum()
        assert np.array_equal(exp.action_sum(), ref)

    def test_ou_s2_matches_oracle(self):
        grid = Grid(-10.0, 10.0, 401, 0.01, 5.0, 250)
        exp = solve_expansion(quadratic_ou(), 1.0, 0.1, 2, grid)
        oracle = np.array([ou_s2(grid.x, tj, 1.0) for tj in grid.t])
        assert np.abs(exp.terms[1] - oracle).max() <= 1e-3

    def test_failure_carries_order_index(self, small_grid):
        # a source evaluator that blows up at order 1
        def zero(x, t):
            return np.zeros_like(np.asarray(x, dtype=float))

        def inf(x, t):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        drift = DriftSpec("custom", zero, zero, inf, zero)
        with pytest.raises(SolverError, match="order 1"):
            solve_expansion(drift, 1.0, 0.1, 1, small_grid)

    def test_singular_step_names_order_and_step(self, monkeypatch, small_grid):
        # each step solves order 1, then order 2, so call 9 (counted from 0)
        # is order 2's step 4
        after_call(monkeypatch, kernels, "tridiag_solve", 9, singular)
        with pytest.raises(SolverError, match=r"^cascade failed at order 2: tridiagonal solve failed at step 4$") as info:
            solve_expansion(quadratic_ou(), 1.0, 0.1, 2, small_grid)
        assert isinstance(info.value.__cause__, ZeroDivisionError)


class TestOuAllOrders:
    """Quadratic-family closed forms past order 2: S_2k = c_k t^(2k-1) (D t + k x^2)
    with c = -1/12, 1/360, -1/5670, 1/75600, and every odd order beyond S_1 zero."""

    def test_truncation_error_falls_with_order(self):
        # analytic density at t = 2 against the exact one; measured 8.1e-4,
        # 2.8e-5, 1.0e-6 and 3.6e-8 at orders 2, 4, 6 and 8
        drift = quadratic_ou()
        grid = Grid(-12.0, 12.0, 641, 0.05, 2.0, 79)
        exact = ou_density_exact(grid.x, grid.t_max, 1.0, 0.3)
        errs = []
        for order in (2, 4, 6, 8):
            w = assemble_density(analytic_expansion(drift, 1.0, 0.3, order, grid), drift)
            errs.append(np.abs(w.values[-1] - exact).max() / exact.max())
        assert all(coarser / finer >= 10.0 for coarser, finer in zip(errs, errs[1:])), errs

    def test_numeric_terms_converge_to_closed_forms(self):
        # each slice of S_n carries a free constant: compare after subtracting
        # the x = 0 value; measured S_4, S_6, S_8 errors fall 3.7x, 4.3x and
        # 4.3x when dx and dt are halved, odd orders stay below 1e-14
        drift = quadratic_ou()
        coarse = Grid(-8.0, 8.0, 241, 0.05, 2.0, 101)
        errs = []
        for grid in (coarse, coarse.refined()):
            numeric = solve_expansion(drift, 1.0, 0.3, 8, grid)
            closed = analytic_expansion(drift, 1.0, 0.3, 8, grid)
            for n in (3, 5, 7):
                assert np.abs(numeric.terms[n - 1]).max() <= 1e-12
                assert not closed.terms[n - 1].any()
            per_order = []
            for n in (4, 6, 8):
                diff = numeric.terms[n - 1] - closed.terms[n - 1]
                per_order.append(np.abs(diff - diff[:, [grid.nx // 2]]).max())
            errs.append(per_order)
        ratios = [c / f for c, f in zip(*errs)]
        assert all(r >= 3.0 for r in ratios), (errs, ratios)

    def test_orders_past_the_derived_ones_rejected(self, small_grid):
        # the true S_10 at t0 is not zero, so the numeric cascade cannot start it from zero either
        for expand in (analytic_expansion, solve_expansion):
            for order in (9, 10):
                with pytest.raises(ValueError, match=f"S_{order} for drift family 'quadratic_ou'"):
                    expand(quadratic_ou(), 1.0, 0.1, order, small_grid)


def test_drift_without_closed_forms_has_no_analytic_expansion(small_grid):
    ou = quadratic_ou()
    drift = DriftSpec("custom", ou.u, ou.du_dx, ou.d2u_dx2, ou.du_dt)
    with pytest.raises(ValueError, match="drift family 'custom'"):
        analytic_expansion(drift, 1.0, 0.1, 1, small_grid)
    # S0 needs no closed form of the drift's own
    s0 = analytic_expansion(zero_drift(), 1.0, 0.1, 0, small_grid).action_sum()
    assert np.array_equal(analytic_expansion(drift, 1.0, 0.1, 0, small_grid).action_sum(), s0)


class TestAssembleDensity:
    def test_order_zero_zero_drift_is_heat_kernel(self, small_grid):
        exp = analytic_expansion(zero_drift(), 1.0, 0.0, 0, small_grid)
        w = assemble_density(exp, zero_drift())
        ref = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        assert field_distance(w, ref, "peak-relative-Linf").max() <= 1e-13

    def test_mass_exactly_one_and_positive(self, small_grid):
        drift = linear_time_modulated(COS)
        w = assemble_density(analytic_expansion(drift, 1.0, 0.5, 2, small_grid), drift)
        masses = trapezoid(w.values, small_grid.dx)
        assert np.abs(masses - 1.0).max() <= 1e-12
        assert np.all(w.values >= 0.0)

    def test_translation_identity_analytic_path(self, small_grid):
        drift = linear_time_modulated(COS)
        w = assemble_density(analytic_expansion(drift, 1.0, 0.5, 2, small_grid), drift)
        ref = sample_density(small_grid, lambda x, t: example1_density_exact(x, t, 1.0, 0.5, COS))
        assert field_distance(w, ref, "peak-relative-Linf").max() <= 1e-12

    def test_ou_order2_equals_resummed_closed_form(self, small_grid):
        drift = quadratic_ou()
        w = assemble_density(analytic_expansion(drift, 1.0, 0.1, 2, small_grid), drift)
        ref = sample_density(small_grid, lambda x, t: ou_density_pert(x, t, 1.0, 0.1))
        assert field_distance(w, ref, "peak-relative-Linf").max() <= 1e-12

    def test_lambda_zero_bitwise_degeneracy(self, small_grid):
        drift = linear_time_modulated(COS)
        w_lin = assemble_density(analytic_expansion(drift, 1.0, 0.0, 2, small_grid), drift)
        w_zero = assemble_density(analytic_expansion(zero_drift(), 1.0, 0.0, 0, small_grid), zero_drift())
        assert np.array_equal(w_lin.values, w_zero.values)


def test_overflowing_closed_form_is_a_solver_abort():
    # S_2 of the quadratic family overflows at t = 1e300 (the grid of
    # test_cli's TestOu::test_nonfinite_action_sum_is_a_solver_abort); under
    # this suite's error::RuntimeWarning filter any overflow warning would
    # surface here instead of the SolverError
    grid = Grid(-16.0, 16.0, 161, 0.1, 1e300, 3)
    expansion = analytic_expansion(quadratic_ou(), 1.0, 0.2, 2, grid)
    with pytest.raises(SolverError, match="action sum is not finite"):
        expansion.action_sum()
    # lam^2 overflows at lam = 1e200, and inf * 0 is NaN
    zeros = np.zeros((grid.nt, grid.nx))
    with pytest.raises(SolverError, match="action sum is not finite"):
        ActionExpansion(grid=grid, d_coeff=1.0, lam=1e200, terms=(zeros, zeros)).action_sum()


@pytest.mark.parametrize("expand", [analytic_expansion, solve_expansion])
@pytest.mark.parametrize("d", [1e-300, 1e-308])
def test_tiny_d_assembles_without_a_warning(expand, d):
    # the grid of test_cli's TestOu::test_tiny_d_unresolved_start_is_rejected:
    # S/D overflows to -inf off x = 0, and at D = 1e-308 so does -U/2D, which
    # leaves a spike at x = 0; under this suite's error::RuntimeWarning
    # filter any divide's or exp()'s warning would surface here
    grid = Grid(-1e4, 1e4, 161, 0.1, 1.5, 29)
    drift = quadratic_ou()
    w = assemble_density(expand(drift, d, 0.2, 2, grid), drift).values
    assert np.array_equal(w[:, 80], np.full(grid.nt, 1.0 / grid.dx))
    assert not np.any(np.delete(w, 80, axis=1))


@pytest.mark.parametrize("expand", [analytic_expansion, solve_expansion])
def test_tiny_d_negative_lambda_is_a_solver_abort(expand):
    # at lam < 0, -U/2D overflows to +inf where S/D is -inf: inf - inf is NaN
    grid = Grid(-1e4, 1e4, 161, 0.1, 1.5, 29)
    drift = quadratic_ou()
    with pytest.raises(SolverError, match="assembled density overflowed"):
        assemble_density(expand(drift, 1e-308, -0.2, 2, grid), drift)


class TestCascadeResidual:
    def test_zero_field_zero_source(self, small_grid):
        drift = zero_drift()
        exp = solve_expansion(drift, 1.0, 0.0, 1, small_grid)
        assert cascade_residual(1, exp, drift) == 0.0

    def test_injected_analytic_s1_residual_refines(self):
        # discrete defect of the analytic order-1 term is O(dx^2 + dt^2)
        drift = linear_time_modulated(COS)
        prev = None
        for grid in (Grid(-8.0, 8.0, 201, 0.1, 2.0, 96), Grid(-8.0, 8.0, 401, 0.1, 2.0, 191)):
            s1 = lattice(grid, lambda x, t: example1_action(1, x, t, COS))
            exp = ActionExpansion(grid=grid, d_coeff=1.0, lam=0.5, terms=(s1,))
            res = cascade_residual(1, exp, drift)
            if prev is not None:
                assert prev / res == pytest.approx(4.0, abs=1.2)
            prev = res

    def test_solved_ou_s2_residual_small(self):
        grid = Grid(-10.0, 10.0, 401, 0.01, 5.0, 250)
        drift = quadratic_ou()
        exp = solve_expansion(drift, 1.0, 0.1, 2, grid)
        assert cascade_residual(2, exp, drift) <= 10 * 1e-6  # 10x the solver tolerance


def test_refinement_second_order_small_grid():
    # halving dx and dt cuts the order-1 error by ~4 (second-order scheme)
    drift = linear_time_modulated(COS)
    grid = Grid(-10.0, 10.0, 201, 0.01, 5.0, 125)
    errs = []
    for g in (grid, grid.refined()):
        exp = solve_expansion(drift, 1.0, 0.5, 1, g)
        oracle = np.array([example1_action(1, g.x, tj, COS) for tj in g.t])
        errs.append(np.abs(exp.terms[0] - oracle).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
