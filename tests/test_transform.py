import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import builtin_drifts
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.hierarchy import analytic_expansion, assemble_density, solve_expansion
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV
from fpcascade.reference import em_step
from fpcascade.transform import effective_potential_order


def effective_potential(drift, d_coeff, lam, x, t):
    """Ubar(x,t) of the full potential U = lam U_1 at the given lam, built
    from the drift's U_1 evaluators directly: the oracle for the per-order
    coefficients."""
    upp, up, ut = lam * drift.d2u_dx2(x, t), lam * drift.du_dx(x, t), lam * drift.du_dt(x, t)
    return 0.5 * d_coeff * upp - 0.25 * up * up + 0.5 * ut


def potential_by_orders(drift, d_coeff, lam, x, t):
    """sum_n lam^n Ubar_n, the production evaluator summed over every order
    up to 2, past which Ubar_n vanishes (test_order_beyond_reach_is_zero)."""
    return sum(lam**n * effective_potential_order(drift, d_coeff, n, x, t) for n in range(3))


class TestEffectivePotential:
    def test_zero_drift_vanishes(self):
        drift = zero_drift()
        rng = np.random.default_rng(0)
        x, t = rng.uniform(-5, 5, 20), rng.uniform(0.1, 3, 20)
        for xi, ti in zip(x, t):
            assert potential_by_orders(drift, 1.0, 0.3, xi, ti) == 0.0

    def test_quadratic_hand_value(self):
        # U' = lam x, U'' = lam, dU/dt = 0:
        # Ubar = D lam/2 - (lam x)^2/4 = 0.05 - 0.01 = 0.04
        drift = quadratic_ou()
        assert potential_by_orders(drift, 1.0, 0.1, 2.0, 17.3) == pytest.approx(0.04, rel=1e-14)

    def test_linear_hand_value(self):
        # V = cos t at t = 0: Ubar = -(lam cos 0)^2/4 + (lam x)(-sin 0)/2 = -0.0225
        drift = linear_time_modulated(ModulationV("cos", 1.0))
        assert potential_by_orders(drift, 1.0, 0.3, 1.0, 0.0) == pytest.approx(-0.0225, rel=1e-14)

    def test_quadratic_order_sources(self):
        drift = quadratic_ou()
        # order 1: D/2 everywhere; order 2: -x^2/4
        assert effective_potential_order(drift, 1.0, 1, 3.7, 0.2) == pytest.approx(0.5)
        assert effective_potential_order(drift, 1.0, 2, 1.0, 9.9) == pytest.approx(-0.25)

    def test_linear_order_source_at_pi(self):
        drift = linear_time_modulated(ModulationV("cos", 1.0))
        # Ubar_1 = (x/2) dV/dt, and dV/dt(pi) = -sin(pi) = 0
        assert effective_potential_order(drift, 1.0, 1, 2.0, np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_order_sum_identity(self):
        rng = np.random.default_rng(11)
        for drift in (linear_time_modulated(ModulationV("sin", 2.0)), quadratic_ou()):
            for _ in range(100):
                lam = rng.uniform(-0.5, 0.5)
                x = rng.uniform(-8, 8)
                t = rng.uniform(0.05, 4.0)
                total = effective_potential(drift, 1.0, lam, x, t)
                assert abs(total - potential_by_orders(drift, 1.0, lam, x, t)) <= 1e-12

    def test_order_beyond_reach_is_zero(self):
        drift = quadratic_ou()
        assert np.all(effective_potential_order(drift, 1.0, 3, np.linspace(-2, 2, 5), 1.0) == 0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            effective_potential_order(zero_drift(), 1.0, -1, 0.0, 1.0)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    drift=builtin_drifts(),
    lam=st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0),
    d_coeff=st.floats(0.01, 10.0),
    x=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8).map(np.array),
    t=st.floats(0.01, 10.0),
)
def test_orders_and_drift_buffer_agree_with_full_potential(drift, lam, d_coeff, x, t):
    # sum_n lam^n Ubar_n against Ubar of U = lam U_1, up to the rounding of its terms
    scale = (np.abs(0.5 * d_coeff * lam * drift.d2u_dx2(x, t)) + 0.25 * (lam * drift.du_dx(x, t)) ** 2
             + np.abs(0.5 * lam * drift.du_dt(x, t)))
    err = np.abs(potential_by_orders(drift, d_coeff, lam, x, t) - effective_potential(drift, d_coeff, lam, x, t))
    assert np.all(err <= 4e-15 * scale + 1e-320)  # the floor: subnormal rounding
    # em_step's drift buffer holds the allocating dU/dx * (-h), bit for bit
    a, x_new = np.full_like(x, np.nan), x.copy()
    em_step(drift, lam, x_new, t, 0.01, np.zeros_like(x), a)
    assert a.tobytes() == (np.broadcast_to(lam * drift.du_dx(x, t), x.shape) * -0.01).tobytes()
    assert x_new.tobytes() == (x + a + np.zeros_like(x)).tobytes()


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


# the five built-in drifts, the const modulation at v0 = 0, and the cos and
# sin ones at omega up to 1e308, where the numeric cascade's source overflows
MAP_DRIFTS = st.one_of(
    st.sampled_from([zero_drift(), linear_time_modulated(ModulationV("const", v0=0.0)), quadratic_ou()]),
    st.builds(lambda kind, omega: linear_time_modulated(ModulationV(kind, omega)),
              st.sampled_from(["cos", "sin"]), _log_uniform(1.0, 1e308)),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    drift=MAP_DRIFTS,
    expand=st.sampled_from([analytic_expansion, solve_expansion]),
    order=st.integers(0, 3),
    d_coeff=_log_uniform(1e-308, 1e3),
    lam=st.tuples(st.sampled_from([1.0, -1.0]), _log_uniform(1e-3, 1e300)).map(lambda p: p[0] * p[1]),
    half=st.floats(1.0, 1e4),
)
# the drift and domain of the run `example1 --omega 1e200 --x-min -16 --x-max 16`,
# whose numeric S_1 reaches about 1e200 x, so that S_2's source overflows
@example(drift=linear_time_modulated(ModulationV("cos", 1e200)), expand=solve_expansion, order=2, d_coeff=1.0,
         lam=0.2, half=16.0)
def test_wavefunction_map_gives_a_density_or_a_solver_abort(drift, expand, order, d_coeff, lam, half):
    # W = exp(-U/2D) exp(S/D) on domains and lam where U/2D leaves the exp()
    # range: a unit-mass density where exp() stays finite, a SolverError
    # where it does not, and no numpy warning either way (this suite turns a
    # RuntimeWarning into an error)
    grid = Grid(-half, half, 41, 0.1, 1.0, 5)
    try:
        w = assemble_density(expand(drift, d_coeff, lam, order, grid), drift)
    except SolverError:
        return
    assert w.values.min() >= 0.0
    np.testing.assert_allclose(trapezoid(w.values, grid.dx), 1.0, rtol=1e-12)
