"""The lattice contract: every closed-form and potential evaluator called with
a column t (``t[:, None]``) returns, byte for byte, the rows of per-slice
calls at each t.  Byte comparison (``tobytes``) makes signed zeros count."""

import numpy as np
import pytest

from conftest import cascade_residual, log_resummation_gap
from fpcascade.hierarchy import _gradient, _source_arrays, solve_expansion
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV, s0_log_heat_kernel
from fpcascade.reference import oracle_density
from fpcascade.transform import effective_potential_order, potential_exponent

# 400 time nodes: numpy's vectorized float64 power differs from the scalar pow
# by an ulp on about 5% of such t, so a `**` in a closed form would show here
GRID = Grid(-6.0, 6.0, 49, 0.05, 3.0, 400)
D = 0.7

DRIFTS = {
    "zero": zero_drift(),
    "cos": linear_time_modulated(ModulationV("cos", 1.3)),
    "sin": linear_time_modulated(ModulationV("sin", 2.0)),
    "const": linear_time_modulated(ModulationV("const", v0=-0.4)),
    "quadratic": quadratic_ou(),
}


def _assert_lattice(f, x, t):
    """f(x, t[:, None]) against the per-slice rows f(x, tj), byte for byte."""
    rows = np.array([f(x, tj) for tj in t])
    lattice = f(x, t[:, None])
    assert np.broadcast_to(lattice, rows.shape).tobytes() == rows.tobytes()
    return lattice


@pytest.mark.parametrize("name", list(DRIFTS))
def test_lattice_call_equals_per_slice_calls(name):
    drift = DRIFTS[name]
    x, t = GRID.x, GRID.t
    _assert_lattice(lambda xx, tt: s0_log_heat_kernel(xx, tt, D), x, t)
    for n in range(1, 9):
        _assert_lattice(lambda xx, tt: drift.action(n, xx, tt, D), x, t)
    for lam in (0.0, 0.3, -0.2):
        # the CLI takes w_exact from this call as it stands, so it must be the full lattice
        exact = _assert_lattice(lambda xx, tt: oracle_density(drift, D, lam, xx, tt), x, t)
        assert exact.shape == (GRID.nt, GRID.nx)
        # U/2D = lam U_1 / 2D
        rows = np.array([np.multiply(np.broadcast_to(drift.u(x, tj), x.shape), lam) / (2.0 * D) for tj in t])
        assert potential_exponent(drift, D, lam, GRID).tobytes() == rows.tobytes()
        gaps = np.array([log_resummation_gap(lam, tj) for tj in t])
        assert log_resummation_gap(lam, t).tobytes() == gaps.tobytes()
    for n in range(4):
        _assert_lattice(lambda xx, tt: effective_potential_order(drift, D, n, xx, tt), x, t)


def _per_slice_residual(n, expansion, drift):
    """cascade_residual as it was before it worked on 2-D slices: one time
    slice at a time.  Kept as the oracle."""
    grid = expansion.grid
    term = expansion.terms[n - 1]
    grads = [_gradient(s, grid.dx) for s in expansion.terms[: n - 1]]
    source = _source_arrays(n, drift, expansion.d_coeff, grid.x, grid.t[:, None], grads)
    x = grid.x[1:-1]
    dx, dt = grid.dx, grid.dt
    worst = 0.0
    for j in range(1, grid.nt - 1):
        dsdt = (term[j + 1, 1:-1] - term[j - 1, 1:-1]) / (2.0 * dt)
        d2 = (term[j, 2:] - 2.0 * term[j, 1:-1] + term[j, :-2]) / (dx * dx)
        d1 = (term[j, 2:] - term[j, :-2]) / (2.0 * dx)
        rhs = expansion.d_coeff * d2 - (x / grid.t[j]) * d1 + source[j, 1:-1]
        worst = max(worst, float(np.abs(dsdt - rhs).max()))
    return worst


@pytest.mark.parametrize("name, lam, nt", [("cos", 0.5, 41), ("quadratic", 0.1, 41), ("sin", 0.3, 2)])
def test_residual_equals_per_slice_loop(name, lam, nt):
    drift = DRIFTS[name]
    grid = Grid(-8.0, 8.0, 81, 0.1, 2.0, nt)
    expansion = solve_expansion(drift, D, lam, 3, grid)
    for n in (1, 2, 3):
        want = _per_slice_residual(n, expansion, drift)
        assert cascade_residual(n, expansion, drift) == want
        if nt == 2:
            assert want == 0.0
