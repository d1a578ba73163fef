"""The per-step cascade march and the FD band reuse against plain loops,
byte for byte (``tobytes``, so signed zeros count).

The oracles below are the order-by-order cascade as it stood before the
shared march: each order solved over the whole time range before the next,
its band rebuilt at every step, its source and the lower orders' gradients
held on the whole padded lattice, S0 solved on the padded nodes and
cropped.  The FD oracle assembles its band at every Crank-Nicolson step,
substeps included."""

import tracemalloc

import numpy as np
import pytest

import fpcascade.hierarchy as H
import fpcascade.kernels as K
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.model import (
    DriftSpec,
    Grid,
    linear_time_modulated,
    quadratic_ou,
    zero_drift,
)
from fpcascade.oracles import ModulationV, s0_log_heat_kernel
from fpcascade.reference import fd_substeps, fp_fd_solve, oracle_density
from fpcascade.transform import effective_potential_order

D = 0.7
LAM = 0.3

DRIFTS = {
    "zero": zero_drift(),
    "cos": linear_time_modulated(ModulationV("cos", 1.3)),
    "sin": linear_time_modulated(ModulationV("sin", 2.0)),
    "const": linear_time_modulated(ModulationV("const", v0=-0.4)),
    "quadratic": quadratic_ou(),
}

# one step, and marches of 32, 33, 64 and 101 steps (the lengths that
# covered the time blocks of the march this one replaced)
NTS = (2, 33, 34, 65, 102)


def _grid(nt):
    return Grid(-6.0, 6.0, 49, 0.05, 3.0, nt)


def _cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar):
    """Band and rhs for the interior unknowns (index 1..n-2)."""
    n = x.shape[0]
    alpha = d_coeff * dt / (2.0 * dx * dx)
    a = -x / tm
    beta = a * dt / (4.0 * dx)
    rhs = (
        (alpha - beta[1:-1]) * s_in[:-2]
        + (1.0 - 2.0 * alpha) * s_in[1:-1]
        + (alpha + beta[1:-1]) * s_in[2:]
        + dt * qbar[1:-1]
    )
    lower = -(alpha - beta[2:-1])
    diag = np.full(n - 2, 1.0 + 2.0 * alpha)
    upper = -(alpha + beta[1:-2])
    diag[0] = 1.0 + 2.0 * beta[1]
    upper[0] = -2.0 * beta[1]
    diag[-1] = 1.0 - 2.0 * beta[n - 2]
    lower[-1] = 2.0 * beta[n - 2]
    return lower, diag, upper, rhs


def _cascade_cn_step(x, tm, d_coeff, dt, dx, s_in, qbar, s_out):
    sol = K.tridiag_solve(*_cascade_coeffs(x, tm, d_coeff, dt, dx, s_in, qbar))
    s_out[1:-1] = sol
    s_out[0] = 2.0 * sol[0] - sol[1]
    s_out[-1] = 2.0 * sol[-1] - sol[-2]


def _source_arrays(n, drift, d_coeff, x, t_nodes, dx, solved_values):
    vals = np.empty((len(t_nodes), len(x)))
    for j, tj in enumerate(t_nodes):
        vals[j] = effective_potential_order(drift, d_coeff, n, x, tj)
    if n >= 2:
        grads = {k: np.gradient(solved_values[k], dx, axis=1, edge_order=2) for k in range(1, n)}
        for k in range(1, n):
            vals += grads[k] * grads[n - k]
    return vals


def _advance_arrays(x, t_nodes, dx, dt, d_coeff, q, init):
    vals = np.empty((len(t_nodes), len(x)))
    vals[0] = init
    qbar = np.empty(len(x))
    for j in range(len(t_nodes) - 1):
        tm = t_nodes[j] + 0.5 * dt
        np.add(q[j], q[j + 1], out=qbar)
        qbar *= 0.5
        _cascade_cn_step(x, tm, d_coeff, dt, dx, vals[j], qbar, vals[j + 1])
    return vals


def _solve_expansion(drift, d_coeff, order, grid):
    """The order-by-order cascade on the padded nodes, cropped at the end."""
    xp, m = H._padded_nodes(grid, d_coeff)
    t_nodes = grid.t
    sol_padded = [np.array([s0_log_heat_kernel(xp, tj, d_coeff) for tj in t_nodes])]
    for n in range(1, order + 1):
        q = _source_arrays(n, drift, d_coeff, xp, t_nodes, grid.dx, sol_padded)
        init = drift.action(n, xp, grid.t0, d_coeff)
        sol_padded.append(_advance_arrays(xp, t_nodes, grid.dx, grid.dt, d_coeff, q, init))
    return [np.ascontiguousarray(vals[:, m : m + grid.nx]) for vals in sol_padded]


@pytest.mark.parametrize("nt", NTS)
@pytest.mark.parametrize("name", list(DRIFTS))
def test_solve_expansion_equals_order_by_order_loop(name, nt):
    drift, grid = DRIFTS[name], _grid(nt)
    want = _solve_expansion(drift, D, 8, grid)
    for order in range(9):
        got = H.solve_expansion(drift, D, LAM, order, grid)
        assert got.order == order
        if order == 0:  # the action sum is then the closed-form S0 alone
            assert got.action_sum().tobytes() == want[0].tobytes()
        for n, term in enumerate(got.terms, start=1):
            assert term.tobytes() == want[n].tobytes(), (order, n)


def test_one_band_per_step_for_every_order(monkeypatch):
    built = []

    def counting(*args):
        built.append(1)
        return cascade_band(*args)

    cascade_band = K.cascade_band
    monkeypatch.setattr(K, "cascade_band", counting)
    grid = _grid(NTS[-1])
    for order in (1, 2, 8):
        built.clear()
        H.solve_expansion(quadratic_ou(), D, LAM, order, grid)
        assert len(built) == grid.nt - 1, order
    built.clear()
    H.solve_expansion(quadratic_ou(), D, LAM, 0, grid)
    assert built == []


@pytest.mark.parametrize("name", ["quadratic", "cos"])
def test_march_working_memory_is_a_few_rows(name):
    # the criterion-2 grid, 801 x 500 on 1133 padded nodes: a padded row is
    # 9 kB, and the march holds a few per order beside the returned terms
    # (6.4 MB); the 32-step time blocks of the march this one replaced held
    # 5.1 MB of bands, sources and gradients
    drift = {"quadratic": quadratic_ou(), "cos": linear_time_modulated(ModulationV("cos", 1.0))}[name]
    grid = Grid(-10.0, 10.0, 801, 0.01, 5.0, 500)
    assert len(H._padded_nodes(grid, 1.0)[0]) == 1133
    tracemalloc.start()
    try:
        got = H.solve_expansion(drift, 1.0, 0.5, 2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(term.nbytes for term in got.terms) < 1_000_000


def test_failure_at_a_higher_order_names_it():
    # Ubar_1 = 0 keeps order 1 finite; U_1' = 1e200 overflows the order-2
    # source Ubar_2 = -(1/4) U_1'^2 (a Python float, so without a numpy
    # warning) from t0 on, so the first step's row is the first non-finite one
    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def huge(x, t):
        return 1e200

    drift = DriftSpec("custom", zero, huge, zero, zero)
    with pytest.raises(SolverError, match=r"^cascade failed at order 2: non-finite values by step 1$"):
        H.solve_expansion(drift, D, LAM, 3, _grid(NTS[-1]))


_FP_BAND = K.fp_band  # before a test wraps it


def _fp_loop(drift, d_coeff, lam, grid, w_init):
    """fp_fd_solve's march, through the substeps of ``fd_substeps``, with the
    band assembled at every step."""
    x_half = grid.x[:-1] + 0.5 * grid.dx
    dx = grid.dx
    vals = np.empty((grid.nt, grid.nx))
    vals[0] = w_init
    vals[0, 0] = vals[0, -1] = 0.0
    for j in range(grid.nt - 1):
        w_in = vals[j]
        for tm, h in fd_substeps(float(grid.t[j]), float(grid.t[j + 1]), grid.dt, dx, d_coeff):
            a_half = -(lam * np.broadcast_to(drift.du_dx(x_half, tm), x_half.shape))
            lower, diag, upper, left, center, right = _FP_BAND(a_half, d_coeff, h, dx)
            rhs = left * w_in[:-2] + center * w_in[1:-1] + right * w_in[2:]
            vals[j + 1, 1:-1] = K.tridiag_solve(lower, diag, upper, rhs)
            vals[j + 1, 0] = vals[j + 1, -1] = 0.0
            w_in = vals[j + 1]
    return vals


# ``bands``: the bands built for the output steps taken in one CN step.  On
# this grid (t = 0.185 + 0.01 j) output steps 0 and 1 are longer than
# FD_SUBSTEP_RATIO times their start, so they are split into two substeps
# each, and each of those four gets its own band, since its length differs
# from every other
@pytest.mark.parametrize("name, lam, bands", [("zero", 0.0, 1), ("quadratic", 0.3, 1), ("quadratic", -0.2, 1),
                                               ("cos", 0.5, 58), ("const", 0.5, 1)])
def test_fd_band_reuse_equals_per_step_assembly(monkeypatch, name, lam, bands):
    built = []

    def counting(*args):
        built.append(1)
        return fp_band(*args)

    fp_band = K.fp_band
    monkeypatch.setattr(K, "fp_band", counting)
    drift, grid = DRIFTS[name], Grid(-12.0, 12.0, 241, 0.185, 0.785, 61)
    schedule = [fd_substeps(float(grid.t[j]), float(grid.t[j + 1]), grid.dt, grid.dx, 1.0)
                for j in range(grid.nt - 1)]
    assert [len(steps) for steps in schedule] == [2, 2] + [1] * 58
    w_init = oracle_density(drift, 1.0, lam, grid.x, grid.t0)
    w_init = w_init / float(trapezoid(w_init, grid.dx))
    got = fp_fd_solve(drift, 1.0, lam, grid, w_init)
    assert got.values.tobytes() == _fp_loop(drift, 1.0, lam, grid, w_init).tobytes()
    # rebuilt only when the interface drift or the step length changes:
    # for a drift constant in time, once more where the one-step output steps begin
    assert len(built) == bands + 4
