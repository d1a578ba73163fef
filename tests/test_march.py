"""The blocked cascade march and the FD band reuse against the loops they
replaced, byte for byte (``tobytes``, so signed zeros count).

The oracles below are the order-by-order cascade as it stood before the
march: each order solved over the whole time range before the next, its band
rebuilt at every step, its source and the lower orders' gradients held on the
whole padded lattice, S0 solved on the padded nodes and cropped.  The FD
oracle assembles its band at every step."""

import numpy as np
import pytest

import fpcascade.hierarchy as H
import fpcascade.kernels as K
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.model import (
    DriftSpec,
    Grid,
    PotentialTerm,
    ScalarField,
    TAG_POTENTIAL_ORDER,
    linear_time_modulated,
    quadratic_ou,
    zero_drift,
)
from fpcascade.oracles import ModulationV, s0_log_heat_kernel
from fpcascade.reference import fp_fd_solve, oracle_density
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

# one step; one full block; one block plus one row; several blocks, the last partial
NTS = (2, H._BLOCK + 1, H._BLOCK + 2, 3 * H._BLOCK + 6)


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
        init = H._closed_form_term(drift, d_coeff, n, xp, grid.t0)
        if init is None:
            init = np.zeros(len(xp))
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
        for n, term in enumerate(got.terms):
            assert term.values.tobytes() == want[n].tobytes(), (order, n)


@pytest.mark.parametrize("nt", NTS)
def test_advance_term_equals_loop(nt):
    grid = _grid(nt)
    q = np.cos(grid.x) * grid.t[:, None] - 0.25 * grid.x * grid.x
    init = np.sin(grid.x)
    src = ScalarField(grid=grid, values=q, tag=TAG_POTENTIAL_ORDER, order=1)
    got = H.advance_term(1, src, D, grid, init)
    want = _advance_arrays(grid.x, grid.t, grid.dx, grid.dt, D, q, init)
    assert got.values.tobytes() == want.tobytes()


def test_one_band_per_step_for_every_order(monkeypatch):
    built = []

    def counting(x, tm, *args):
        built.append(len(tm))
        return cascade_bands(x, tm, *args)

    cascade_bands = K.cascade_bands
    monkeypatch.setattr(K, "cascade_bands", counting)
    grid = _grid(NTS[-1])
    H.solve_expansion(quadratic_ou(), D, LAM, 8, grid)
    assert sum(built) == grid.nt - 1
    assert max(built) == H._BLOCK
    built.clear()
    H.solve_expansion(quadratic_ou(), D, LAM, 0, grid)
    assert built == []


def test_failure_at_a_higher_order_names_it():
    # order 1 is finite; U_2'' = inf makes the order-2 source infinite
    def inf(x, t):
        return np.full_like(np.asarray(x, dtype=float), np.inf)

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    ou = quadratic_ou()
    drift = DriftSpec(family="custom", orders=(ou.orders[0], ou.orders[1], PotentialTerm(zero, zero, inf, zero)))
    with pytest.raises(SolverError, match="cascade failed at order 2"):
        H.solve_expansion(drift, D, LAM, 3, _grid(NTS[-1]))


def _fp_loop(drift, d_coeff, lam, grid, w_init):
    """fp_fd_solve's march with the band assembled at every step."""
    x_half = grid.x[:-1] + 0.5 * grid.dx
    dx, dt = grid.dx, grid.dt
    alpha = d_coeff * dt / (2.0 * dx * dx)
    g = dt / (4.0 * dx)
    vals = np.empty((grid.nt, grid.nx))
    vals[0] = w_init
    vals[0, 0] = vals[0, -1] = 0.0
    for j in range(grid.nt - 1):
        a_half = drift.drift_coefficient(x_half, grid.t[j] + 0.5 * dt, lam)
        ar, al = a_half[1:], a_half[:-1]
        w_in = vals[j]
        diag = np.full(grid.nx - 2, 1.0 + 2.0 * alpha) + g * (ar - al)
        upper = -(alpha - g * ar[:-1])
        lower = -(alpha + g * al[1:])
        rhs = (
            (alpha + g * al) * w_in[:-2]
            + (1.0 - 2.0 * alpha - g * (ar - al)) * w_in[1:-1]
            + (alpha - g * ar) * w_in[2:]
        )
        vals[j + 1, 1:-1] = K.tridiag_solve(lower, diag, upper, rhs)
        vals[j + 1, 0] = vals[j + 1, -1] = 0.0
    return vals


@pytest.mark.parametrize("name, lam, bands", [("zero", 0.0, 1), ("quadratic", 0.3, 1), ("quadratic", -0.2, 1),
                                               ("cos", 0.5, 60), ("const", 0.5, 1)])
def test_fd_band_reuse_equals_per_step_assembly(monkeypatch, name, lam, bands):
    built = []

    def counting(*args):
        built.append(1)
        return fp_band(*args)

    fp_band = K.fp_band
    monkeypatch.setattr(K, "fp_band", counting)
    drift, grid = DRIFTS[name], Grid(-12.0, 12.0, 241, 0.05, 1.0, 61)
    w_init = oracle_density(drift, 1.0, lam, grid.x, grid.t0)
    w_init = w_init / float(trapezoid(w_init, grid.dx))
    got = fp_fd_solve(drift, 1.0, lam, grid, w_init)
    assert got.values.tobytes() == _fp_loop(drift, 1.0, lam, grid, w_init).tobytes()
    # rebuilt only when the interface drift changes: never for a drift constant in time
    assert len(built) == bands
