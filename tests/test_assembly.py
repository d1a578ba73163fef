"""Density assembly in row blocks and DensityField validation on views.

The oracle below is the whole-lattice assembly that the row blocks replaced:
the closed-form S0, the action sum, the exponent U/2D, their difference and
exp() each formed on the full (nt, nx) lattice.  Blocked assembly must give its bits
(``tobytes``, so signed zeros count) and raise its errors in its order: a
non-finite action sum anywhere, then an exp() overflow (or the NaN of
inf - inf), then a non-positive slice mass.  An exponent U/2D past the exp()
range is no error of its own.
The traced-allocation bounds pin that neither step holds a lattice-sized
temporary."""

import tracemalloc

import numpy as np
import pytest

import fpcascade.hierarchy as H
from fpcascade.analysis import trapezoid
from fpcascade.errors import SolverError
from fpcascade.model import (
    ActionExpansion,
    DensityField,
    DriftSpec,
    Grid,
    linear_time_modulated,
    quadratic_ou,
    zero_drift,
)
from fpcascade.oracles import ModulationV, s0_log_heat_kernel

D = 0.7
LAM = 0.3
B = H._BLOCK

DRIFTS = {
    "zero": zero_drift(),
    "cos": linear_time_modulated(ModulationV("cos", 1.3)),
    "sin": linear_time_modulated(ModulationV("sin", 2.0)),
    "const": linear_time_modulated(ModulationV("const", v0=-0.4)),
    "quadratic": quadratic_ou(),
}

# a Grid needs nt >= 2: two slices; one block less and exactly one block;
# one block and a one-row tail; exactly two blocks; two and a partial third
NTS = (2, B - 1, B, B + 1, 2 * B, 2 * B + 5)


def _grid(nt):
    return Grid(-6.0, 6.0, 49, 0.05, 3.0, nt)


def _assemble(expansion, drift):
    """The whole-lattice assembly; its S0, U/2D and exp() overflows and its
    inf - inf are silenced, as the blocked assembly's are, so that it reaches
    its SolverError."""
    grid = expansion.grid
    with np.errstate(over="ignore"):
        w = s0_log_heat_kernel(grid.x, grid.t[:, None], expansion.d_coeff)
    lam_n = 1.0
    for term in expansion.terms:
        lam_n *= expansion.lam
        w += lam_n * term
    if not np.all(np.isfinite(w)):
        raise SolverError("action sum is not finite everywhere on the grid")
    w /= expansion.d_coeff
    expo = np.multiply(drift.u(grid.x, grid.t[:, None]), expansion.lam, out=np.empty((grid.nt, grid.nx)))
    with np.errstate(over="ignore", invalid="ignore"):
        expo /= 2.0 * expansion.d_coeff
        w -= expo
        np.exp(w, out=w)
    if not np.all(np.isfinite(w)):
        raise SolverError("assembled density overflowed; widen the domain or reduce lam")
    masses = trapezoid(w, grid.dx)
    if np.any(masses <= 0):
        raise SolverError("assembled density has a non-positive slice mass")
    return w / masses[:, None]


def _outcome(assemble, expansion, drift):
    """The values' bytes, or the error's type and message."""
    try:
        w = assemble(expansion, drift)
    except SolverError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(w, "values", w)).tobytes()


@pytest.mark.parametrize("nt", NTS)
@pytest.mark.parametrize("name", list(DRIFTS))
@pytest.mark.parametrize("solve", [H.analytic_expansion, H.solve_expansion], ids=["analytic", "numeric"])
def test_blocked_assembly_equals_whole_lattice(solve, name, nt):
    drift, grid = DRIFTS[name], _grid(nt)
    for order, lam in ((0, LAM), (3, LAM), (2, -0.45), (2, -0.0)):
        expansion = solve(drift, D, lam, order, grid)
        got = H.assemble_density(expansion, drift).values
        assert got.tobytes() == _assemble(expansion, drift).tobytes(), (order, lam)
        # the row ranges tile the whole-lattice calls bit for bit
        rows = [slice(lo, lo + B) for lo in range(0, nt, B)]
        assert np.concatenate([expansion.action_sum(r) for r in rows]).tobytes() == expansion.action_sum().tobytes()


def _potential_drift(grid, rows_from, x_from):
    """A drift whose U_1 puts U/2D = 2500 (lam = D = 1), past the exp()
    range, on the nodes from row rows_from on, right of x_from; exp() of
    S/D - 2500 underflows to 0 there."""
    t_cut = grid.t[rows_from] - 0.5 * grid.dt

    def u(x, t):
        return np.where((np.asarray(t) > t_cut) & (np.asarray(x) > x_from), 5000.0, 0.0)

    def zero(x, t):
        return 0.0

    return DriftSpec("custom", u, zero, zero, zero)


GRID = _grid(2 * B + 5)


# (S_1 entries set, as (row, value) pairs, the first row where U/2D = 2500
# or None, the error that must surface or None where the density assembles);
# lam = 1 adds the entries to the closed-form S0, which lies in [-180, 0.3] on
# GRID, so that exp() of 800 + S0 still overflows near x = 0 and of
# -800 + S0 underflows everywhere
PRECEDENCE = {
    "sum-late-exponent-early": ([(2 * B + 1, np.inf)], 0, "action sum is not finite"),
    "nan-sum-late-exponent-early": ([(2 * B + 4, np.nan)], 1, "action sum is not finite"),
    "exponent-late": ([], B + 3, None),
    "exp-early-exponent-late": ([(0, 800.0)], 2 * B, "overflowed"),
    "mass-early-exp-late": ([(1, -800.0), (B + 2, 800.0)], None, "overflowed"),
    "mass-late": ([(2 * B + 3, -800.0)], None, "non-positive slice mass"),
}


@pytest.mark.parametrize("case", list(PRECEDENCE))
def test_errors_keep_the_whole_lattice_precedence(case):
    entries, rows_from, reason = PRECEDENCE[case]
    s1 = np.zeros((GRID.nt, GRID.nx))
    for row, value in entries:
        s1[row] = value
    drift = zero_drift() if rows_from is None else _potential_drift(GRID, rows_from, x_from=1.0)
    expansion = ActionExpansion(grid=GRID, d_coeff=1.0, lam=1.0, terms=(s1,))
    got = _outcome(H.assemble_density, expansion, drift)
    assert got == _outcome(_assemble, expansion, drift)
    if reason is None:
        masses = trapezoid(H.assemble_density(expansion, drift).values, GRID.dx)
        np.testing.assert_allclose(masses, 1.0, rtol=1e-14)
        return
    with pytest.raises(SolverError, match=reason):
        H.assemble_density(expansion, drift)


def _traced_peak(fn, *args):
    """fn(*args) and the bytes it held at its allocation peak beyond what was
    live when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


# enough slices that a few block-sized temporaries stay small beside the result
LONG = Grid(-8.0, 8.0, 201, 0.05, 3.0, 40 * B + 7)


@pytest.mark.parametrize("name", ["cos", "quadratic"])
def test_assembly_holds_no_lattice_sized_temporary(name):
    drift = DRIFTS[name]
    expansion = H.analytic_expansion(drift, D, LAM, 2, LONG)
    w, peak = _traced_peak(H.assemble_density, expansion, drift)
    assert peak < 1.25 * w.values.nbytes


@pytest.mark.parametrize("populated", ["all", "all-but-one", "every-other"])
def test_density_validation_copies_nothing(populated):
    vals = np.random.default_rng(3).uniform(0.0, 1.0, (LONG.nt, LONG.nx))
    mask = None
    if populated != "all":
        mask = np.ones(LONG.nt, dtype=bool)
        mask[7 if populated == "all-but-one" else slice(None, None, 2)] = False
    field, peak = _traced_peak(lambda: DensityField(grid=LONG, values=vals, populated=mask))
    assert np.shares_memory(field.values, vals)
    assert peak < vals.nbytes / 8


class TestDensityRules:
    """The validation rules, checked on views: every populated slice must be
    finite, and then its minimum must stay above the negativity floor."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("partial", [False, True])
    def test_non_finite_populated_value_rejected_before_an_undershoot(self, small_grid, bad, partial):
        vals = np.zeros((small_grid.nt, small_grid.nx))
        vals[2, 5] = -1.0  # an undershoot in an earlier slice
        vals[60, 7] = bad
        mask = np.ones(small_grid.nt, dtype=bool)
        if partial:
            mask[30] = False
        with pytest.raises(ValueError, match="non-finite values in populated slices"):
            DensityField(grid=small_grid, values=vals, populated=mask)

    def test_unpopulated_slices_are_not_checked(self, small_grid):
        vals = np.zeros((small_grid.nt, small_grid.nx))
        vals[4] = np.nan
        vals[9] = -1.0
        mask = np.ones(small_grid.nt, dtype=bool)
        mask[[4, 9]] = False
        DensityField(grid=small_grid, values=vals, populated=mask)
        DensityField(grid=small_grid, values=vals, populated=np.zeros(small_grid.nt, dtype=bool))

    @pytest.mark.parametrize("partial", [False, True])
    def test_undershoot_reports_the_populated_minimum(self, small_grid, partial):
        vals = np.zeros((small_grid.nt, small_grid.nx))
        vals[3, 1] = -2e-9
        vals[50, 8] = -7e-9
        vals[70, 0] = -9e-9
        mask = np.ones(small_grid.nt, dtype=bool)
        if partial:
            mask[70] = False
        low = -7e-9 if partial else -9e-9
        with pytest.raises(ValueError, match=f"density undershoot {low:.3e} below -1e-12"):
            DensityField(grid=small_grid, values=vals, populated=mask)
