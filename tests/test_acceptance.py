"""Acceptance suite: one test per verification criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Grids, seeds and tolerances are frozen here; docs/verification.md
maps each criterion to the formula or property it certifies and to the CLI
command that reproduces it.
"""

import time

import numpy as np
import pytest

from conftest import (example1_density_exact, log_resummation_gap, ou_density_exact, ou_density_pert, ou_s2,
                      sample_density, scaling_order_fit)
from fpcascade.analysis import PEAK_RELATIVE_LINF, field_distance, slice_mass, trapezoid
from fpcascade.hierarchy import analytic_expansion, assemble_density, solve_expansion
from fpcascade.model import Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV, example1_action, ou_action, w0_diffusion
from fpcascade.reference import density_from_samples, em_simulate, fp_fd_solve, oracle_density

COS = ModulationV("cos", 1.0)
SEED = 20107

# the pinned cascade validation grid
CASCADE_GRID = Grid(-10.0, 10.0, 801, 0.01, 5.0, 500)
# finite-difference validation grid (t0 pinned at 0.01, target time 1)
FD_GRID = Grid(-12.0, 12.0, 1601, 0.01, 1.0, 1101)
# Monte Carlo histogram grid (coarse bins; statistical noise scales as 1/sqrt(n dx))
MC_GRID = Grid(-12.0, 12.0, 49, 0.01, 1.0, 2)


def normalized_init(drift, lam, grid, d=1.0):
    w = oracle_density(drift, d, lam, grid.x, grid.t0)
    return w / float(trapezoid(w, grid.dx))


def test_criterion_1_example1_analytic_exactness():
    """Order-2 analytic density equals the shifted heat kernel to 1e-12."""
    start = time.perf_counter()
    drift = linear_time_modulated(COS)
    w = assemble_density(analytic_expansion(drift, 1.0, 0.5, 2, CASCADE_GRID), drift)
    ref = sample_density(CASCADE_GRID, lambda x, t: w0_diffusion(x + 0.5 * COS.antiderivative(t), t, 1.0))
    residual = float(field_distance(w, ref, PEAK_RELATIVE_LINF).max())
    elapsed = time.perf_counter() - start
    print(f"criterion 1: translation residual {residual:.3e} (<= 1e-12), {elapsed:.2f}s")
    assert residual <= 1e-12
    assert elapsed < 1.0


def _numeric_errors(grid):
    drift1 = linear_time_modulated(COS)
    exp1 = solve_expansion(drift1, 1.0, 0.5, 2, grid)
    x, t = grid.x, grid.t
    e_s1 = np.abs(exp1.terms[0] - np.array([example1_action(1, x, tj, COS) for tj in t])).max()
    e_s2 = np.abs(exp1.terms[1] - np.array([example1_action(2, x, tj, COS) for tj in t])).max()
    driftq = quadratic_ou()
    expq = solve_expansion(driftq, 1.0, 0.1, 2, grid)
    e_q1 = np.abs(expq.terms[0] - ou_action(1, x, t[:, None], 1.0)).max()
    e_q2 = np.abs(expq.terms[1] - np.array([ou_s2(x, tj, 1.0) for tj in t])).max()
    return e_s1, e_s2, e_q1, e_q2


def test_criterion_2_numeric_cascade_matches_closed_forms():
    """Numeric S1, S2 match the closed forms to 1e-3; the truncation-limited
    errors drop by ~4x when dx and dt are halved."""
    start = time.perf_counter()
    errs = _numeric_errors(CASCADE_GRID)
    errs_fine = _numeric_errors(CASCADE_GRID.refined())
    elapsed = time.perf_counter() - start
    labels = ["ex1 S1", "ex1 S2", "ou S1", "ou S2"]
    for label, e in zip(labels, errs):
        print(f"criterion 2: {label} max-abs error {e:.3e} (<= 1e-3)")
        assert e <= 1e-3
    # the linear-family terms carry the scheme's genuine O(dx^2 + dt^2) error;
    # the quadratic-family terms are scheme-exact up to the boundary padding
    # residue, so the refinement ratio is measured on the former
    for idx in (0, 1):
        ratio = errs[idx] / errs_fine[idx]
        print(f"criterion 2: {labels[idx]} refinement ratio {ratio:.2f} (in [3.5, 4.5])")
        assert 3.5 <= ratio <= 4.5
    print(f"criterion 2: runtime {elapsed:.1f}s (< 30s)")
    assert elapsed < 30.0


def test_refined_cascade_holds_only_its_solved_terms():
    """The refined-grid expansion holds order x nt x nx float64s and nothing
    more: S0 is a closed form, and each term owns its cropped lattice."""
    grid = CASCADE_GRID.refined()
    exp = solve_expansion(quadratic_ou(), 1.0, 0.1, 2, grid)
    assert all(term.base is None for term in exp.terms)
    assert sum(term.nbytes for term in exp.terms) == exp.order * grid.nt * grid.nx * 8


def test_criterion_3_cascade_truncation_s3():
    """Order-3 term of the linear family vanishes after per-slice constant removal."""
    drift = linear_time_modulated(COS)
    exp = solve_expansion(drift, 1.0, 0.5, 3, CASCADE_GRID)
    s3 = exp.terms[2]
    s3 = s3 - s3.mean(axis=1, keepdims=True)
    worst = np.abs(s3).max()
    print(f"criterion 3: S3 max-abs after constant removal {worst:.3e} (<= 1e-3)")
    assert worst <= 1e-3


OU_SWEEP = (0.02, 0.04, 0.08, 0.16)
SWEEP_X = np.linspace(-12.0, 12.0, 4801)


def _ou_sweep_errors():
    errors = []
    for lam in OU_SWEEP:
        exact = ou_density_exact(SWEEP_X, 1.0, 1.0, lam)
        pert = ou_density_pert(SWEEP_X, 1.0, 1.0, lam)
        errors.append(float(np.abs(pert - exact).max() / exact.max()))
    return errors


def test_criterion_4_ou_consistency_tolerance():
    """Resummed order-2 density vs the exact one at lam=0.1, t=1: <= 2e-5."""
    start = time.perf_counter()
    exact = ou_density_exact(SWEEP_X, 1.0, 1.0, 0.1)
    pert = ou_density_pert(SWEEP_X, 1.0, 1.0, 0.1)
    dev = float(np.abs(pert - exact).max() / exact.max())
    elapsed = time.perf_counter() - start
    print(f"criterion 4a: peak-relative-Linf {dev:.3e} (<= 2e-5), {elapsed:.2f}s")
    assert dev <= 2e-5
    assert elapsed < 1.0


def test_criterion_4_ou_scaling_slope_window():
    """Fitted lambda-scaling slope of the pert-vs-exact deviation in [3.7, 4.3],
    and its leading coefficient 1/90.

    With u = lam t the exact width factor is the Bernoulli series
    2u / (1 - e^(-2u)) = 1 + u + u^2/3 + 0*u^3 - u^4/45 + ..., and the resummed
    order-2 factor is exactly f = 1 + u + u^2/3, so the two densities first
    differ at u^4.  The peak-relative sup of the difference sits at x = 0,
    where it equals sqrt(f / f_exact) - 1, half the relative width change:
    u^4/90 + O(u^5).  The window keeps the width 0.6 and is centred on the
    derived order 4 (the 40-digit slope over the sweep is 3.93446); the
    coefficient is checked at the smallest lambda, within 5%.
    """
    errors = _ou_sweep_errors()
    slope = scaling_order_fit(list(zip(OU_SWEEP, errors)))
    coeff = 90.0 * errors[0] / OU_SWEEP[0] ** 4
    print(f"criterion 4b: fitted slope {slope:.3f} (in [3.7, 4.3]), "
          f"90 err/lam^4 at lam={OU_SWEEP[0]} {coeff:.3f} (within 5% of 1)")
    assert 3.7 <= slope <= 4.3
    assert abs(coeff - 1.0) <= 0.05


def test_criterion_5_resummation_gap_bounded():
    """gap/lambda^3 stays bounded as lambda decreases at t = 1."""
    lams = np.array([0.02, 0.04, 0.08])
    ratios = np.array([log_resummation_gap(l, 1.0) for l in lams]) / lams**3
    print(f"criterion 5a: gap/lambda^3 ratios {np.array2string(ratios, precision=3)}")
    assert np.all(np.isfinite(ratios))
    assert ratios.max() == ratios[-1]  # no blow-up toward small lambda


def test_criterion_5_resummation_gap_cubic_constancy():
    """gap/lambda^4 approximately constant (within 30% of the mean), and
    |72 gap/lambda^4 - 1| <= lambda over the pinned triple.

    ln(1 + u + u^2/3) = u - u^2/6 + 0*u^3 + u^4/36 - u^5/45 + ..., so the
    truncated exponent and half its resummed logarithm agree through the
    cubic order: u/2 - u^2/12 - (1/2) ln f = -u^4/72 + u^5/90 - ...  The gap
    is quartic with magnitude u^4/72, and the alternating next term bounds
    the deviation of 72 gap/u^4 from 1 by 0.8 u (here t = 1, so u = lambda).
    The name is kept from the cubic window this criterion first pinned.
    """
    lams = np.array([0.02, 0.04, 0.08])
    ratios = np.array([log_resummation_gap(l, 1.0) for l in lams]) / lams**4
    rel_dev = np.abs(ratios - ratios.mean()).max() / ratios.mean()
    coeff_dev = np.abs(72.0 * ratios - 1.0)
    print(f"criterion 5b: max deviation from mean gap/lam^4 {rel_dev:.1%} (<= 30%), "
          f"|72 gap/lam^4 - 1| {np.array2string(coeff_dev, precision=3)} (<= lam)")
    assert rel_dev <= 0.30
    assert np.all(coeff_dev <= lams)


def test_criterion_6_fd_matches_oracles():
    """Direct FD integration reproduces each closed-form density at t = 1."""
    start = time.perf_counter()
    cases = [
        ("zero", zero_drift(), 0.0),
        ("example1", linear_time_modulated(COS), 0.5),
        ("ou", quadratic_ou(), 0.1),
    ]
    for name, drift, lam in cases:
        sol = fp_fd_solve(drift, 1.0, lam, FD_GRID, normalized_init(drift, lam, FD_GRID))
        ref = oracle_density(drift, 1.0, lam, FD_GRID.x, 1.0)
        l1 = float(trapezoid(np.abs(sol.values[-1] - ref), FD_GRID.dx))
        masses = trapezoid(sol.values, FD_GRID.dx)
        mass_dev = float(np.abs(masses - 1.0).max())
        print(f"criterion 6: {name} L1 {l1:.3e} (<= 1e-3), mass dev {mass_dev:.2e} (<= 1e-8)")
        assert l1 <= 1e-3
        assert mass_dev <= 1e-8
    elapsed = time.perf_counter() - start
    print(f"criterion 6: runtime {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_7_monte_carlo_validation():
    """Histogram L1 <= 0.02 and 3-sigma variance agreement at n = 1e5."""
    start = time.perf_counter()
    n = 100000
    cases = [
        ("wiener", zero_drift(), 0.0, 2.0),
        ("ou", quadratic_ou(), 0.1, 1.8126924692201814),
    ]
    for name, drift, lam, var_target in cases:
        positions = em_simulate(drift, 1.0, lam, 0.01, [1.0], 1e-3, n, SEED)
        hist = density_from_samples(positions, [1], MC_GRID)
        ref = oracle_density(drift, 1.0, lam, MC_GRID.x, 1.0)
        l1 = float(trapezoid(np.abs(hist.values[1] - ref), MC_GRID.dx))
        sample_var = positions[0].var(ddof=1)
        # path h + i of a block mirrors path i (w_mc stream v4), so the sample
        # variance averages n/2 independent squares: its SE is over the pairs
        se = var_target * np.sqrt(2.0 / (n // 2 - 1))
        print(f"criterion 7: {name} L1 {l1:.4f} (<= 0.02), variance {sample_var:.5f} "
              f"vs {var_target:.5f} (3SE = {3 * se:.4f})")
        assert l1 <= 0.02
        assert abs(sample_var - var_target) <= 3 * se
    elapsed = time.perf_counter() - start
    print(f"criterion 7: runtime {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_7_monte_carlo_reproducibility():
    """Rerunning with the master seed regenerates the ensemble bit for bit."""
    a = em_simulate(quadratic_ou(), 1.0, 0.1, 0.01, [0.5, 1.0], 1e-3, 20000, SEED)
    b = em_simulate(quadratic_ou(), 1.0, 0.1, 0.01, [0.5, 1.0], 1e-3, 20000, SEED)
    assert np.array_equal(a, b)
    print("criterion 7: same-seed rerun is bit-identical")


def test_criterion_8_normalization_and_positivity_suite():
    """Every emitted density: per-slice mass at its producer tolerance, no
    value below -1e-12."""
    grid = Grid(-16.0, 16.0, 641, 0.05, 2.0, 41)
    drift1 = linear_time_modulated(COS)
    driftq = quadratic_ou()
    produced = [
        ("assembled-analytic", assemble_density(analytic_expansion(drift1, 1.0, 0.5, 2, grid), drift1), 1e-12),
        ("assembled-numeric", assemble_density(solve_expansion(driftq, 1.0, 0.1, 2, grid), driftq), 1e-12),
        ("fd", fp_fd_solve(driftq, 1.0, 0.1, grid, normalized_init(driftq, 0.1, grid)), 1e-8),
        (
            "mc-histogram",
            density_from_samples(
                em_simulate(driftq, 1.0, 0.1, 0.05, [2.0], 1e-3, 20000, SEED), [1], MC_GRID_T2
            ),
            1e-9,
        ),
    ]
    for name, field, tol in produced:
        for j in np.flatnonzero(field.populated):
            assert abs(slice_mass(field, int(j)) - 1.0) <= tol, f"{name} slice {j}"
        vals = field.values[field.populated]
        assert vals.min() >= -1e-12, name
        print(f"criterion 8: {name} mass within {tol:g}, min value {vals.min():.2e}")


MC_GRID_T2 = Grid(-12.0, 12.0, 49, 0.05, 2.0, 2)


def test_criterion_9_lambda_zero_degeneracy():
    """Every solver collapses to the pure-diffusion solution at lam = 0."""
    x = np.linspace(-9.0, 9.0, 701)
    # closed forms dispatch exactly
    assert np.array_equal(example1_density_exact(x, 1.2, 1.0, 0.0, COS), w0_diffusion(x, 1.2, 1.0))
    assert np.array_equal(ou_density_pert(x, 1.2, 1.0, 0.0), w0_diffusion(x, 1.2, 1.0))
    # the analytic assembly at lam = 0 is bit-identical to the zero-drift one
    grid = Grid(-16.0, 16.0, 641, 0.05, 2.0, 41)
    drift1 = linear_time_modulated(COS)
    w_lin = assemble_density(analytic_expansion(drift1, 1.0, 0.0, 2, grid), drift1)
    w_zero = assemble_density(analytic_expansion(zero_drift(), 1.0, 0.0, 0, grid), zero_drift())
    assert np.array_equal(w_lin.values, w_zero.values)
    ref = sample_density(grid, lambda xx, tt: w0_diffusion(xx, tt, 1.0))
    assert float(field_distance(w_lin, ref, PEAK_RELATIVE_LINF).max()) <= 1e-13
    # numeric cascade at lam = 0
    w_num = assemble_density(solve_expansion(drift1, 1.0, 0.0, 2, grid), drift1)
    num_dev = float(field_distance(w_num, ref, PEAK_RELATIVE_LINF).max())
    print(f"criterion 9: numeric cascade deviation {num_dev:.3e} (<= 1e-10)")
    assert num_dev <= 1e-10
    # FD at lam = 0
    fd_grid = Grid(-12.0, 12.0, 1601, 0.1, 1.0, 451)
    sol = fp_fd_solve(zero_drift(), 1.0, 0.0, fd_grid, normalized_init(zero_drift(), 0.0, fd_grid))
    l1 = float(trapezoid(np.abs(sol.values[-1] - w0_diffusion(fd_grid.x, 1.0, 1.0)), fd_grid.dx))
    print(f"criterion 9: FD L1 vs heat kernel {l1:.3e} (<= 1e-4)")
    assert l1 <= 1e-4
