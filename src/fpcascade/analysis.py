"""Masses, moments, field distances and the scaling-order estimator.

Trapezoid quadrature is used everywhere, matching the second-order accuracy
of the grid-based solvers.
"""

import numpy as np

from .model import DensityField, Grid
from .oracles import ModulationV, example1_density_exact

L1 = "L1"
LINF = "Linf"
PEAK_RELATIVE_LINF = "peak-relative-Linf"

METRICS = (L1, LINF, PEAK_RELATIVE_LINF)


def trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid integral along the last axis of a uniformly spaced sampling."""
    values = np.asarray(values, dtype=float)
    return dx * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def slice_mass(w: DensityField, j: int) -> float:
    """Trapezoid mass of time slice j."""
    if not 0 <= j < w.grid.nt:
        raise IndexError(f"slice index {j} out of range for nt={w.grid.nt}")
    return float(trapezoid(w.values[j], w.grid.dx))


def slice_moments(w: DensityField, j: int, mass_tol: float = 1e-6):
    """(mean, variance) of slice j by trapezoid quadrature.

    Requires the slice mass to be within mass_tol of 1 so the moments are
    those of a probability density.
    """
    mass = slice_mass(w, j)
    if abs(mass - 1.0) > mass_tol:
        raise ValueError(f"slice {j} mass {mass:.12g} deviates from 1 beyond {mass_tol:g}")
    x = w.grid.x
    vals = w.values[j]
    mean = float(trapezoid(x * vals, w.grid.dx)) / mass
    var = float(trapezoid((x - mean) ** 2 * vals, w.grid.dx)) / mass
    return mean, var


def field_distance(a: DensityField, b: DensityField, metric: str) -> np.ndarray:
    """Per-slice distance between two densities on the same grid.

    peak-relative-Linf divides by the larger of the two slice peaks, which
    keeps the metric symmetric in its arguments.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    diff = np.abs(a.values - b.values)
    if metric == L1:
        return trapezoid(diff, a.grid.dx)
    if metric == LINF:
        return diff.max(axis=1)
    peak = np.maximum(a.values.max(axis=1), b.values.max(axis=1))
    return diff.max(axis=1) / peak


def scaling_order_fit(errors) -> float:
    """Least-squares slope of log(error) against log(lambda).

    ``errors`` is an iterable of (lambda, error) pairs, all entries positive,
    with at least 3 distinct lambdas.
    """
    pairs = list(errors)
    lams = np.array([p[0] for p in pairs], dtype=float)
    errs = np.array([p[1] for p in pairs], dtype=float)
    if len(np.unique(lams)) < 3:
        raise ValueError(f"need at least 3 distinct lambdas for a slope fit, got {lams.tolist()}")
    if np.any(lams <= 0) or np.any(errs <= 0):
        raise ValueError("scaling fit requires positive lambdas and errors")
    slope, _ = np.polyfit(np.log(lams), np.log(errs), 1)
    return float(slope)


def normalized_reference(grid: Grid, sampler) -> DensityField:
    """Sample ``sampler(x, t[:, None])``, the (nt, nx) lattice in one call, and
    renormalize each time slice: comparisons against closed-form densities
    happen on the truncated domain, so the reference is given the per-slice
    trapezoid normalization the solvers apply to their own output."""
    vals = sampler(grid.x, grid.t[:, None])
    return DensityField(grid=grid, values=vals / trapezoid(vals, grid.dx)[:, None])


def translation_residual(w: DensityField, d_coeff: float, lam: float, v: ModulationV) -> float:
    """Largest per-slice peak-relative deviation from the shifted heat kernel.

    The linear drift family is solved exactly by the heat kernel evaluated at
    x + lam*Vbar(t); this measures how far a density is from that identity.
    """
    ref = normalized_reference(w.grid, lambda x, t: example1_density_exact(x, t, d_coeff, lam, v))
    return float(field_distance(w, ref, PEAK_RELATIVE_LINF).max())
