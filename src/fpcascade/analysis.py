"""Masses, moments and field distances of densities on a grid.

Trapezoid quadrature is used everywhere, matching the second-order accuracy
of the grid-based solvers.
"""

import numpy as np

from .model import DensityField

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


def slice_moments(w: DensityField, j: int):
    """(mean, variance) of slice j by trapezoid quadrature.

    Requires the slice mass to be within 1e-6 of 1 so the moments are those
    of a probability density.
    """
    mass = slice_mass(w, j)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"slice {j} mass {mass:.12g} deviates from 1 beyond 1e-06")
    x = w.grid.x
    vals = w.values[j]
    mean = float(trapezoid(x * vals, w.grid.dx)) / mass
    var = float(trapezoid((x - mean) ** 2 * vals, w.grid.dx)) / mass
    return mean, var


def field_distance(a: DensityField, b: DensityField, metric: str, rows=slice(None)) -> np.ndarray:
    """Per-slice distance between two densities on the same grid, on the time
    slices ``rows`` (a slice or an index array; every slice by default).

    peak-relative-Linf divides by the larger of the two slice peaks, which
    keeps the metric symmetric in its arguments.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    va, vb = a.values[rows], b.values[rows]
    diff = np.abs(va - vb)
    if metric == L1:
        return trapezoid(diff, a.grid.dx)
    if metric == LINF:
        return diff.max(axis=1)
    peak = np.maximum(va.max(axis=1), vb.max(axis=1))
    return diff.max(axis=1) / peak
