"""Order-by-order solver for the action expansion of the transformed density.

Writing psi = exp(S/D) with S = sum_n lam^n S_n turns the Schrodinger-like
equation into a cascade of linear parabolic problems

    dS_n/dt = D S_n'' - (x/t) S_n' + sum_{k=1}^{n-1} S_k' S_{n-k}' + Ubar_n,

where -x/t is twice the spatial derivative of the closed-form order-0 action
S0 = -(D/2) ln(4 pi D t) - x^2/(4t).  Each order is integrated with
Crank-Nicolson (theta = 1/2): central second differences, centered first
differences for the advection term with the coefficient -x/t evaluated at the
half step, and the source averaged between adjacent slices.  The boundary
closure forces zero curvature at the two boundary columns (values linearly
extrapolated from their neighbours), which is exact for the linear drift
family and an O(dx^2) perturbation for the quadratic one; the domain must be
wide enough that the density is negligible there.

The closure's zero-curvature defect excites a boundary layer whenever the
true action term carries curvature out to the edge (the quadratic family
does), and the layer amplitude does not shrink with the mesh.  It does decay
into the interior like exp((x^2 - xb^2) / 2Dt), so solve_expansion runs the
whole cascade on an internally padded domain wide enough to suppress the
layer below the solver tolerance at the requested edge, then crops.

The scheme is implicit and stable for any step ratio; accuracy on the shipped
grids was validated with dt/dx <= 0.5.  The cascade starts at t0 > 0 with
initial slices taken from the closed forms (the same finiteness-at-zero
convention that fixes the integration constants analytically).
"""

import numpy as np

from . import kernels
from .analysis import trapezoid
from .errors import SolverError
from .model import MAX_EXPANSION_ORDER, ActionExpansion, DensityField, DriftSpec, Grid, cascade_pad
from .transform import potential_exponent, effective_potential_order


def analytic_expansion(drift: DriftSpec, d_coeff: float, lam: float, order: int, grid: Grid) -> ActionExpansion:
    """Expansion built from the closed-form action terms (no PDE solves)."""
    if order > MAX_EXPANSION_ORDER or (order and drift.action is None):
        raise ValueError(f"no closed-form action term S_{order} for drift family {drift.family!r}")
    x, t = grid.x, grid.t[:, None]
    # a term that overflows is inf, which action_sum rejects as a SolverError
    with np.errstate(over="ignore"):
        terms = [drift.action(n, x, t, d_coeff) for n in range(1, order + 1)]
    # a vanishing term is shaped like x; ActionExpansion copies the view
    terms = tuple(np.broadcast_to(vals, (grid.nt, grid.nx)) for vals in terms)
    return ActionExpansion(grid=grid, d_coeff=d_coeff, lam=lam, terms=terms)


def _source_arrays(n: int, drift: DriftSpec, d_coeff: float, x, t, grads):
    """Source of the order-n equation, sum_{k=1}^{n-1} S_k' S_{n-k}' + Ubar_n,
    at the times ``t``, which broadcast against x (a scalar gives one row, a
    column a lattice); grads[k - 1] holds the x gradient of order k there,
    for k = 1..n-1.  The k = 0 and k = n convolution terms form the advection
    of the linear operator, which the march handles."""
    vals = np.empty(np.broadcast(t, x).shape)
    vals[...] = effective_potential_order(drift, d_coeff, n, x, t)
    for k in range(1, n):
        vals += grads[k - 1] * grads[n - k - 1]
    return vals


def _gradient(values, dx):
    """x derivative of a row, or of a lattice row by row: central
    differences, second-order one-sided at the boundary columns."""
    return np.gradient(values, dx, axis=-1, edge_order=2)


# time slices per block of the density assembly
_BLOCK = 32


def _march(drift, orders, x, t_nodes, dx, dt, d_coeff, inits):
    """Crank-Nicolson march of the cascade orders ``orders`` from their t0
    slices ``inits``, one time step at a time.

    Each order carries its latest row and the source there.  A step builds
    one band and solves every order on it, lowest first: an order's source at
    the step's end takes the x gradients of the new rows of the orders below
    it, and the step averages it with the carried one.  Yields ``(j, rows)``
    after each step: rows[i] holds the i-th order at t_nodes[j].
    """
    if not orders:
        return
    rows = list(inits)
    # a value past the float range (a fast modulation's source) is inf, or
    # NaN from inf - inf, which the check below turns into a SolverError; an
    # inf gradient ends as the next order's
    with np.errstate(over="ignore", invalid="ignore"):
        grads = [_gradient(row, dx) for row in rows[:-1]]
        sources = [_source_arrays(n, drift, d_coeff, x, t_nodes[0], grads) for n in orders]
    for j in range(1, len(t_nodes)):
        band = kernels.cascade_band(x, t_nodes[j - 1] + 0.5 * dt, d_coeff, dt, dx)
        grads = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, n in enumerate(orders):
                q = _source_arrays(n, drift, d_coeff, x, t_nodes[j], grads)
                dq = sources[i] + q
                dq *= 0.5
                dq *= dt
                try:
                    row = kernels.cascade_cn_step(rows[i], band, dq, np.empty_like(x))
                except ZeroDivisionError as exc:
                    raise SolverError(
                        f"cascade failed at order {n}: tridiagonal solve failed at step {j - 1}"
                    ) from exc
                if not np.all(np.isfinite(row)):
                    raise SolverError(f"cascade failed at order {n}: non-finite values by step {j}")
                if i < len(orders) - 1:
                    grads.append(_gradient(row, dx))
                rows[i], sources[i] = row, q
        yield j, rows


def _padded_nodes(grid: Grid, d_coeff: float):
    """Padded x nodes for the internal cascade solve, plus the crop offset
    (model.cascade_pad)."""
    m = int(cascade_pad(grid, d_coeff))
    xp = grid.x_min + (np.arange(grid.nx + 2 * m) - m) * grid.dx
    return xp, m


def solve_expansion(drift: DriftSpec, d_coeff: float, lam: float, order: int, grid: Grid) -> ActionExpansion:
    """Numeric cascade: orders 1..order by Crank-Nicolson, the ``order``
    solved lattices and nothing else (S0 enters only through the bands'
    advection -x/t; ``ActionExpansion.action_sum`` evaluates it).

    Initial slices come from the drift's closed-form ``action`` (zero for a
    drift without one), inheriting the finiteness-at-zero choice of
    integration constants.  The solve itself runs on a padded domain (see
    _padded_nodes) and is cropped back to the requested grid row by row
    (see _march).
    """
    if order > MAX_EXPANSION_ORDER:  # no closed form to start the order from
        raise ValueError(f"no closed-form action term S_{order} for drift family {drift.family!r}")
    xp, m = _padded_nodes(grid, d_coeff)
    orders = range(1, order + 1)
    if drift.action is None:
        inits = [np.zeros(len(xp)) for _ in orders]
    else:
        inits = [drift.action(n, xp, grid.t0, d_coeff) for n in orders]
    cropped = [np.empty((grid.nt, grid.nx)) for _ in orders]
    for out, init in zip(cropped, inits):  # the march yields the rows after t0
        out[0] = init[m : m + grid.nx]
    for j, rows in _march(drift, orders, xp, grid.t, grid.dx, grid.dt, d_coeff, inits):
        for out, row in zip(cropped, rows):
            out[j] = row[m : m + grid.nx]  # the cropped padded nodes are the grid's nodes bit for bit
    return ActionExpansion(grid=grid, d_coeff=d_coeff, lam=lam, terms=tuple(cropped))


def assemble_density(expansion: ActionExpansion, drift: DriftSpec) -> DensityField:
    """W = exp(-U/2D) exp(S/D), renormalized to unit trapezoid mass per slice.

    The per-slice normalization absorbs the additive integration constants of
    the action terms.
    """
    grid = expansion.grid
    # S/D - U/2D written into the result _BLOCK slices at a time, then exp()
    # in place: the IEEE operations of the whole-lattice formula, so the same
    # bits, with no lattice-sized temporary beside the result.
    w = np.empty((grid.nt, grid.nx))
    # an inf from S/D, U/2D or exp(), or the NaN of inf - inf, ends as one of
    # the SolverErrors below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, grid.nt, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            block = np.divide(expansion.action_sum(rows), expansion.d_coeff, out=w[rows])
            block -= potential_exponent(drift, expansion.d_coeff, expansion.lam, grid, rows)
        np.exp(w, out=w)
    # exp() gives no -inf and max() propagates a NaN, so the max is finite
    # exactly when every value is
    if not np.isfinite(w.max()):
        raise SolverError("assembled density overflowed; widen the domain or reduce lam")
    masses = trapezoid(w, grid.dx)
    if np.any(masses <= 0):
        raise SolverError("assembled density has a non-positive slice mass")
    w /= masses[:, None]
    return DensityField(grid=grid, values=w)
