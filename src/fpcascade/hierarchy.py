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
from .model import (
    ActionExpansion,
    DensityField,
    DriftSpec,
    FAMILY_LINEAR,
    FAMILY_QUADRATIC,
    FAMILY_ZERO,
    Grid,
    ScalarField,
    TAG_ACTION,
    TAG_POTENTIAL_ORDER,
)
from .oracles import example1_s1, example1_s2, ou_s1, ou_s2, s0_log_heat_kernel
from .transform import potential_exponent, effective_potential_order


def s0_closed_form(grid: Grid, d_coeff: float) -> ScalarField:
    """Order-0 action sampled on the grid (point-source initial profile)."""
    if not d_coeff > 0:
        raise ValueError("diffusion constant must be > 0")
    vals = s0_log_heat_kernel(grid.x, grid.t[:, None], d_coeff)
    return ScalarField(grid=grid, values=vals, tag=TAG_ACTION, order=0)


# S_2k = c_k t^(2k-1) (D t + k x^2) for the quadratic family, with
# c_k = -B_2k 4^(k-1) / (k (2k)!) (B_2k the Bernoulli numbers), from the
# series in lam of the family's exact action; S_2 is oracles.ou_s2 and the odd
# orders beyond S_1 vanish
_OU_EVEN_COEFFS = {4: 1.0 / 360.0, 6: -1.0 / 5670.0, 8: 1.0 / 75600.0}


def _closed_form_term(drift: DriftSpec, d_coeff: float, n: int, x, t):
    """Closed-form S_n(x, t) for the built-in families; None when unknown.
    Elementwise, so a column t (``grid.t[:, None]``) gives the whole lattice."""
    if n == 0:
        return s0_log_heat_kernel(x, t, d_coeff)
    if drift.family == FAMILY_ZERO:
        return np.zeros_like(np.asarray(x, dtype=float))
    if drift.family == FAMILY_LINEAR:
        if n == 1:
            return example1_s1(x, t, drift.modulation)
        if n == 2:
            return example1_s2(x, t, drift.modulation)
        return np.zeros_like(np.asarray(x, dtype=float))
    if drift.family == FAMILY_QUADRATIC:
        if n == 1:
            return ou_s1(t, d_coeff) * np.ones_like(np.asarray(x, dtype=float))
        if n == 2:
            return ou_s2(x, t, d_coeff)
        if n % 2:
            return np.zeros_like(np.asarray(x, dtype=float))
        if n in _OU_EVEN_COEFFS:
            x = np.asarray(x, dtype=float)
            # float_power: numpy's vectorized float64 ** can be an ulp off the scalar pow
            return _OU_EVEN_COEFFS[n] * np.float_power(t, n - 1) * (d_coeff * t + (n // 2) * x * x)
    return None


def analytic_expansion(drift: DriftSpec, d_coeff: float, lam: float, order: int, grid: Grid) -> ActionExpansion:
    """Expansion built from the closed-form action terms (no PDE solves)."""
    terms = [s0_closed_form(grid, d_coeff)]
    for n in range(1, order + 1):
        vals = _closed_form_term(drift, d_coeff, n, grid.x, grid.t[:, None])
        if vals is None:
            raise ValueError(f"no closed-form action term S_{n} for drift family {drift.family!r}")
        vals = np.broadcast_to(vals, (grid.nt, grid.nx))  # a vanishing term is shaped like x
        terms.append(ScalarField(grid=grid, values=vals, tag=TAG_ACTION, order=n))
    return ActionExpansion(d_coeff=d_coeff, lam=lam, terms=tuple(terms))


def _source_arrays(n: int, drift: DriftSpec, d_coeff: float, x, t_nodes, grads):
    """Order-n source on the (t_nodes, x) lattice; grads[k - 1] holds the x
    gradient of order k on that lattice, for k = 1..n-1."""
    vals = np.empty((len(t_nodes), len(x)))
    vals[...] = effective_potential_order(drift, d_coeff, n, x, t_nodes[:, None])
    for k in range(1, n):
        vals += grads[k - 1] * grads[n - k - 1]
    return vals


def _gradient(values, dx):
    """x derivative row by row: central differences, second-order one-sided
    at the boundary columns."""
    return np.gradient(values, dx, axis=1, edge_order=2)


def cascade_source(n: int, drift: DriftSpec, d_coeff: float, solved) -> ScalarField:
    """Source of the order-n equation: sum_{k=1}^{n-1} S_k' S_{n-k}' + Ubar_n.

    ``solved`` holds the ScalarFields of orders 0..n-1.  The k = 0 and k = n
    convolution terms form the advection part of the linear operator and are
    handled by advance_term, not here.  Spatial derivatives of the solved
    terms use central differences, second-order one-sided at the boundary
    columns.
    """
    if n < 1:
        raise ValueError(f"source is defined for orders >= 1, got {n}")
    if len(solved) < n:
        raise ValueError(f"order-{n} source needs orders 0..{n - 1} solved, have {len(solved)}")
    grid = solved[0].grid
    grads = [_gradient(s.values, grid.dx) for s in solved[1:n]]
    vals = _source_arrays(n, drift, d_coeff, grid.x, grid.t, grads)
    return ScalarField(grid=grid, values=vals, tag=TAG_POTENTIAL_ORDER, order=n)


# time steps per block of the cascade march; a block's bands, sources and
# gradients take a few MB on the padded acceptance grids (docs/method.md)
_BLOCK = 32


def _march(orders, x, t_nodes, dx, dt, d_coeff, inits, source):
    """Crank-Nicolson march of the cascade orders ``orders`` from their t0
    slices ``inits``, in blocks of _BLOCK steps.

    Each block builds the bands of its steps once and solves every order on
    them, lowest first.  ``source(i, rows, grads)`` returns the source of the
    i-th order on the time rows ``rows`` (a slice), given grads[k], the x
    gradient of the k-th order (k < i) on those rows.  Yields ``(rows,
    solved)`` per block: solved[i] holds the i-th order on ``rows``, the
    block's new rows, plus row 0 in the first block.  Each order's last row
    and last source row carry over to the next block.
    """
    nt = len(t_nodes)
    last = list(inits)  # each order's latest solved row
    q_last = [None] * len(orders)  # each order's source at that row
    lo = 0
    while orders and lo < nt - 1:
        hi = min(lo + _BLOCK, nt - 1)
        rows = slice(0 if lo == 0 else lo + 1, hi + 1)
        bands = kernels.cascade_bands(x, t_nodes[lo:hi] + 0.5 * dt, d_coeff, dt, dx)
        solved, grads = [], []
        for i, n in enumerate(orders):
            q = source(i, rows, grads)
            if lo > 0:
                q = np.concatenate((q_last[i][None], q))
            dq = q[:-1] + q[1:]
            dq *= 0.5
            dq *= dt
            vals = np.empty((hi - lo + 1, len(x)))
            vals[0] = last[i]
            for j, band in enumerate(bands):
                try:
                    kernels.cascade_cn_step(vals[j], band, dq[j], vals[j + 1])
                except ZeroDivisionError as exc:
                    raise SolverError(
                        f"cascade failed at order {n}: tridiagonal solve failed at step {lo + j}"
                    ) from exc
            if not np.all(np.isfinite(vals)):
                raise SolverError(f"cascade failed at order {n}: non-finite values by step {hi}")
            last[i], q_last[i] = vals[-1].copy(), q[-1].copy()
            if lo > 0:
                vals = vals[1:]
            solved.append(vals)
            if i < len(orders) - 1:
                grads.append(_gradient(vals, dx))
        yield rows, solved
        lo = hi


def advance_term(n: int, source: ScalarField, d_coeff: float, grid: Grid, init: np.ndarray) -> ScalarField:
    """Crank-Nicolson integration of one cascade order from its t0 slice."""
    if grid.nx < 5:
        raise SolverError("the cascade solver needs nx >= 5 for its boundary closure")
    init = np.asarray(init, dtype=float)
    if init.shape != (grid.nx,):
        raise ValueError(f"initial slice must have shape ({grid.nx},)")
    def given(i, rows, grads):
        return source.values[rows]

    vals = np.empty((grid.nt, grid.nx))
    for rows, (solved,) in _march([n], grid.x, grid.t, grid.dx, grid.dt, d_coeff, [init], given):
        vals[rows] = solved
    return ScalarField(grid=grid, values=vals, tag=TAG_ACTION, order=n)


def _padded_nodes(grid: Grid, d_coeff: float):
    """Padded x nodes for the internal cascade solve, plus the crop offset.

    The pad pushes the closure's boundary layer far enough out that its
    amplitude at the requested edge is suppressed by about exp(-10).
    """
    half = max(abs(grid.x_min), abs(grid.x_max))
    target = np.sqrt(half * half + 20.0 * d_coeff * grid.t_max)
    m = max(int(np.ceil((target - half) / grid.dx)), 8)
    xp = grid.x_min + (np.arange(grid.nx + 2 * m) - m) * grid.dx
    return xp, m


def _require_zero_base(drift: DriftSpec, grid: Grid, xp):
    """Reject a base term (order-0 potential) that is nonzero on any of the
    nodes ``xp`` the cascade evaluates, at t0, mid-run or t_max."""
    base = drift.orders[0]
    for t_probe in (grid.t0, 0.5 * (grid.t0 + grid.t_max), grid.t_max):
        for which in (base.u, base.du_dx, base.d2u_dx2, base.du_dt):
            if np.any(which(xp, t_probe) != 0.0):
                raise SolverError(
                    "the cascade requires a vanishing base drift term (order-0 potential); "
                    "this drift has a nonzero base and is out of scope"
                )


def solve_expansion(drift: DriftSpec, d_coeff: float, lam: float, order: int, grid: Grid) -> ActionExpansion:
    """Numeric cascade: S0 closed form, then orders 1..order by Crank-Nicolson.

    Initial slices come from the closed forms of the built-in families (zero
    for an order with no known closed form), inheriting the finiteness-at-zero choice
    of integration constants.  The solve itself runs on a padded domain (see
    _padded_nodes) and is cropped back to the requested grid, block by block
    (see _march).
    """
    if grid.nx < 5:
        raise SolverError("the cascade solver needs nx >= 5 for its boundary closure")
    xp, m = _padded_nodes(grid, d_coeff)
    _require_zero_base(drift, grid, xp)
    orders = range(1, order + 1)
    inits = []
    for n in orders:
        init = _closed_form_term(drift, d_coeff, n, xp, grid.t0)
        inits.append(np.zeros(len(xp)) if init is None else init)
    # S0 enters the cascade only through its advection -x/t, so it is
    # evaluated on the requested nodes alone, and per slice: a lattice call
    # costs 13 MB of peak RSS on the acceptance grids (docs/method.md)
    s0 = np.empty((grid.nt, grid.nx))
    for j, tj in enumerate(grid.t):
        s0[j] = s0_log_heat_kernel(grid.x, tj, d_coeff)
    terms = [ScalarField(grid=grid, values=s0, tag=TAG_ACTION, order=0)]
    cropped = [np.empty((grid.nt, grid.nx)) for _ in orders]

    def source(i, rows, grads):
        return _source_arrays(orders[i], drift, d_coeff, xp, grid.t[rows], grads)

    for rows, solved in _march(orders, xp, grid.t, grid.dx, grid.dt, d_coeff, inits, source):
        for out, vals in zip(cropped, solved):
            out[rows] = vals[:, m : m + grid.nx]  # the cropped padded nodes are the grid's nodes bit for bit
    terms += [ScalarField(grid=grid, values=vals, tag=TAG_ACTION, order=n) for n, vals in zip(orders, cropped)]
    return ActionExpansion(d_coeff=d_coeff, lam=lam, terms=tuple(terms))


def assemble_density(expansion: ActionExpansion, drift: DriftSpec) -> DensityField:
    """W = exp(-U/2D) exp(S/D), renormalized to unit trapezoid mass per slice.

    The per-slice normalization absorbs the additive integration constants of
    the action terms.
    """
    grid = expansion.grid
    s_over_d = expansion.action_sum() / expansion.d_coeff
    u_expo = potential_exponent(drift, expansion.d_coeff, expansion.lam, grid)
    w = np.exp(s_over_d - u_expo)
    if not np.all(np.isfinite(w)):
        raise SolverError("assembled density overflowed; widen the domain or reduce lam")
    masses = trapezoid(w, grid.dx)
    if np.any(masses <= 0):
        raise SolverError("assembled density has a non-positive slice mass")
    w /= masses[:, None]
    return DensityField(grid=grid, values=w)


def cascade_residual(n: int, expansion: ActionExpansion, drift: DriftSpec) -> float:
    """Max-abs defect of the order-n equation on the solved fields.

    Time derivative by central differences on interior slices, spatial terms
    by central differences on interior columns; a self-consistency diagnostic.
    """
    if not 1 <= n <= expansion.order:
        raise ValueError(f"residual needs 1 <= n <= {expansion.order}, got {n}")
    grid = expansion.grid
    term = expansion.terms[n].values
    source = cascade_source(n, drift, expansion.d_coeff, expansion.terms[:n]).values
    dx, dt = grid.dx, grid.dt
    mid = term[1:-1]
    dsdt = (term[2:, 1:-1] - term[:-2, 1:-1]) / (2.0 * dt)
    d2 = (mid[:, 2:] - 2.0 * mid[:, 1:-1] + mid[:, :-2]) / (dx * dx)
    d1 = (mid[:, 2:] - mid[:, :-2]) / (2.0 * dx)
    rhs = expansion.d_coeff * d2 - (grid.x[1:-1] / grid.t[1:-1, None]) * d1 + source[1:-1, 1:-1]
    return float(np.abs(dsdt - rhs).max(initial=0.0))
