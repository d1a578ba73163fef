"""Reference solvers independent of the perturbative machinery.

Two back ends validate the cascade output:

* ``fp_fd_solve`` integrates the density equation directly,
  dw/dt = -d/dx(D1 w) + D w'' with D1 = -dU/dx, with a conservative
  fourth-order compact flux (``kernels.fp_band``), Crank-Nicolson time
  stepping and absorbing (zero) boundary values.

* ``em_simulate`` runs Euler-Maruyama paths of the matching stochastic
  process dx = D1(x,t) dt + sqrt(2D) dB.  Normal increments come from one
  numpy ``Generator(SFC64)`` per fixed block of 4096 paths, drawn for the
  first half of the block's paths and negated for the second half
  (antithetic pairs), so ensembles are bit-reproducible and independent of
  how the blocks are spread over processes.

Both start from the family's closed-form density at t0 > 0, the same initial
data the cascade uses, so all solvers address one initial-value problem.
"""

import math
import os

import numpy as np

from . import forked, kernels
from .analysis import trapezoid
from .errors import SolverError
from .model import NEGATIVITY_FLOOR, DensityField, DriftSpec, Grid, em_steps, oracle_law
from .oracles import w0_diffusion


def oracle_density(drift: DriftSpec, d_coeff: float, lam: float, x, t):
    """The drift's closed-form density at time t; a column t
    (``grid.t[:, None]``) gives the lattice."""
    centre, time = oracle_law(drift, lam, t)
    return w0_diffusion(x - centre, time, d_coeff)


# fp_fd_solve aborts when a slice's trapezoid mass is off 1 by more than this
FD_MASS_TOL = 1e-8
# the longest Crank-Nicolson step of fp_fd_solve as a fraction of the time it
# starts at, where kernels.FD_MIN_STEP allows; a longer output step is split
# into substeps
FD_SUBSTEP_RATIO = 0.05


def fd_substeps(t_start: float, t_end: float, dt: float, dx: float, d_coeff: float) -> list:
    """The (mid time, length) of each Crank-Nicolson step that takes
    fp_fd_solve from t_start to t_end, an output step of length dt, on a
    grid of spacing dx at diffusion constant d_coeff.

    A substep at time t aims at length ``max(FD_SUBSTEP_RATIO * t, h_min)``,
    where ``h_min = kernels.FD_MIN_STEP * dx^2 / D``.  So substeps are ``h_min``
    long below ``t = h_min / FD_SUBSTEP_RATIO`` and grow by a factor
    ``1 + FD_SUBSTEP_RATIO`` above it.

    An output step no longer than that aim at t_start is one step,
    ``[(t_start + 0.5 * dt, dt)]``.  A longer one is split evenly in the
    count of aims it spans, into its ceiling, but into no more substeps than
    keep the first (the shortest) at least ``h_min`` long; the last ends on
    t_end.
    """
    h_min = kernels.FD_MIN_STEP * dx * dx / d_coeff
    if dt <= max(FD_SUBSTEP_RATIO * t_start, h_min):
        return [(t_start + 0.5 * dt, dt)]
    # "clock" counts aims from t_start: uniform up to knee, then in
    # logarithms, since t_end / t_start may overflow
    log_step = math.log1p(FD_SUBSTEP_RATIO)
    knee = max(t_start, h_min / FD_SUBSTEP_RATIO)
    uniform, log_knee = (knee - t_start) / h_min if knee > t_start else 0.0, math.log(knee)

    def clock(t):
        return (t - t_start) / h_min if t <= knee else uniform + (math.log(t) - log_knee) / log_step

    def time(c):
        return t_start + c * h_min if c <= uniform else math.exp(log_knee + (c - uniform) * log_step)

    span = clock(t_end)
    first = clock(t_start + h_min) if h_min > 0 else 0.0  # the clock of the shortest allowed first substep
    n = math.ceil(span)
    if n * first > span:
        n = max(1, math.floor(span / first))
    if n == 1:
        return [(t_start + 0.5 * dt, dt)]
    bounds = [t_start, *(time(span * k / n) for k in range(1, n)), t_end]
    return [(a + 0.5 * (b - a), b - a) for a, b in zip(bounds, bounds[1:])]


def fp_fd_solve(drift: DriftSpec, d_coeff: float, lam: float, grid: Grid, w_init: np.ndarray) -> DensityField:
    """Crank-Nicolson integration of the density equation with the
    conservative fourth-order compact flux of ``kernels.fp_band``.

    Output step j runs through the CN steps ``fd_substeps`` gives for it, so
    an early step longer than ``FD_SUBSTEP_RATIO`` times its start time (and
    longer than ``dx^2 / (6 D)``) is taken in substeps.

    The initial slice must be finite and non-negative with trapezoid mass 1
    within ``FD_MASS_TOL``.  Aborts if a slice's mass drifts from 1 beyond
    ``FD_MASS_TOL``: the scheme conserves the trapezoid mass to rounding, so
    a loss is mass carried out through the absorbing edges (the domain is
    then too narrow for the run).  It also aborts on an undershoot below
    ``NEGATIVITY_FLOOR`` and on non-finite values.  These checks run once
    per output slice, and every abort names the output step.
    """
    w_init = np.asarray(w_init, dtype=float)
    if w_init.shape != (grid.nx,):
        raise ValueError(f"initial slice must have shape ({grid.nx},)")
    # NaN passes both checks below, and an inf would be named a mass error
    if not np.isfinite(w_init).all():
        raise ValueError("initial slice must hold finite values only")
    if w_init.min() < 0:
        raise ValueError("initial density must be non-negative")
    if abs(float(trapezoid(w_init, grid.dx)) - 1.0) > FD_MASS_TOL:
        raise ValueError(f"initial density must have unit trapezoid mass within {FD_MASS_TOL:g}")
    x = grid.x
    x_half = x[:-1] + 0.5 * grid.dx
    dx, dt = grid.dx, grid.dt
    vals = np.empty((grid.nt, grid.nx))
    vals[0] = w_init
    vals[0, 0] = 0.0
    vals[0, -1] = 0.0

    def check_slice(j):
        w = vals[j]
        mass = float(trapezoid(w, dx))
        if abs(mass - 1.0) > FD_MASS_TOL:
            how = "gained" if mass > 1.0 else "lost through the edges; widen the domain"
            raise SolverError(
                f"FD mass drift |{mass:.12g} - 1| > {FD_MASS_TOL:g} first at step {j} (t={grid.t[j]:.6g}): "
                f"mass {how}"
            )
        peak, low = w.max(), w.min()
        if low < NEGATIVITY_FLOOR:
            raise SolverError(
                f"FD undershoot {low:.3e} below {NEGATIVITY_FLOOR:.0e} at step {j}; refine the grid"
            )
        # a NaN passes the checks above; max() and min() propagate it
        if not (np.isfinite(peak) and np.isfinite(low)):
            raise SolverError(f"FD solve produced non-finite values at step {j} (t={grid.t[j]:.6g})")

    check_slice(0)
    # the band is rebuilt only when the step length or the interface drift
    # changes in a bit: for a drift constant in time (the zero and quadratic
    # families) only where the early substeps begin, change or end
    a_half, a_next = np.empty(grid.nx - 1), np.empty(grid.nx - 1)
    band, band_h = None, None
    for j in range(grid.nt - 1):
        w_in = vals[j]
        for tm, h in fd_substeps(float(grid.t[j]), float(grid.t[j + 1]), dt, dx, d_coeff):
            np.multiply(drift.du_dx(x_half, tm), lam, out=a_next)
            np.negative(a_next, out=a_next)
            if h != band_h or not np.array_equal(a_next.view(np.uint64), a_half.view(np.uint64)):
                band, band_h = kernels.fp_band(a_next, d_coeff, h, dx), h
                a_half, a_next = a_next, a_half
            try:
                kernels.fp_cn_step(w_in, band, vals[j + 1])
            except ZeroDivisionError as exc:
                raise SolverError(f"FD tridiagonal solve failed at step {j}") from exc
            w_in = vals[j + 1]
        check_slice(j + 1)
    return DensityField(grid=grid, values=vals)


# em_simulate runs its paths in at most this many chunks, one process each:
# the CPUs this process may use
if hasattr(os, "sched_getaffinity"):
    _EM_CHUNKS = len(os.sched_getaffinity(0))
else:
    _EM_CHUNKS = os.cpu_count() or 1
# paths per normal-generator block; a chunk is a run of whole blocks, and
# fewer paths than two blocks run in the calling process alone
_EM_BLOCK = 4096


def em_simulate(
    drift: DriftSpec,
    d_coeff: float,
    lam: float,
    t0: float,
    checkpoints,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Euler-Maruyama paths from the closed-form density at t0, returned as
    positions of shape (len(checkpoints), n_paths): row k holds every path
    at checkpoints[k].

    ``dt`` is the maximum step; each inter-checkpoint interval is subdivided
    evenly so checkpoints are hit exactly.  Block b of m paths (4096, or fewer
    in the last block) draws from
    ``Generator(SFC64(SeedSequence(seed, spawn_key=(b,))))``: first for the
    initial positions, then once per step, it draws h = ceil(m/2) normals
    into its paths [0, h), and paths [h, m) take the negations of the first
    m - h of them (w_mc stream v3).  With mean 0 at t0 and a drift odd in x
    (zero drift, the quadratic family), path h + i is then the bit-exact
    mirror -x of path i.

    Blocks are independent, so they run in chunks of whole blocks, one per
    usable CPU: the first in this process and the others in forked children
    (``forked.run_split``) that write their paths into ``positions`` on a
    shared anonymous mapping.  The result does not depend on the number of
    chunks, nor on whether they fork.
    """
    if not t0 > 0:
        raise ValueError("t0 must be > 0")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    checkpoints = [float(c) for c in checkpoints]
    if not checkpoints or list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be a non-empty ascending sequence")
    if checkpoints[0] < t0:
        raise ValueError("checkpoints must be >= t0")

    noise_scale = np.sqrt(2.0 * d_coeff)
    # (checkpoint, steps before it, step size, noise scale of one step)
    steps = em_steps(t0, checkpoints, dt)
    segments = [(c, n, h, noise_scale * np.sqrt(h)) for c, (n, h) in zip(checkpoints, steps)]
    mean0, time0 = oracle_law(drift, lam, t0)

    import mmap  # only a run that samples needs these
    from numpy.random import SFC64, Generator, SeedSequence

    # on a shared mapping, so that the chunks run in forked children write into it
    positions = np.frombuffer(mmap.mmap(-1, 8 * len(checkpoints) * n_paths)).reshape(-1, n_paths)
    n_blocks = -(-n_paths // _EM_BLOCK)
    n_chunks = max(1, min(_EM_CHUNKS, n_paths // _EM_BLOCK))
    bounds = [min(n_blocks * i // n_chunks * _EM_BLOCK, n_paths) for i in range(n_chunks + 1)]
    sd0 = np.sqrt(2.0 * d_coeff * time0)

    def run_chunk(lo, hi):  # paths [lo, hi): whole blocks, but for the last chunk
        blocks = range(lo // _EM_BLOCK, -(-hi // _EM_BLOCK))
        gens = [Generator(SFC64(SeedSequence(seed, spawn_key=(b,)))) for b in blocks]
        _em_paths(drift, lam, t0, segments, mean0, sd0, gens, positions[:, lo:hi], *np.empty((2, hi - lo)))

    forked.run_split("Monte Carlo chunk process", run_chunk, list(zip(bounds, bounds[1:])))
    return positions


def _em_paths(drift, lam, t0, segments, mean0, sd0, gens, positions, z, a):
    """Step the paths of the blocks ``gens`` through ``segments``; row j of
    ``positions`` receives them at checkpoint j.

    Each step fills ``z`` block by block, the first half of a block's paths
    with drawn normals and the rest with their negations, and scales it by
    the segment's noise scale; ``a`` is the drift buffer of ``em_step``.
    """
    pairs = []  # (generator, drawn half, mirrored half, its source) per block
    for gen, lo in zip(gens, range(0, len(z), _EM_BLOCK)):
        m = min(_EM_BLOCK, len(z) - lo)
        h = (m + 1) // 2
        pairs.append((gen, z[lo : lo + h], z[lo + h : lo + m], z[lo : lo + m - h]))

    def draw():
        for gen, drawn, mirrored, source in pairs:
            gen.standard_normal(out=drawn)
            np.negative(source, out=mirrored)

    draw()
    x = positions[-1]  # the last checkpoint row doubles as the current positions
    np.multiply(z, sd0, out=x)
    np.add(x, mean0, out=x)
    t_now = t0
    for j, (c, n_steps, h, scale) in enumerate(segments):
        for _ in range(n_steps):
            draw()
            np.multiply(z, scale, out=z)
            em_step(drift, lam, x, t_now, h, z, a)
            t_now += h
        if n_steps:
            t_now = c
        if j < len(segments) - 1:
            positions[j] = x


def em_step(drift, lam, x, t, h, dz, a):
    """One Euler-Maruyama step in place: x <- (x + D1(x,t)*h) + dz.

    dU/dx = lam U_1' goes into the work buffer ``a`` (float64, shaped like x,
    not sharing memory with it), so the step allocates nothing.  ``dU/dx *
    (-h)`` is ``(-dU/dx) * h`` bit for bit, so the result equals the
    allocating ``x + (-(lam * drift.du_dx(x, t)))*h + dz`` in every bit.
    """
    np.multiply(drift.du_dx(x, t), lam, out=a)
    np.multiply(a, -h, out=a)
    np.add(x, a, out=x)
    np.add(x, dz, out=x)


def density_from_samples(positions, slices, grid: Grid) -> DensityField:
    """Histogram density on the grid's x nodes at the time slices ``slices``.

    Row k of ``positions`` (shaped (len(slices), n_paths), as em_simulate
    returns it) holds the samples of time slice ``slices[k]``.  Bins are dx
    wide and centered on the nodes; counts are normalized so the trapezoid
    mass of each populated slice is exactly 1.  The other time slices are
    left unpopulated (NaN values, mask False).
    """
    if list(slices) != sorted(set(slices)) or not all(0 <= j < grid.nt for j in slices):
        raise ValueError(f"slices must be ascending, distinct indices in [0, {grid.nt}), "
                         f"got {list(map(int, slices))}")
    if len(positions) != len(slices):
        raise ValueError(f"{len(positions)} rows of positions for {len(slices)} slices")
    edges = grid.x_min + (np.arange(grid.nx + 1) - 0.5) * grid.dx
    vals = np.full((grid.nt, grid.nx), np.nan)
    mask = np.zeros(grid.nt, dtype=bool)
    for j, pos in zip(slices, positions):
        if len(pos) == 0:
            raise ValueError(f"slice {j} holds no samples")
        counts, _ = np.histogram(pos, bins=edges)
        w = counts / (len(pos) * grid.dx)
        mass = float(trapezoid(w, grid.dx))
        if mass <= 0:
            raise ValueError(f"all samples of slice {j} fall outside the grid")
        vals[j] = w / mass
        mask[j] = True
    return DensityField(grid=grid, values=vals, populated=mask)
