"""Reference solvers independent of the perturbative machinery.

Two back ends validate the cascade output:

* ``fp_fd_solve`` integrates the density equation directly,
  dw/dt = -d/dx(D1 w) + D w'' with D1 = -dU/dx, in conservative flux form
  with Crank-Nicolson time stepping and absorbing (zero) boundary values.

* ``em_simulate`` runs Euler-Maruyama paths of the matching stochastic
  process dx = D1(x,t) dt + sqrt(2D) dB.  Normal increments come from one
  numpy ``Generator(SFC64)`` per fixed block of 4096 paths, so ensembles are
  bit-reproducible and independent of how the blocks are spread over threads.

Both start from the family's closed-form density at t0 > 0, the same initial
data the cascade uses, so all solvers address one initial-value problem.
"""

import os
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from . import kernels
from .analysis import trapezoid
from .errors import SolverError
from .model import (
    DensityField,
    DriftSpec,
    FAMILY_LINEAR,
    FAMILY_QUADRATIC,
    FAMILY_ZERO,
    Grid,
)
from .oracles import example1_density_exact, ou_density_exact, w0_diffusion


def oracle_density(drift: DriftSpec, d_coeff: float, lam: float, x, t):
    """Closed-form density of a built-in family at time t (lam = 0 falls back
    to the heat kernel); a column t (``grid.t[:, None]``) gives the lattice."""
    if drift.family == FAMILY_ZERO or lam == 0.0:
        return w0_diffusion(x, t, d_coeff)
    if drift.family == FAMILY_LINEAR:
        return example1_density_exact(x, t, d_coeff, lam, drift.modulation)
    if drift.family == FAMILY_QUADRATIC:
        return ou_density_exact(x, t, d_coeff, lam)
    raise ValueError(f"no closed-form density for drift family {drift.family!r}")


def oracle_moments(drift: DriftSpec, d_coeff: float, lam: float, t):
    """(mean, variance) of the closed-form density at time t."""
    if drift.family == FAMILY_ZERO or lam == 0.0:
        return 0.0, 2.0 * d_coeff * t
    if drift.family == FAMILY_LINEAR:
        return -lam * float(drift.modulation.antiderivative(t)), 2.0 * d_coeff * t
    if drift.family == FAMILY_QUADRATIC:
        return 0.0, d_coeff * (1.0 - np.exp(-2.0 * lam * t)) / lam
    raise ValueError(f"no closed-form moments for drift family {drift.family!r}")


def fp_fd_solve(
    drift: DriftSpec,
    d_coeff: float,
    lam: float,
    grid: Grid,
    w_init: np.ndarray,
    mass_tol: float = 1e-8,
    boundary_tol: float = 1e-12,
) -> DensityField:
    """Crank-Nicolson flux-form integration of the density equation.

    The initial slice must be non-negative with trapezoid mass 1 within 1e-8.
    Aborts if the per-slice mass drifts beyond ``mass_tol`` or if the density
    next to the absorbing boundary ever exceeds ``boundary_tol`` of the slice
    peak (the domain is then too narrow for the run).
    """
    if grid.nx < 5:
        raise SolverError("the FD solver needs nx >= 5")
    w_init = np.asarray(w_init, dtype=float)
    if w_init.shape != (grid.nx,):
        raise ValueError(f"initial slice must have shape ({grid.nx},)")
    if w_init.min() < 0:
        raise ValueError("initial density must be non-negative")
    if abs(float(trapezoid(w_init, grid.dx)) - 1.0) > 1e-8:
        raise ValueError("initial density must have unit trapezoid mass within 1e-8")
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
        if abs(mass - 1.0) > mass_tol:
            raise SolverError(
                f"FD mass drift |{mass:.12g} - 1| > {mass_tol:g} first at step {j} (t={grid.t[j]:.6g})"
            )
        peak = w.max()
        if max(w[1], w[-2]) > boundary_tol * peak:
            raise SolverError(
                f"FD boundary leak at step {j} (t={grid.t[j]:.6g}): density next to the edge "
                f"exceeds {boundary_tol:g} of the peak; widen the domain"
            )
        if w.min() < -1e-12:
            raise SolverError(
                f"FD undershoot {w.min():.3e} below -1e-12 at step {j}; refine the grid"
            )

    check_slice(0)
    # the band is rebuilt only when the interface drift changes in a bit:
    # never for a drift constant in time (the zero and quadratic families)
    a_half, a_next = np.empty(grid.nx - 1), np.empty(grid.nx - 1)
    band = None
    for j in range(grid.nt - 1):
        tm = grid.t[j] + 0.5 * dt
        drift.drift_coefficient(x_half, tm, lam, out=a_next)
        if band is None or not np.array_equal(a_next.view(np.uint64), a_half.view(np.uint64)):
            band = kernels.fp_band(a_next, d_coeff, dt, dx)
            a_half, a_next = a_next, a_half
        try:
            kernels.fp_cn_step(vals[j], band, vals[j + 1])
        except ZeroDivisionError as exc:
            raise SolverError(f"FD tridiagonal solve failed at step {j}") from exc
        check_slice(j + 1)
    if not np.all(np.isfinite(vals)):
        raise SolverError("FD solve produced non-finite values")
    return DensityField(grid=grid, values=vals)


@dataclass(frozen=True)
class SampleEnsemble:
    """Particle positions at each checkpoint time, plus the seed that made them."""

    checkpoints: tuple
    positions: tuple  # of float arrays, one per checkpoint, each length n_paths
    seed: int

    def __post_init__(self):
        if not self.positions:
            raise ValueError("ensemble needs at least one checkpoint")
        n = len(self.positions[0])
        for k, arr in enumerate(self.positions):
            if len(arr) != n:
                raise ValueError(f"checkpoint {k} has {len(arr)} paths, expected {n}")

    @property
    def n_paths(self) -> int:
        return len(self.positions[0])


# em_simulate runs its paths in at most this many chunks, one thread each:
# the CPUs this process may use
if hasattr(os, "sched_getaffinity"):
    _EM_CHUNKS = len(os.sched_getaffinity(0))
else:
    _EM_CHUNKS = os.cpu_count() or 1
# paths per normal-generator block; a chunk is a run of whole blocks, and
# fewer paths than two blocks run on the calling thread alone
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
) -> SampleEnsemble:
    """Euler-Maruyama paths from the closed-form density at t0.

    ``dt`` is the maximum step; each inter-checkpoint interval is subdivided
    evenly so checkpoints are hit exactly.  Block b of 4096 paths draws from
    ``Generator(SFC64(SeedSequence(seed, spawn_key=(b,))))``: first one normal
    per path for the initial positions, then one per path and step, in path
    order.

    Blocks are independent, so they run in chunks of whole blocks, one thread
    per usable CPU (numpy releases the GIL inside the array operations and
    the draws); the result does not depend on the number of chunks.
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
    segments = []
    t_now = t0
    for c in checkpoints:
        span = c - t_now
        n_steps, h, scale = 0, 0.0, 0.0
        if span > 0:
            n_steps = max(int(np.ceil(span / dt - 1e-12)), 1)
            h = span / n_steps
            scale = noise_scale * np.sqrt(h)
            t_now = c
        segments.append((c, n_steps, h, scale))
    mean0, var0 = oracle_moments(drift, d_coeff, lam, t0)

    positions = np.empty((len(checkpoints), n_paths))
    n_blocks = -(-n_paths // _EM_BLOCK)
    n_chunks = max(1, min(_EM_CHUNKS, n_paths // _EM_BLOCK))
    block_bounds = [n_blocks * i // n_chunks for i in range(n_chunks + 1)]
    sd0 = np.sqrt(var0)
    jobs = []
    for first, end in zip(block_bounds, block_bounds[1:]):
        lo, hi = first * _EM_BLOCK, min(end * _EM_BLOCK, n_paths)
        gens = [Generator(SFC64(SeedSequence(seed, spawn_key=(b,)))) for b in range(first, end)]
        # work arrays are made here, on the calling thread, so that worker
        # threads do not grow their own malloc arenas
        jobs.append((gens, positions[:, lo:hi], np.empty(hi - lo), np.empty(hi - lo)))

    def run(job):
        _em_paths(drift, lam, t0, segments, mean0, sd0, *job)

    if n_chunks == 1:
        run(jobs[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            for future in [pool.submit(run, job) for job in jobs]:
                future.result()
    return SampleEnsemble(checkpoints=tuple(checkpoints), positions=tuple(positions), seed=seed)


def _em_paths(drift, lam, t0, segments, mean0, sd0, gens, positions, z, a):
    """Step the paths of the blocks ``gens`` through ``segments``; row j of
    ``positions`` receives them at checkpoint j.

    Each step draws one normal per path into ``z``, block by block, and
    scales it by the segment's noise scale; ``a`` is the drift buffer of
    ``em_step``.
    """

    def draw():
        for b, gen in enumerate(gens):
            gen.standard_normal(out=z[b * _EM_BLOCK : (b + 1) * _EM_BLOCK])

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

    dU/dx goes into the work buffer ``a`` (shaped like x, not sharing memory
    with it), so the step allocates nothing.  ``dU/dx * (-h)`` is
    ``(-dU/dx) * h`` bit for bit, so the result equals the allocating
    ``x + drift_coefficient(x, t, lam)*h + dz`` in every bit.
    """
    drift.du_dx_total(x, t, lam, out=a)
    np.multiply(a, -h, out=a)
    np.add(x, a, out=x)
    np.add(x, dz, out=x)


def density_from_samples(ensemble: SampleEnsemble, grid: Grid) -> DensityField:
    """Histogram density on the grid's x nodes at each checkpoint slice.

    Bins are dx wide and centered on the nodes; counts are normalized so the
    trapezoid mass of each populated slice is exactly 1.  Time slices that are
    not checkpoints are left unpopulated (NaN values, mask False).
    """
    t_nodes = grid.t
    edges = grid.x_min + (np.arange(grid.nx + 1) - 0.5) * grid.dx
    vals = np.full((grid.nt, grid.nx), np.nan)
    mask = np.zeros(grid.nt, dtype=bool)
    for c, pos in zip(ensemble.checkpoints, ensemble.positions):
        if len(pos) == 0:
            raise ValueError(f"checkpoint t={c} holds no samples")
        diffs = np.abs(t_nodes - c)
        j = int(np.argmin(diffs))
        if diffs[j] > 1e-9 * max(1.0, abs(c)):
            raise ValueError(f"checkpoint t={c} does not coincide with a grid time node")
        counts, _ = np.histogram(pos, bins=edges)
        w = counts / (len(pos) * grid.dx)
        mass = float(trapezoid(w, grid.dx))
        if mass <= 0:
            raise ValueError(f"all samples of checkpoint t={c} fall outside the grid")
        vals[j] = w / mass
        mask[j] = True
    return DensityField(grid=grid, values=vals, populated=mask)
