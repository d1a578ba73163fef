"""Reference solvers independent of the perturbative machinery.

Two back ends validate the cascade output:

* ``fp_fd_solve`` integrates the density equation directly,
  dw/dt = -d/dx(D1 w) + D w'' with D1 = -dU/dx, in conservative flux form
  with Crank-Nicolson time stepping and absorbing (zero) boundary values.

* ``em_simulate`` runs Euler-Maruyama paths of the matching stochastic
  process dx = D1(x,t) dt + sqrt(2D) dB.  Normal increments come from
  Box-Muller over per-path splitmix64 substreams, so ensembles are
  bit-reproducible and independent of any path partitioning.

Both start from the family's closed-form density at t0 > 0, the same initial
data the cascade uses, so all solvers address one initial-value problem.
"""

import os
from dataclasses import dataclass

import numpy as np

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
from .oracles import ou_density_exact, w0_diffusion


def oracle_density(drift: DriftSpec, d_coeff: float, lam: float, x, t):
    """Closed-form density of a built-in family at time t (lam = 0 falls back
    to the heat kernel)."""
    if drift.family == FAMILY_ZERO or lam == 0.0:
        return w0_diffusion(x, t, d_coeff)
    if drift.family == FAMILY_LINEAR:
        return w0_diffusion(
            np.asarray(x, dtype=float) + lam * drift.modulation.antiderivative(t), t, d_coeff
        )
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
    for j in range(grid.nt - 1):
        tm = grid.t[j] + 0.5 * dt
        a_half = drift.drift_coefficient(x_half, tm, lam)
        try:
            kernels.fp_cn_step(a_half, d_coeff, dt, dx, vals[j], vals[j + 1])
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
# fewer paths per chunk than this run on the calling thread alone
_EM_MIN_CHUNK = 4096
# normals drawn per bm_normals call and chunk (steps x paths), which
# amortises the per-call overhead when chunks are narrow
_EM_BATCH_NORMALS = 65536


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
    evenly so checkpoints are hit exactly.  Path p draws its initial position
    and all increments from substream mix64(seed + (p+1)*GOLDEN), normal k of
    the path consuming stream outputs 2k+1 and 2k+2 (Box-Muller).

    Paths are independent, so they run in contiguous chunks, one thread per
    usable CPU (numpy releases the GIL inside the array operations); the
    result does not depend on the number of chunks.
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

    states = kernels.path_stream_states(seed, n_paths)
    positions = np.empty((len(checkpoints), n_paths))
    n_chunks = max(1, min(_EM_CHUNKS, n_paths // _EM_MIN_CHUNK))
    bounds = [n_paths * i // n_chunks for i in range(n_chunks + 1)]
    sd0 = np.sqrt(var0)
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        # work arrays are made here, on the calling thread, so that worker
        # threads do not grow their own malloc arenas
        z = np.empty((max(1, _EM_BATCH_NORMALS // (hi - lo)), hi - lo))
        jobs.append((states[lo:hi], positions[:, lo:hi], z, kernels.normals_scratch(z.size)))

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


def _em_paths(drift, lam, t0, segments, mean0, sd0, states, positions, z, scratch):
    """Step the paths of ``states`` through ``segments``; row j of
    ``positions`` receives them at checkpoint j.

    Normals are drawn ``len(z)`` steps per call into ``z``.  The update keeps
    the order (x + a*h) + (scale*z) of the one-step-at-a-time formula.
    """
    kernels.bm_normals(states, 0, z[0], scratch)
    x = positions[-1]  # the last checkpoint row doubles as the current positions
    np.multiply(z[0], sd0, out=x)
    np.add(x, mean0, out=x)
    k = 1  # index of the next normal to draw
    left = sum(seg[1] for seg in segments)  # normals still to draw
    row = len(z)
    t_now = t0
    for j, (c, n_steps, h, scale) in enumerate(segments):
        for _ in range(n_steps):
            if row == len(z):
                batch = z[: min(len(z), left)]
                kernels.bm_normals(states, k, batch, scratch)
                k += len(batch)
                left -= len(batch)
                row = 0
            a = drift.drift_coefficient(x, t_now, lam)
            np.multiply(a, h, out=a)
            np.add(x, a, out=x)
            dz = z[row]
            np.multiply(dz, scale, out=dz)
            np.add(x, dz, out=x)
            row += 1
            t_now += h
        if n_steps:
            t_now = c
        if j < len(segments) - 1:
            positions[j] = x


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
