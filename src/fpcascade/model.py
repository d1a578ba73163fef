"""Domain types shared by every solver: grids, fields, drift specifications.

All types are immutable after construction (frozen dataclasses, read-only
arrays) and therefore safe to share across threads.
"""

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import oracles
from .errors import ConfigError, SolverError
from .oracles import ModulationV

MAX_EXPANSION_ORDER = 8

# paths x Monte Carlo steps a run may ask for: at about 16 ns per path-step,
# 1e12 of them take hours, so a run past this would hang after every other
# solver had finished; the benchmark runs ask for about 1e8
_MAX_PATH_STEPS = 1e12

# floats of Monte Carlo path memory a run may ask for: the positions at each
# checkpoint plus two path-sized work buffers, as many floats as the lattice
# cap admits nodes, 8 GB
_MAX_PATH_FLOATS = 1e9

# nt x (nx + 2 x cascade pad) nodes a run may ask for, which caps its nt x nx
# lattice too: a run holds more than ten float64 lattices, 800 MB each at this
# size; the largest grid any test or benchmark validates is 1601 x 1101
_MAX_LATTICE_NODES = 1e8

_EvalFn = Callable[[np.ndarray, float], np.ndarray]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform space-time lattice; the start time t0 must be strictly positive
    because the point-source initial data lives at t = 0, off-grid."""

    x_min: float
    x_max: float
    nx: int
    t0: float
    t_max: float
    nt: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.nx < 5:
            raise ConfigError(f"nx must be >= 5 for the cascade and FD solvers, got {self.nx}")
        if not 0 < self.dx <= sys.float_info.max:
            raise ConfigError(
                f"node spacing (x_max - x_min) / (nx - 1) must be positive and finite, got {self.dx}"
            )
        if not self.t0 > 0:
            raise ConfigError(f"t0 must be > 0 (singular start time), got {self.t0}")
        if not self.t_max > self.t0:
            raise ConfigError(f"t_max must be > t0, got t0={self.t0}, t_max={self.t_max}")
        if self.nt < 2:
            raise ConfigError(f"nt must be >= 2, got {self.nt}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t0) / (self.nt - 1)

    # x and t are built once per grid (the frozen fields cannot change)
    @cached_property
    def x(self) -> np.ndarray:
        # node formula x_min + i*dx is the reproducibility contract
        return _readonly(self.x_min + np.arange(self.nx) * self.dx)

    @cached_property
    def t(self) -> np.ndarray:
        return _readonly(self.t0 + np.arange(self.nt) * self.dt)

    def refined(self) -> "Grid":
        """Grid with dx and dt both halved (same extent)."""
        return Grid(self.x_min, self.x_max, 2 * self.nx - 1, self.t0, self.t_max, 2 * self.nt - 1)


def cascade_pad(grid: Grid, d_coeff: float) -> float:
    """Nodes the numeric cascade adds on each side of the grid, a whole float
    of at least 8 (inf where the target width leaves the float range).

    The pad pushes the boundary closure's layer far enough out that its
    amplitude at the requested edge is suppressed by about exp(-10).
    """
    # in Python floats, which overflow to inf without a warning (a JSON
    # config may hold ints, whose square need not convert to a float)
    half = float(max(abs(grid.x_min), abs(grid.x_max)))
    target = math.sqrt(half * half + 20.0 * d_coeff * grid.t_max)
    return max(float(np.ceil((target - half) / grid.dx)), 8.0)


NEGATIVITY_FLOOR = -1e-12


@dataclass(frozen=True)
class DensityField:
    """Probability density on a grid.  Values must stay above -1e-12 (tiny
    Crank-Nicolson undershoots are tolerated, anything worse is a bug).
    ``populated`` marks which time slices actually hold data; histogram
    densities only fill their checkpoint slices."""

    grid: Grid
    values: np.ndarray
    populated: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(f"density shape {vals.shape} != grid shape {(self.grid.nt, self.grid.nx)}")
        mask = self.populated
        if mask is None:
            mask = np.ones(self.grid.nt, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (self.grid.nt,):
                raise ValueError("populated mask must have shape (nt,)")
        # checked on views, never on a copy of the populated rows: min
        # propagates a NaN, and an infinity shows in min or max
        parts = (vals,) if mask.all() else (vals[j] for j in np.flatnonzero(mask))
        lows = []
        for part in parts:
            low = part.min()
            if not (np.isfinite(low) and np.isfinite(part.max())):
                raise ValueError("density contains non-finite values in populated slices")
            lows.append(low)
        if lows and min(lows) < NEGATIVITY_FLOOR:
            raise ValueError(f"density undershoot {min(lows):.3e} below {NEGATIVITY_FLOOR:.0e}")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "populated", mask)


def _zero(x, t):
    return 0.0


FAMILY_ZERO = "zero"
FAMILY_LINEAR = "linear_time_modulated"
FAMILY_QUADRATIC = "quadratic_ou"


@dataclass(frozen=True)
class DriftSpec:
    """Drift potential U(x,t) = lam U_1(x,t), first order in lam.

    ``u``, ``du_dx``, ``d2u_dx2`` and ``du_dt`` evaluate U_1 and its analytic
    derivatives.  Each takes (x, t), a scalar or an ndarray, t broadcasting
    against x (``grid.t[:, None]`` for the whole lattice), and must be
    elementwise, so one lattice call equals the per-slice calls bit for bit.
    They return values that broadcast against x and t, a scalar where the term
    is constant in x, or x itself, so callers must not write into a result.

    The built-in constructors attach the family's closed forms, None
    otherwise: ``action(n, x, t, D)``, S_n for n = 1..8, and for lam != 0
    ``law(t, lam)``, the (centre, time) at which the heat kernel is the exact
    density: ``w0_diffusion(x - centre, time, D)``, of mean centre and
    variance 2 D time.
    """

    family: str
    u: _EvalFn
    du_dx: _EvalFn
    d2u_dx2: _EvalFn
    du_dt: _EvalFn
    action: Optional[Callable] = None
    law: Optional[Callable] = None


def oracle_law(drift: DriftSpec, lam: float, t):
    """The (centre, time) of the heat kernel that is the drift's closed-form
    density at time t; lam = 0 gives the heat kernel itself, (0.0, t)."""
    if lam == 0.0:
        return 0.0, t
    if drift.law is None:
        raise ValueError(f"no closed-form density for drift family {drift.family!r}")
    return drift.law(t, lam)


def zero_drift() -> DriftSpec:
    """Free diffusion: U identically zero."""
    return DriftSpec(
        FAMILY_ZERO, _zero, _zero, _zero, _zero,
        action=lambda n, x, t, d_coeff: np.zeros_like(np.asarray(x, dtype=float)),
        law=lambda t, lam: (0.0, t),
    )


def linear_time_modulated(v: ModulationV) -> DriftSpec:
    """U1(x,t) = x * V(t)."""

    def u(x, t):
        return np.asarray(x, dtype=float) * v.value(t)

    def du_dx(x, t):
        return v.value(t)

    def du_dt(x, t):
        return np.asarray(x, dtype=float) * v.derivative(t)

    return DriftSpec(
        FAMILY_LINEAR, u, du_dx, _zero, du_dt,
        action=lambda n, x, t, d_coeff: oracles.example1_action(n, x, t, v),
        law=lambda t, lam: (-lam * v.antiderivative(t), t),
    )


def quadratic_ou() -> DriftSpec:
    """U1(x,t) = x^2 / 2; the linearly restoring drift -lam*x."""

    def u(x, t):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x

    def du_dx(x, t):
        return np.asarray(x, dtype=float)

    def d2u_dx2(x, t):
        return 1.0

    return DriftSpec(
        FAMILY_QUADRATIC, u, du_dx, d2u_dx2, _zero,
        action=oracles.ou_action,
        law=lambda t, lam: (0.0, oracles.ou_time(t, lam)),
    )


@dataclass(frozen=True)
class ActionExpansion:
    """The solved action terms S_1..S_N on one grid, plus D and lam: terms[n - 1]
    is S_n, a read-only (nt, nx) array.  S0 is a closed form, not stored."""

    grid: Grid
    d_coeff: float
    lam: float
    terms: tuple

    def __post_init__(self):
        if not self.d_coeff > 0:
            raise ValueError(f"diffusion constant must be > 0, got {self.d_coeff}")
        shape = (self.grid.nt, self.grid.nx)
        for n, term in enumerate(self.terms, start=1):
            if np.shape(term) != shape:
                raise ValueError(f"term {n} shape {np.shape(term)} != grid shape {shape}")
        object.__setattr__(self, "terms", tuple(map(_readonly, self.terms)))

    @property
    def order(self) -> int:
        return len(self.terms)

    def action_sum(self, rows=slice(None)) -> np.ndarray:
        """S = S0 + sum_n lam^n S_n on the time slices ``rows`` of the grid (a
        slice; every slice by default)."""
        # an S0 or lam^n that overflows is inf, and inf * 0 is NaN, which the
        # check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            acc = oracles.s0_log_heat_kernel(self.grid.x, self.grid.t[rows, None], self.d_coeff)
            lam_n = 1.0
            for term in self.terms:
                lam_n *= self.lam
                acc += lam_n * term[rows]
        if not np.all(np.isfinite(acc)):
            raise SolverError("action sum is not finite everywhere on the grid")
        return acc


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run; loadable from JSON (see cli)."""

    family: str = FAMILY_LINEAR
    v_kind: str = "cos"
    omega: float = 1.0
    v0: float = 0.0
    d_coeff: float = 1.0
    lam: float = 0.2
    order: int = 2
    x_min: float = -24.0
    x_max: float = 24.0
    nx: int = 961
    t0: float = 0.05
    t_max: float = 5.0
    nt: int = 199
    n_paths: int = 20000
    seed: int = 20107
    mc_dt: float = 1e-3
    checkpoints: tuple = ()
    out_dir: str = "fpcascade-out"


@dataclass(frozen=True)
class ValidatedConfig:
    """A RunConfig whose bounds were checked, with derived objects built.

    ``slices`` holds the checkpoints as the ascending, distinct indices of
    the grid time nodes they snap to (read-only); the checkpoint times are
    ``grid.t[slices]``."""

    raw: RunConfig
    drift: DriftSpec
    grid: Grid
    slices: np.ndarray


def build_drift(cfg: RunConfig) -> DriftSpec:
    if cfg.family == FAMILY_ZERO:
        return zero_drift()
    if cfg.family == FAMILY_LINEAR:
        try:
            modulation = ModulationV(kind=cfg.v_kind, omega=cfg.omega, v0=cfg.v0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return linear_time_modulated(modulation)
    if cfg.family == FAMILY_QUADRATIC:
        return quadratic_ou()
    raise ConfigError(f"unknown drift family {cfg.family!r}")


def em_steps(t0: float, checkpoints, dt: float) -> list:
    """Euler-Maruyama steps into each of the ascending ``checkpoints``, from
    t0 or the previous checkpoint: ``(n, h)`` with n = ceil(span / dt), at
    least 1, and h = span / n, or ``(0, 0.0)`` for an empty span."""
    steps = []
    t_now = t0
    for c in checkpoints:
        span = c - t_now
        if span > 0:
            n = max(int(np.ceil(span / dt - 1e-12)), 1)
            steps.append((n, span / n))
            t_now = c
        else:
            steps.append((0, 0.0))
    return steps


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# what a RunConfig field must hold, by its annotation
_KINDS = {
    float: ("a number", _is_number),
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of numbers", lambda v: isinstance(v, (tuple, list)) and all(map(_is_number, v))),
}


def _check_fields(cfg: RunConfig):
    """Check each field of ``cfg`` against its annotation, and every number in
    a float or tuple field for finiteness.  Values show as JSON, as a config
    file holds them."""
    for f in fields(cfg):
        name, value = f.name, getattr(cfg, f.name)
        kind, accepts = _KINDS[f.type]
        if not accepts(value):
            raise ConfigError(f"{name} must be {kind}, got {json.dumps(value, default=repr)}")
        if f.type in (float, tuple):
            labelled = [(name, value)] if f.type is float else [(f"{name}[{i}]", v) for i, v in enumerate(value)]
            for label, number in labelled:
                if not abs(number) <= sys.float_info.max:  # NaN, +-inf, an int past the float range
                    raise ConfigError(f"{label} must be finite, got {number}")


def validate_config(cfg: RunConfig) -> ValidatedConfig:
    """Check every documented bound and populate derived quantities.

    Raises ConfigError naming the violated bound.
    """
    _check_fields(cfg)
    if not cfg.d_coeff > 0:
        raise ConfigError(f"diffusion constant must be > 0, got {cfg.d_coeff}")
    if not 0 <= cfg.order <= MAX_EXPANSION_ORDER:
        raise ConfigError(f"expansion order must be in [0, {MAX_EXPANSION_ORDER}], got {cfg.order}")
    if cfg.n_paths < 1:
        raise ConfigError(f"path count must be >= 1, got {cfg.n_paths}")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed must fit in 64 bits, got {cfg.seed}")
    if not cfg.mc_dt > 0:
        raise ConfigError(f"mc_dt must be > 0, got {cfg.mc_dt}")
    grid = Grid(cfg.x_min, cfg.x_max, cfg.nx, cfg.t0, cfg.t_max, cfg.nt)  # raises ConfigError
    # before grid.t or grid.x exists: either would allocate the lattice's
    # axes; the pad is at least 8, so this caps nt * nx as well
    padded = cfg.nx + 2.0 * cascade_pad(grid, cfg.d_coeff)
    if not cfg.nt * padded <= _MAX_LATTICE_NODES:  # a float compare: the pad may be inf
        raise ConfigError(
            f"nt * (nx + 2 x cascade pad) must be <= {_MAX_LATTICE_NODES:.0e} padded cascade nodes, "
            f"got {cfg.nt} x {padded:.3e}"
        )
    if not np.isfinite((cfg.t_max - cfg.t0) / cfg.mc_dt):  # no Monte Carlo segment spans more
        raise ConfigError(f"mc_dt must give a finite step count (t_max - t0) / mc_dt, got {cfg.mc_dt}")
    drift = build_drift(cfg)
    # the start density is the heat kernel at the law's time; narrower than
    # dx, its sampled trapezoid mass is off 1 by about 2 exp(-2 pi^2 (width/dx)^2),
    # past 1e-8, so the run would die at emission after every solver had run
    time0 = oracle_law(drift, cfg.lam, cfg.t0)[1]
    width = math.sqrt(2.0 * cfg.d_coeff * float(time0))  # Python floats: an overflow is inf, not a warning
    if width < grid.dx:
        raise ConfigError(
            f"the initial density's width sqrt(2 D t) at t0 must be >= dx to be resolved, "
            f"got {width:.3e} < dx = {grid.dx:.3e}"
        )
    checkpoints = tuple(float(c) for c in cfg.checkpoints)
    if checkpoints:
        if any(c < grid.t0 or c > grid.t_max for c in checkpoints):
            raise ConfigError("checkpoints must lie within [t0, t_max]")
        if list(checkpoints) != sorted(checkpoints):
            raise ConfigError("checkpoints must be ascending")
    else:
        # default: midpoint-ish node and the final node
        checkpoints = (grid.t[(grid.nt - 1) // 2], grid.t[-1])
    # snap each checkpoint to the nearest grid node so histogram slices align
    nearest = np.abs(grid.t[:, None] - np.array(checkpoints)).argmin(axis=0)
    slices = np.array(sorted(set(nearest.tolist())))  # np.unique imports numpy.ma: 0.9 MB of RSS
    slices.setflags(write=False)
    # em_simulate's step count, at least (t_max - t0) / mc_dt even where the
    # checkpoints end before t_max
    path_steps = sum(n for n, _ in em_steps(grid.t0, grid.t[slices], cfg.mc_dt))
    steps = max(float(path_steps), (cfg.t_max - cfg.t0) / cfg.mc_dt)
    # divided, not multiplied: n_paths is a Python int of any size
    if steps > 0 and cfg.n_paths > _MAX_PATH_STEPS / steps:
        raise ConfigError(
            f"n_paths x Monte Carlo steps must be <= {_MAX_PATH_STEPS:.0e} path-steps, "
            f"got {cfg.n_paths} paths x {steps:.3e} steps"
        )
    if cfg.n_paths > _MAX_PATH_FLOATS / (len(slices) + 2):
        raise ConfigError(
            f"n_paths x (checkpoints + 2) must be <= {_MAX_PATH_FLOATS:.0e} floats of Monte Carlo "
            f"path memory, got {cfg.n_paths} paths x {len(slices) + 2}"
        )
    return ValidatedConfig(raw=cfg, drift=drift, grid=grid, slices=slices)
