"""Domain types shared by every solver: grids, fields, drift specifications.

All types are immutable after construction (frozen dataclasses, read-only
arrays) and therefore safe to share across threads.
"""

import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .oracles import ModulationV

MAX_EXPANSION_ORDER = 8

# quantity tags for ScalarField
TAG_ACTION = "action"
TAG_POTENTIAL_ORDER = "potential-order"
TAG_WAVEFUNCTION = "wavefunction"

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
        if self.nx < 3:
            raise ConfigError(f"nx must be >= 3 to form a second difference, got {self.nx}")
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


@dataclass(frozen=True)
class ScalarField:
    """One scalar quantity sampled on a grid, shape (nt, nx)."""

    grid: Grid
    values: np.ndarray
    tag: str
    order: Optional[int] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(f"field shape {vals.shape} != grid shape {(self.grid.nt, self.grid.nx)}")
        object.__setattr__(self, "values", _readonly(vals))


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
        filled = vals[mask]
        if not np.all(np.isfinite(filled)):
            raise ValueError("density contains non-finite values in populated slices")
        if filled.size and filled.min() < NEGATIVITY_FLOOR:
            raise ValueError(f"density undershoot {filled.min():.3e} below {NEGATIVITY_FLOOR:.0e}")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "populated", mask)


@dataclass(frozen=True)
class PotentialTerm:
    """One order of the drift potential with its analytic derivatives.

    All four evaluators take (x, t), each a scalar or an ndarray, t broadcasting
    against x (``grid.t[:, None]`` for the whole lattice), and must be
    elementwise, so one lattice call equals the per-slice calls bit for bit.
    They return values that broadcast against x and t, a scalar where the term
    is constant in x, or x itself, so callers must not write into a result.
    """

    u: _EvalFn
    du_dx: _EvalFn
    d2u_dx2: _EvalFn
    du_dt: _EvalFn


def _zero(x, t):
    return 0.0


ZERO_TERM = PotentialTerm(u=_zero, du_dx=_zero, d2u_dx2=_zero, du_dt=_zero)

FAMILY_ZERO = "zero"
FAMILY_LINEAR = "linear_time_modulated"
FAMILY_QUADRATIC = "quadratic_ou"


@dataclass(frozen=True)
class DriftSpec:
    """Drift potential U(x,t) = sum_n lam^n U_n(x,t) as an ordered list of terms.

    ``orders[n]`` is the coefficient of lam^n; the built-in families carry a
    zero base term (orders[0]) by construction.  ``modulation`` is set for the
    linear family only.
    """

    family: str
    orders: tuple
    modulation: Optional[ModulationV] = None

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def term(self, n: int) -> PotentialTerm:
        return self.orders[n] if 0 <= n <= self.max_order else ZERO_TERM

    def u_total(self, x, t, lam):
        """U(x,t) at the given lam."""
        return self._total("u", x, t, lam)

    def du_dx_total(self, x, t, lam, out=None):
        return self._total("du_dx", x, t, lam, out)

    def d2u_dx2_total(self, x, t, lam):
        return self._total("d2u_dx2", x, t, lam)

    def du_dt_total(self, x, t, lam):
        return self._total("du_dt", x, t, lam)

    def drift_coefficient(self, x, t, lam, out=None):
        """D1(x,t) = -dU/dx, the force entering the Fokker-Planck equation,
        written into ``out`` when one is given (see ``_total``)."""
        out = self.du_dx_total(x, t, lam, out)
        return np.negative(out, out=out)

    def _total(self, which, x, t, lam, out=None):
        """sum_n lam^n (term n).which(x, t), summed in order n = 0, 1, 2, ...

        The sum is written into ``out`` (float64, shaped like x, not sharing
        memory with x), or into a fresh array when ``out`` is None.  The first
        two terms form U_1*lam + U_0, which is U_0 + lam*U_1 bit for bit (IEEE
        addition and multiplication commute), so a drift of order 1 needs no
        temporary beyond what its evaluators return.
        """
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(x.shape)
        base = getattr(self.orders[0], which)(x, t)
        if len(self.orders) == 1:
            np.copyto(out, base)
            return out
        np.multiply(getattr(self.orders[1], which)(x, t), lam, out=out)
        out += base
        lam_n = lam
        for term in self.orders[2:]:
            lam_n *= lam
            out += lam_n * getattr(term, which)(x, t)
        return out


def zero_drift() -> DriftSpec:
    """Free diffusion: U identically zero."""
    return DriftSpec(family=FAMILY_ZERO, orders=(ZERO_TERM,))


def linear_time_modulated(v: ModulationV) -> DriftSpec:
    """U1(x,t) = x * V(t); all other orders vanish."""

    def u(x, t):
        return np.asarray(x, dtype=float) * v.value(t)

    def du_dx(x, t):
        return v.value(t)

    def du_dt(x, t):
        return np.asarray(x, dtype=float) * v.derivative(t)

    term = PotentialTerm(u=u, du_dx=du_dx, d2u_dx2=_zero, du_dt=du_dt)
    return DriftSpec(family=FAMILY_LINEAR, orders=(ZERO_TERM, term), modulation=v)


def quadratic_ou() -> DriftSpec:
    """U1(x,t) = x^2 / 2; the linearly restoring drift -lam*x."""

    def u(x, t):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x

    def du_dx(x, t):
        return np.asarray(x, dtype=float)

    def d2u_dx2(x, t):
        return 1.0

    term = PotentialTerm(u=u, du_dx=du_dx, d2u_dx2=d2u_dx2, du_dt=_zero)
    return DriftSpec(family=FAMILY_QUADRATIC, orders=(ZERO_TERM, term))


@dataclass(frozen=True)
class ActionExpansion:
    """The solved action terms S0..SN on one grid, plus D and lam."""

    d_coeff: float
    lam: float
    terms: tuple  # of ScalarField, order n at index n

    def __post_init__(self):
        if not self.d_coeff > 0:
            raise ValueError(f"diffusion constant must be > 0, got {self.d_coeff}")
        if not self.terms:
            raise ValueError("expansion needs at least the order-0 term")
        g = self.terms[0].grid
        for n, term in enumerate(self.terms):
            if term.grid is not g and term.grid != g:
                raise ValueError("all expansion terms must share one grid")
            if term.tag != TAG_ACTION or term.order != n:
                raise ValueError(f"term {n} carries tag ({term.tag}, {term.order}), expected ({TAG_ACTION}, {n})")

    @property
    def grid(self) -> Grid:
        return self.terms[0].grid

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def action_sum(self) -> np.ndarray:
        """S = sum_n lam^n S_n on the grid."""
        acc = self.terms[0].values.copy()
        lam_n = 1.0
        for term in self.terms[1:]:
            lam_n *= self.lam
            acc += lam_n * term.values
        if not np.all(np.isfinite(acc)):
            raise ValueError("action sum is not finite everywhere on the grid")
        return acc


@dataclass(frozen=True)
class Tolerances:
    mass_tol: float = 1e-8
    boundary_tol: float = 1e-12

    def __post_init__(self):
        for name in ("mass_tol", "boundary_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")


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
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "fpcascade-out"


@dataclass(frozen=True)
class ValidatedConfig:
    """A RunConfig whose bounds were checked, with derived objects built."""

    raw: RunConfig
    drift: DriftSpec
    grid: Grid
    checkpoints: tuple


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


def validate_config(cfg: RunConfig) -> ValidatedConfig:
    """Check every documented bound and populate derived quantities.

    Raises ConfigError naming the violated bound.
    """
    schema = [(f.name, getattr(cfg, f.name), f.type) for f in fields(RunConfig)]
    schema += [(f"tolerances.{f.name}", getattr(cfg.tolerances, f.name), f.type) for f in fields(Tolerances)]
    schema += [(f"checkpoints[{i}]", c, float) for i, c in enumerate(cfg.checkpoints)]
    for name, value, kind in schema:
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN, +-inf, an int past the float range
            raise ConfigError(f"{name} must be finite, got {value}")
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
    if cfg.nx < 5:
        raise ConfigError(f"nx must be >= 5 for the cascade and FD solvers, got {cfg.nx}")
    grid = Grid(cfg.x_min, cfg.x_max, cfg.nx, cfg.t0, cfg.t_max, cfg.nt)  # raises ConfigError
    if not np.isfinite((cfg.t_max - cfg.t0) / cfg.mc_dt):  # no Monte Carlo segment spans more
        raise ConfigError(f"mc_dt must give a finite step count (t_max - t0) / mc_dt, got {cfg.mc_dt}")
    drift = build_drift(cfg)
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
    checkpoints = tuple(dict.fromkeys(grid.t[nearest].tolist()))
    return ValidatedConfig(raw=cfg, drift=drift, grid=grid, checkpoints=checkpoints)
