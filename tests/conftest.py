import errno
import os
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

from fpcascade.analysis import trapezoid
from fpcascade.hierarchy import _gradient, _source_arrays
from fpcascade.model import (ActionExpansion, DensityField, DriftSpec, Grid, linear_time_modulated, quadratic_ou,
                             zero_drift)
from fpcascade.oracles import ModulationV, ou_time, w0_diffusion


@pytest.fixture
def small_grid():
    return Grid(-10.0, 10.0, 201, 0.05, 2.0, 79)


def sample_density(grid: Grid, sampler, normalize=True) -> DensityField:
    """Sample a closed-form density on a grid, optionally slice-normalized."""
    vals = np.array([sampler(grid.x, tj) for tj in grid.t], dtype=float)
    if normalize:
        vals = vals / trapezoid(vals, grid.dx)[:, None]
    return DensityField(grid=grid, values=vals)


# Closed forms and diagnostics that only the tests use: the exact densities
# transcribed independently of DriftSpec.law, S_2 term by term, the resummed
# quadratic-drift density of criteria 4 and 5, the slope fit and the cascade
# residual.


def example1_density_exact(x, t, d_coeff, lam, v: ModulationV):
    """Exact density for the drift lam*x*V(t): the heat kernel shifted by lam*Vbar(t)."""
    x = np.asarray(x, dtype=float)
    return w0_diffusion(x + lam * v.antiderivative(t), t, d_coeff)


def ou_density_exact(x, t, d_coeff, lam):
    """Exact density of the linearly restoring process with drift -lam*x: the
    heat kernel at time ou_time(t, lam); lam = 0 is rejected (use w0_diffusion)."""
    if lam == 0.0:
        raise ValueError("lam = 0 has no closed form here; use w0_diffusion")
    return w0_diffusion(x, ou_time(t, lam), d_coeff)


def ou_s2(x, t, d_coeff):
    """Second-order action for the quadratic drift: S2 = -D t^2/12 - x^2 t/12."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return -d_coeff * t * t / 12.0 - x * x * t / 12.0


def resummation_factor(lam, t):
    """1 + lam t + lam^2 t^2 / 3, the resummed width correction (always > 0 for real lam t)."""
    u = lam * t
    return 1.0 + u + u * u / 3.0


def ou_density_pert(x, t, d_coeff, lam):
    """Resummed second-order density for the quadratic drift,
    W = sqrt(f / (4 pi D t)) exp(-(x^2 / 4Dt) f) with f = resummation_factor;
    the heat kernel itself at lam = 0."""
    if lam == 0.0:
        return w0_diffusion(x, t, d_coeff)
    f = resummation_factor(lam, t)
    if not np.all(f > 0.0):
        raise ValueError("non-positive resummation factor: lam*t far outside the perturbative regime")
    x = np.asarray(x, dtype=float)
    return np.sqrt(f / (4.0 * np.pi * d_coeff * t)) * np.exp(-(x * x) / (4.0 * d_coeff * t) * f)


def log_resummation_gap(lam, t):
    """|lam t/2 - lam^2 t^2/12 - (1/2) ln(1 + lam t + lam^2 t^2/3)|, the distance
    between the truncated normalization exponent and its resummed logarithm."""
    f = resummation_factor(lam, t)
    if not np.all(f > 0.0):
        raise ValueError("non-positive resummation factor")
    u = lam * t
    return np.abs(0.5 * u - u * u / 12.0 - 0.5 * np.log(f))


def scaling_order_fit(errors) -> float:
    """Least-squares slope of log(error) against log(lambda) over (lambda,
    error) pairs, all positive, with at least 3 distinct lambdas."""
    pairs = list(errors)
    lams = np.array([p[0] for p in pairs], dtype=float)
    errs = np.array([p[1] for p in pairs], dtype=float)
    if not np.all(lams > 0) or np.any(errs <= 0):  # NaN lambdas too, each of which counts as distinct below
        raise ValueError("scaling fit requires positive lambdas and errors")
    if len(set(lams.tolist())) < 3:
        raise ValueError(f"need at least 3 distinct lambdas for a slope fit, got {lams.tolist()}")
    slope, _ = np.polyfit(np.log(lams), np.log(errs), 1)
    return float(slope)


def cascade_residual(n: int, expansion: ActionExpansion, drift: DriftSpec) -> float:
    """Max-abs defect of the order-n cascade equation on the solved fields:
    central differences in t on interior slices and in x on interior columns."""
    if not 1 <= n <= expansion.order:
        raise ValueError(f"residual needs 1 <= n <= {expansion.order}, got {n}")
    grid = expansion.grid
    term = expansion.terms[n - 1]
    grads = [_gradient(s, grid.dx) for s in expansion.terms[: n - 1]]
    source = _source_arrays(n, drift, expansion.d_coeff, grid.x, grid.t[:, None], grads)
    dx, dt = grid.dx, grid.dt
    mid = term[1:-1]
    dsdt = (term[2:, 1:-1] - term[:-2, 1:-1]) / (2.0 * dt)
    d2 = (mid[:, 2:] - 2.0 * mid[:, 1:-1] + mid[:, :-2]) / (dx * dx)
    d1 = (mid[:, 2:] - mid[:, :-2]) / (2.0 * dx)
    rhs = expansion.d_coeff * d2 - (grid.x[1:-1] / grid.t[1:-1, None]) * d1 + source[1:-1, 1:-1]
    return float(np.abs(dsdt - rhs).max(initial=0.0))


@st.composite
def builtin_drifts(draw):
    """A built-in drift: zero, linear with a cos, sin or const modulation, or
    quadratic."""
    kind = draw(st.sampled_from(["zero", "cos", "sin", "const", "quadratic"]))
    if kind == "zero":
        return zero_drift()
    if kind == "quadratic":
        return quadratic_ou()
    if kind == "const":
        return linear_time_modulated(ModulationV("const", v0=draw(st.floats(-3.0, 3.0))))
    return linear_time_modulated(ModulationV(kind, draw(st.floats(0.1, 5.0))))


def after_call(monkeypatch, module, name, n, act):
    """Patch ``module.name`` so that its call number ``n`` (counted from 0)
    runs as usual and is then followed by ``act(*args)``, which may raise or
    change the arrays the call wrote."""
    real, calls = getattr(module, name), []

    def wrapped(*args):
        result = real(*args)
        if len(calls) == n:
            act(*args)
        calls.append(None)
        return result

    monkeypatch.setattr(module, name, wrapped)


def in_children(monkeypatch, module, name, act):
    """Patch ``module.name`` so that a forked child calls ``act()`` before it
    runs the call; calls in this process are unchanged."""
    parent, real = os.getpid(), getattr(module, name)

    def wrapped(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(module, name, wrapped)


def counted_forks(monkeypatch, fail_from=None):
    """A list that grows by one per ``os.fork``; the call numbered
    ``fail_from`` (from 0) and every later one fails with EAGAIN."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        if fail_from is not None and len(forks) > fail_from:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_process():
    # a running child reads (0, 0) here and an unreaped one its pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def singular(*args):
    """Stands in for a tridiagonal solve on a singular band."""
    raise ZeroDivisionError("singular tridiagonal matrix")
