import errno
import os
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

from fpcascade.analysis import trapezoid
from fpcascade.model import DensityField, Grid, linear_time_modulated, quadratic_ou, zero_drift
from fpcascade.oracles import ModulationV


@pytest.fixture
def small_grid():
    return Grid(-10.0, 10.0, 201, 0.05, 2.0, 79)


def sample_density(grid: Grid, sampler, normalize=True) -> DensityField:
    """Sample a closed-form density on a grid, optionally slice-normalized."""
    vals = np.array([sampler(grid.x, tj) for tj in grid.t], dtype=float)
    if normalize:
        vals = vals / trapezoid(vals, grid.dx)[:, None]
    return DensityField(grid=grid, values=vals)


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
