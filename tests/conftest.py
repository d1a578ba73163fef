import numpy as np
import pytest

from fpcascade.analysis import trapezoid
from fpcascade.model import DensityField, Grid


@pytest.fixture
def small_grid():
    return Grid(-10.0, 10.0, 201, 0.05, 2.0, 79)


def sample_density(grid: Grid, sampler, normalize=True) -> DensityField:
    """Sample a closed-form density on a grid, optionally slice-normalized."""
    vals = np.array([sampler(grid.x, tj) for tj in grid.t], dtype=float)
    if normalize:
        vals = vals / trapezoid(vals, grid.dx)[:, None]
    return DensityField(grid=grid, values=vals)


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


def singular(*args):
    """Stands in for a tridiagonal solve on a singular band."""
    raise ZeroDivisionError("singular tridiagonal matrix")
