import tracemalloc

import numpy as np
import pytest

from fpcascade.errors import ConfigError
from fpcascade.model import (
    ActionExpansion,
    DensityField,
    Grid,
    RunConfig,
    ScalarField,
    TAG_ACTION,
    build_drift,
    linear_time_modulated,
    quadratic_ou,
    validate_config,
    zero_drift,
)
from fpcascade.oracles import ModulationV


def default_example1_config(**overrides):
    base = dict(
        family="linear_time_modulated", v_kind="cos", omega=1.0, d_coeff=1.0, lam=0.2,
        x_min=-10.0, x_max=10.0, nx=801, t0=0.01, t_max=5.0, nt=500,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestValidateConfig:
    def test_default_example1_accepted(self):
        cfg = validate_config(default_example1_config())
        assert cfg.grid.dx == pytest.approx(20.0 / 800)
        assert cfg.grid.dt == pytest.approx(4.99 / 499)
        assert cfg.drift.family == "linear_time_modulated"

    def test_t0_zero_rejected(self):
        with pytest.raises(ConfigError, match="t0"):
            validate_config(default_example1_config(t0=0.0))

    def test_nx_two_rejected(self):
        # the cascade and FD solvers both need nx >= 5, and every run uses both
        for nx in (2, 3, 4):
            with pytest.raises(ConfigError, match="nx"):
                validate_config(default_example1_config(nx=nx))

    def test_order_cap(self):
        with pytest.raises(ConfigError, match="order"):
            validate_config(default_example1_config(order=9))
        validate_config(default_example1_config(order=8))

    def test_path_count(self):
        with pytest.raises(ConfigError, match="path count"):
            validate_config(default_example1_config(n_paths=0))

    def test_negative_diffusion(self):
        with pytest.raises(ConfigError, match="diffusion"):
            validate_config(default_example1_config(d_coeff=-1.0))

    def test_checkpoints_snap_to_nodes(self):
        cfg = validate_config(default_example1_config(checkpoints=(1.0, 5.0)))
        t = cfg.grid.t
        for c in cfg.checkpoints:
            assert np.min(np.abs(t - c)) == 0.0

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ConfigError, match="checkpoints"):
            validate_config(default_example1_config(checkpoints=(7.0,)))


class TestGrid:
    def test_strict_ordering(self):
        with pytest.raises(ConfigError):
            Grid(1.0, -1.0, 11, 0.1, 1.0, 5)
        with pytest.raises(ConfigError):
            Grid(-1.0, 1.0, 11, 0.5, 0.5, 5)

    def test_node_reconstruction_bit_identical(self):
        g = Grid(-10.0, 10.0, 801, 0.01, 5.0, 500)
        i = np.arange(g.nx)
        assert np.array_equal(g.x, g.x_min + i * g.dx)
        j = np.arange(g.nt)
        assert np.array_equal(g.t, g.t0 + j * g.dt)

    def test_refined_halves_spacings(self):
        g = Grid(-2.0, 2.0, 41, 0.1, 1.0, 10)
        r = g.refined()
        assert r.dx == pytest.approx(g.dx / 2)
        assert r.dt == pytest.approx(g.dt / 2)

    def test_nodes_read_only(self):
        g = Grid(-1.0, 1.0, 11, 0.1, 1.0, 5)
        with pytest.raises(ValueError):
            g.x[0] = 3.0
        with pytest.raises(ValueError):
            g.t[0] = 3.0

    def test_nodes_built_once_per_grid(self):
        g = Grid(-1.0, 1.0, 11, 0.1, 1.0, 5)
        assert g.x is g.x and g.t is g.t
        # the cached arrays are no fields: equality and hashing ignore them
        fresh = Grid(-1.0, 1.0, 11, 0.1, 1.0, 5)
        assert fresh == g and hash(fresh) == hash(g)


def _central(f, x, t, h):
    return (f(x + h, t) - f(x - h, t)) / (2 * h)


def _central_t(f, x, t, h):
    return (f(x, t + h) - f(x, t - h)) / (2 * h)


@pytest.mark.parametrize(
    "drift",
    [
        zero_drift(),
        linear_time_modulated(ModulationV("cos", 1.3)),
        linear_time_modulated(ModulationV("sin", 2.0)),
        linear_time_modulated(ModulationV("const", v0=0.7)),
        quadratic_ou(),
    ],
    ids=["zero", "cos", "sin", "const", "ou"],
)
def test_drift_derivatives_second_order(drift):
    # central differences of U must converge to the analytic derivatives at
    # second order: err(h) <= C h^2 with C estimated at h/2
    rng = np.random.default_rng(42)
    x = rng.uniform(-5, 5, size=100)
    t = rng.uniform(0.1, 4.0, size=100)
    h = 1e-4
    for n in range(drift.max_order + 1):
        term = drift.term(n)
        for exact, approx in [
            (term.du_dx, lambda xx, tt, hh: _central(term.u, xx, tt, hh)),
            (term.d2u_dx2, lambda xx, tt, hh: _central(term.du_dx, xx, tt, hh)),
            (term.du_dt, lambda xx, tt, hh: _central_t(term.u, xx, tt, hh)),
        ]:
            err_h = np.abs(exact(x, t) - approx(x, t, h)).max()
            err_h2 = np.abs(exact(x, t) - approx(x, t, h / 2)).max()
            c_est = err_h2 / (h / 2) ** 2
            assert err_h <= max(1.5 * c_est * h * h, 1e-10)


def test_family_order_structure():
    lin = linear_time_modulated(ModulationV("cos", 1.0))
    assert lin.max_order == 1
    x = np.array([1.0, -2.0])
    assert np.all(lin.orders[0].u(x, 0.3) == 0.0)
    ou = quadratic_ou()
    assert ou.max_order == 1
    assert np.all(ou.orders[0].u(x, 0.3) == 0.0)
    assert np.allclose(ou.orders[1].u(x, 0.0), x * x / 2)


def test_drift_coefficient_is_negative_gradient():
    ou = quadratic_ou()
    x = np.linspace(-3, 3, 7)
    assert np.allclose(ou.drift_coefficient(x, 0.0, 0.1), -0.1 * x)
    lin = linear_time_modulated(ModulationV("const", v0=2.0))
    assert np.allclose(lin.drift_coefficient(x, 0.7, 0.25), -0.5)


BUILT_IN_DRIFTS = [
    zero_drift(),
    linear_time_modulated(ModulationV("cos", 1.3)),
    linear_time_modulated(ModulationV("sin", 2.0)),
    linear_time_modulated(ModulationV("const", v0=0.7)),
    quadratic_ou(),
]
BUILT_IN_IDS = ["zero", "cos", "sin", "const", "ou"]


def _du_dx_before_out(drift, x, t, lam):
    """dU/dx of a built-in family as summed before DriftSpec took an ``out``
    buffer: array-valued evaluators and 0 + lam*U1' in a fresh array."""
    acc = np.zeros_like(x)
    if drift.family == "linear_time_modulated":
        acc += lam * (np.ones_like(x) * drift.modulation.value(t))
    elif drift.family == "quadratic_ou":
        acc += lam * x.copy()
    return acc


EDGE_X = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.37, -2.5])


@pytest.mark.parametrize("lam", [0.0, 0.1, -0.1])
@pytest.mark.parametrize("drift", BUILT_IN_DRIFTS, ids=BUILT_IN_IDS)
def test_drift_out_is_bit_identical_to_allocating_sum(drift, lam):
    expected = _du_dx_before_out(drift, EDGE_X, 0.9, lam)
    out = np.full_like(EDGE_X, np.nan)
    assert drift.du_dx_total(EDGE_X, 0.9, lam, out=out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert drift.drift_coefficient(EDGE_X, 0.9, lam, out=out) is out
    assert np.array_equal(out.view(np.uint64), (-expected).view(np.uint64))
    fresh = drift.drift_coefficient(EDGE_X, 0.9, lam)
    assert np.array_equal(fresh.view(np.uint64), (-expected).view(np.uint64))


@pytest.mark.parametrize("drift", BUILT_IN_DRIFTS, ids=BUILT_IN_IDS)
def test_drift_out_allocates_no_path_sized_array(drift):
    x = np.linspace(-5.0, 5.0, 100_000)
    out = np.empty_like(x)

    def peak_bytes(call):
        call()  # first call outside the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(lambda: drift.drift_coefficient(x, 0.3, 0.1, out=out)) < x.nbytes
    assert peak_bytes(lambda: drift.du_dx_total(x, 0.3, 0.1, out=out)) < x.nbytes
    # the trace does see numpy's buffers: the allocating call shows its result
    assert peak_bytes(lambda: drift.drift_coefficient(x, 0.3, 0.1)) >= x.nbytes


def test_build_drift_unknown_family():
    with pytest.raises(ConfigError, match="family"):
        build_drift(RunConfig(family="pentagonal"))


class TestFields:
    def test_scalar_field_shape_check(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(grid=small_grid, values=np.zeros((3, 3)), tag=TAG_ACTION, order=0)

    def test_scalar_field_immutable(self, small_grid):
        f = ScalarField(
            grid=small_grid, values=np.zeros((small_grid.nt, small_grid.nx)), tag=TAG_ACTION, order=0
        )
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_density_rejects_undershoot(self, small_grid):
        vals = np.zeros((small_grid.nt, small_grid.nx))
        vals[3, 4] = -1e-9
        with pytest.raises(ValueError, match="undershoot"):
            DensityField(grid=small_grid, values=vals)
        vals[3, 4] = -1e-13  # inside the tolerated band
        DensityField(grid=small_grid, values=vals)

    def test_density_unpopulated_slices_skip_checks(self, small_grid):
        vals = np.full((small_grid.nt, small_grid.nx), np.nan)
        mask = np.zeros(small_grid.nt, dtype=bool)
        vals[0] = 0.05
        mask[0] = True
        DensityField(grid=small_grid, values=vals, populated=mask)

    def test_expansion_tag_validation(self, small_grid):
        zeros = np.zeros((small_grid.nt, small_grid.nx))
        s0 = ScalarField(grid=small_grid, values=zeros, tag=TAG_ACTION, order=0)
        mislabeled = ScalarField(grid=small_grid, values=zeros, tag=TAG_ACTION, order=2)
        with pytest.raises(ValueError, match="tag"):
            ActionExpansion(d_coeff=1.0, lam=0.1, terms=(s0, mislabeled))

    def test_expansion_requires_positive_d(self, small_grid):
        zeros = np.zeros((small_grid.nt, small_grid.nx))
        s0 = ScalarField(grid=small_grid, values=zeros, tag=TAG_ACTION, order=0)
        with pytest.raises(ValueError, match="diffusion"):
            ActionExpansion(d_coeff=0.0, lam=0.1, terms=(s0,))
