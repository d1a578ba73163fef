import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpcascade.cli import _config_dict
from fpcascade.errors import ConfigError
from fpcascade.model import (
    ActionExpansion,
    DensityField,
    Grid,
    RunConfig,
    build_drift,
    cascade_pad,
    linear_time_modulated,
    quadratic_ou,
    validate_config,
    zero_drift,
)
from fpcascade.oracles import ModulationV
from fpcascade.reference import density_from_samples, em_step
from fpcascade.transform import potential_exponent


def default_example1_config(**overrides):
    base = dict(
        family="linear_time_modulated", v_kind="cos", omega=1.0, d_coeff=1.0, lam=0.2,
        x_min=-10.0, x_max=10.0, nx=801, t0=0.01, t_max=5.0, nt=500,
    )
    base.update(overrides)
    return RunConfig(**base)


# the benchmarks' fast grid: t nodes 0.1 + 0.05 k, k = 0 .. 28
_SNAP_GRID = (-16.0, 16.0, 161, 0.1, 1.5, 29)
_SNAP_NODES = st.sampled_from([0, 28]) | st.integers(0, 28)


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

    @pytest.mark.parametrize("family, lam, d_coeff, t0, accepted", [
        # dx = 0.2 on [-16, 16] x 161: the width sqrt(2 D time) against it
        ("zero", 0.0, 0.2, 0.1, True),  # 0.2 exactly
        ("zero", 0.0, 0.19, 0.1, False),  # 0.195
        ("linear_time_modulated", 0.2, 1e-300, 0.1, False),
        # the quadratic family's time -expm1(-2 lam t) / (2 lam) is 5e-5 at
        # lam = 1e4, t0 = 0.1: a width of 0.01 where t0 alone gives 0.45
        ("quadratic_ou", 1e4, 1.0, 0.1, False),
        ("quadratic_ou", 1e4, 1000.0, 0.1, True),  # 0.32
        # at lam = 0 the law is the heat kernel itself, at t0
        ("quadratic_ou", 0.0, 0.2, 0.1, True),
    ])
    def test_unresolved_start_width_rejected(self, family, lam, d_coeff, t0, accepted):
        cfg = RunConfig(family=family, lam=lam, d_coeff=d_coeff, t0=t0, t_max=1.5, x_min=-16.0, x_max=16.0,
                        nx=161, nt=29, n_paths=100)
        if accepted:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match=r"^the initial density's width sqrt\(2 D t\) at t0 must be >= dx"):
                validate_config(cfg)

    def test_path_count(self):
        with pytest.raises(ConfigError, match="path count"):
            validate_config(default_example1_config(n_paths=0))

    def test_path_step_limit(self):
        # the defaults (2e4 paths x 4950 steps) and the Monte Carlo-heavy
        # benchmark run (1e5 paths x 950 steps) sit 1e4 below the limit
        validate_config(RunConfig())
        validate_config(RunConfig(family="quadratic_ou", lam=0.1, x_min=-12.0, x_max=12.0, nx=241,
                                  t0=0.05, t_max=1.0, nt=21, n_paths=100000, mc_dt=1e-3))
        validate_config(RunConfig(n_paths=2 * 10**8))  # 9.9e11 path-steps
        for n_paths in (3 * 10**8, 10**400):  # 1.5e12 path-steps; a count past the float range
            with pytest.raises(ConfigError, match="path-steps"):
                validate_config(RunConfig(n_paths=n_paths))

    def test_path_step_limit_counts_a_step_per_segment(self):
        # an mc_dt past the whole span still steps once into each checkpoint
        big_dt = dict(mc_dt=1e3)
        # 5e11 paths x 2 segments pass the step cap, not the path-memory cap
        with pytest.raises(ConfigError, match=r"floats of Monte Carlo path memory, got 500000000000 paths x 4"):
            validate_config(RunConfig(n_paths=5 * 10**11, **big_dt))
        with pytest.raises(ConfigError, match=r"got 500000000001 paths x 2\.000e\+00 steps"):
            validate_config(RunConfig(n_paths=5 * 10**11 + 1, **big_dt))
        with pytest.raises(ConfigError, match=r"x 3\.000e\+00 steps"):
            validate_config(RunConfig(n_paths=4 * 10**11, checkpoints=(1.0, 2.0, 5.0), **big_dt))
        # a checkpoint at t0 takes no step: 5e11 x 1 path-steps pass the step cap
        with pytest.raises(ConfigError, match=r"path memory, got 500000000000 paths x 4"):
            validate_config(RunConfig(n_paths=5 * 10**11, checkpoints=(0.05, 5.0), **big_dt))
        # but the count never falls below (t_max - t0) / mc_dt, here 4950
        for n_paths in (3 * 10**8, 10**13):
            with pytest.raises(ConfigError, match=r"x 4\.950e\+03 steps"):
                validate_config(RunConfig(n_paths=n_paths, checkpoints=(0.05,)))
        validate_config(RunConfig(n_paths=2 * 10**8, checkpoints=(0.05,)))

    @pytest.mark.parametrize("nt, nx, padded", [
        (10001, 10001, "1.084e+04"), (199, 10**9, "1.083e+09"), (2 * 10**7 + 1, 5, "2.100e+01"),
    ], ids=["10001-10001", "199-1000000000", "20000001-5"])
    def test_lattice_limit_rejected_before_any_axis_exists(self, nt, nx, padded):
        # either axis of these grids takes at least 80 kB, over the traced
        # bound below, and the default checkpoints are read from grid.t; the
        # padded cap rejects them, since the pad is at least 8 nodes a side
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=re.escape(
                    f"nt * (nx + 2 x cascade pad) must be <= 1e+08 padded cascade nodes, got {nt} x {padded}")):
                validate_config(RunConfig(nt=nt, nx=nx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        # exactly 1e8 nodes once the cascade pads each row by 2 x 385 nodes
        validate_config(RunConfig(nt=10**4, nx=9230))
        with pytest.raises(ConfigError, match=r"padded cascade nodes, got 10001 x 1\.000e\+04$"):
            validate_config(RunConfig(nt=10**4 + 1, nx=9230))

    @pytest.mark.parametrize("overrides, padded", [
        (dict(x_min=-1e-6, x_max=1e-6), "9.600e+09"),
        (dict(d_coeff=1e9), "1.265e+07"),
        (dict(d_coeff=1e308, t_max=10.0), "inf"),  # 20 D t_max overflows
        (dict(x_min=-10**300, x_max=10**300), "inf"),  # ints, as a JSON config gives them
        (dict(family="quadratic_ou", x_min=0.0, x_max=1e-300, nx=161, nt=29, t0=0.1, t_max=1.5,
              n_paths=3000, mc_dt=0.01), "1.753e+303"),
        (dict(x_min=-16.0, x_max=16.0, nx=161, nt=29, t0=0.1, t_max=1.5, n_paths=3000, mc_dt=0.01,
              d_coeff=1e300), "5.477e+151"),
    ], ids=["narrow-domain", "large-d", "pad-past-float-range", "int-domain-squared-past-float-range",
        "cli-ou-tiny-domain", "cli-example1-huge-d"])
    def test_padded_cascade_width_rejected_before_any_row_exists(self, overrides, padded):
        # the cascade pads each row to nx + 2 m nodes; these passed the
        # nt * nx cap and then asked np.arange for GBs or more than it can
        # give, or overflowed converting the squared half-width to a float
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"padded cascade nodes, got \d+ x {re.escape(padded)}$"):
                validate_config(RunConfig(**overrides))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000

    def test_benchmark_grids_pass_the_padded_width_cap(self):
        # W1 and W2 as the CLI runs them, and the refined acceptance cascade grid
        for cfg, padded in ((RunConfig(), 1041),
                            (RunConfig(family="quadratic_ou", lam=0.1, x_min=-12.0, x_max=12.0, nx=241,
                                       t0=0.05, t_max=1.0, nt=21, n_paths=100000), 259),
                            (default_example1_config(nx=1601, nt=999), 2265)):
            validated = validate_config(cfg)
            assert cfg.nx + 2 * cascade_pad(validated.grid, cfg.d_coeff) == padded

    def test_negative_diffusion(self):
        with pytest.raises(ConfigError, match="diffusion"):
            validate_config(default_example1_config(d_coeff=-1.0))

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("nx", 161.0, "nx must be an integer, got 161.0"),
        ("order", 2.0, "order must be an integer, got 2.0"),
        ("n_paths", 3000.0, "n_paths must be an integer, got 3000.0"),
        ("lam", True, "lam must be a number, got true"),
        ("d_coeff", "1", 'd_coeff must be a number, got "1"'),
        ("checkpoints", ("a",), 'checkpoints must be a list of numbers, got ["a"]'),
    ], ids=["seed", "nx", "order", "n_paths", "lam", "d_coeff", "checkpoints"])
    def test_mistyped_field_rejected_before_any_solver(self, field, value, message):
        # each of these validated at one time and then died in a solver, or
        # (lam=True) ran as lam = 1
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                validate_config(RunConfig(**{field: value}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000

    def test_checkpoints_list_accepted(self):
        as_list = validate_config(RunConfig(checkpoints=[1.0, 2.5]))
        as_tuple = validate_config(RunConfig(checkpoints=(1.0, 2.5)))
        assert as_list.slices.tolist() == as_tuple.slices.tolist()

    def test_path_memory_limit_rejected_up_front(self):
        # one step per path: far under the step cap, but em_simulate would
        # map 5e11 paths x 2 checkpoints of float64, 8 TB
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"n_paths x \(checkpoints \+ 2\) must be <= 1e\+09 floats"):
                validate_config(RunConfig(mc_dt=1e3, n_paths=5 * 10**11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        # the positions at each checkpoint plus the two work buffers of a chunk
        # (0.1 and 0.11 snap to one node, so they count once)
        for checkpoints, limit in (((), 250_000_000), ((5.0,), 333_333_333), ((0.1, 0.11, 5.0), 250_000_000)):
            validate_config(RunConfig(mc_dt=1e3, n_paths=limit, checkpoints=checkpoints))
            with pytest.raises(ConfigError, match=f"got {limit + 1} paths x"):
                validate_config(RunConfig(mc_dt=1e3, n_paths=limit + 1, checkpoints=checkpoints))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(_SNAP_NODES, st.floats(-0.45, 0.45)), min_size=1, max_size=8))
    def test_checkpoints_snap_to_nodes(self, draws):
        # checkpoint k + off node spacings past t0, clipped to [t0, t_max]:
        # off-node values, several per node, and t0 and t_max themselves
        x_min, x_max, nx, t0, t_max, nt = _SNAP_GRID
        dt = (t_max - t0) / (nt - 1)
        checkpoints = sorted(min(max(t0 + (k + off) * dt, t0), t_max) for k, off in draws)
        cfg = validate_config(RunConfig(x_min=x_min, x_max=x_max, nx=nx, t0=t0, t_max=t_max, nt=nt,
                                        checkpoints=tuple(checkpoints)))
        slices = cfg.slices.tolist()
        assert slices == sorted({k for k, _ in draws})  # strictly ascending, one per node
        nearest = np.abs(cfg.grid.t[:, None] - np.array(checkpoints)).argmin(axis=0)
        assert slices == list(dict.fromkeys(nearest.tolist()))
        assert cfg.grid.t[cfg.slices].tolist() == _config_dict(cfg)["checkpoints"]
        w = density_from_samples(np.zeros((len(slices), 10)), cfg.slices, cfg.grid)
        assert np.flatnonzero(w.populated).tolist() == slices

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ConfigError, match="checkpoints"):
            validate_config(default_example1_config(checkpoints=(7.0,)))


class TestGrid:
    def test_strict_ordering(self):
        with pytest.raises(ConfigError):
            Grid(1.0, -1.0, 11, 0.1, 1.0, 5)
        with pytest.raises(ConfigError):
            Grid(-1.0, 1.0, 11, 0.5, 0.5, 5)
        with pytest.raises(ConfigError, match="nx must be >= 5 for the cascade and FD solvers, got 4"):
            Grid(-1.0, 1.0, 4, 0.1, 1.0, 5)
        Grid(-1.0, 1.0, 5, 0.1, 1.0, 5)
        # x_max - x_min underflows to a zero spacing, or overflows to inf
        for x_min, x_max in ((0.0, 5e-324), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match="node spacing"):
                Grid(x_min, x_max, 5, 0.1, 1.0, 5)

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
    for exact, approx in [
        (drift.du_dx, lambda xx, tt, hh: _central(drift.u, xx, tt, hh)),
        (drift.d2u_dx2, lambda xx, tt, hh: _central(drift.du_dx, xx, tt, hh)),
        (drift.du_dt, lambda xx, tt, hh: _central_t(drift.u, xx, tt, hh)),
    ]:
        err_h = np.abs(exact(x, t) - approx(x, t, h)).max()
        err_h2 = np.abs(exact(x, t) - approx(x, t, h / 2)).max()
        c_est = err_h2 / (h / 2) ** 2
        assert err_h <= max(1.5 * c_est * h * h, 1e-10)


def test_family_order_structure():
    # U = lam U_1: the potential U/2D vanishes at lam = 0 and is U_1/2D at lam = 1
    grid = Grid(-2.0, 2.0, 5, 0.3, 0.5, 2)
    x, t = grid.x, grid.t[:, None]
    lin = linear_time_modulated(ModulationV("cos", 1.0))
    assert np.allclose(lin.u(x, t), x * np.cos(t))
    ou = quadratic_ou()
    assert np.allclose(ou.u(x, 0.0), x * x / 2)
    assert np.all(zero_drift().u(x, 0.3) == 0.0)
    for drift in (lin, ou, zero_drift()):
        assert np.all(potential_exponent(drift, 0.5, 0.0, grid) == 0.0)
        assert np.allclose(potential_exponent(drift, 0.5, 1.0, grid), drift.u(x, t))


def test_drift_coefficient_is_negative_gradient():
    # one noiseless Euler-Maruyama step of h = 1 moves x by D1 = -lam U_1'
    x = np.linspace(-3, 3, 7)
    for drift, lam, t, d1 in ((quadratic_ou(), 0.1, 0.0, -0.1 * x),
                              (linear_time_modulated(ModulationV("const", v0=2.0)), 0.25, 0.7, -0.5)):
        x_new = x.copy()
        em_step(drift, lam, x_new, t, 1.0, np.zeros_like(x), np.empty_like(x))
        assert np.allclose(x_new - x, d1)


MODULATIONS = {"cos": ModulationV("cos", 1.3), "sin": ModulationV("sin", 2.0), "const": ModulationV("const", v0=0.7)}
BUILT_IN_DRIFTS = [zero_drift(), *map(linear_time_modulated, MODULATIONS.values()), quadratic_ou()]
BUILT_IN_IDS = ["zero", *MODULATIONS, "ou"]


def _du_dx_allocating(name, x, t, lam):
    """dU/dx = lam*U1' of the built-in drift ``name`` (a BUILT_IN_IDS entry)
    from array-valued evaluators, in a fresh array."""
    if name in MODULATIONS:
        return lam * (np.ones_like(x) * MODULATIONS[name].value(t))
    if name == "ou":
        return lam * x.copy()
    return lam * np.zeros_like(x)


EDGE_X = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.37, -2.5])


@pytest.mark.parametrize("lam", [0.0, -0.0, 0.1, -0.1])
@pytest.mark.parametrize("drift, name", list(zip(BUILT_IN_DRIFTS, BUILT_IN_IDS)), ids=BUILT_IN_IDS)
def test_drift_out_is_bit_identical_to_allocating_sum(drift, name, lam):
    # em_step's drift buffer against x + (-dU/dx)*h + dz from fresh arrays
    h, dz = 0.01, np.linspace(-1.0, 1.0, len(EDGE_X))
    expected = _du_dx_allocating(name, EDGE_X, 0.9, lam)
    x, a = EDGE_X.copy(), np.full_like(EDGE_X, np.nan)
    em_step(drift, lam, x, 0.9, h, dz, a)
    assert np.array_equal(a.view(np.uint64), (expected * -h).view(np.uint64))
    assert np.array_equal(x.view(np.uint64), (EDGE_X + (-expected) * h + dz).view(np.uint64))


@pytest.mark.parametrize("drift", BUILT_IN_DRIFTS, ids=BUILT_IN_IDS)
def test_drift_out_allocates_no_path_sized_array(drift):
    x = np.linspace(-5.0, 5.0, 100_000)
    dz, a = np.zeros_like(x), np.empty_like(x)

    def peak_bytes(call):
        call()  # first call outside the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(lambda: em_step(drift, 0.1, x, 0.3, 1e-3, dz, a)) < x.nbytes
    # the trace does see numpy's buffers: the allocating step shows its result
    assert peak_bytes(lambda: x + (-(0.1 * drift.du_dx(x, 0.3))) * 1e-3 + dz) >= x.nbytes


def test_build_drift_unknown_family():
    with pytest.raises(ConfigError, match="family"):
        build_drift(RunConfig(family="pentagonal"))


class TestFields:
    def test_scalar_field_shape_check(self, small_grid):
        zeros = np.zeros((small_grid.nt, small_grid.nx))
        with pytest.raises(ValueError, match=r"term 2 shape \(3, 3\) != grid shape"):
            ActionExpansion(grid=small_grid, d_coeff=1.0, lam=0.1, terms=(zeros, np.zeros((3, 3))))

    def test_scalar_field_immutable(self, small_grid):
        zeros = np.zeros((small_grid.nt, small_grid.nx))
        # a broadcast view is copied, not kept
        row = np.zeros(small_grid.nx)
        exp = ActionExpansion(grid=small_grid, d_coeff=1.0, lam=0.1,
                              terms=(zeros, np.broadcast_to(row, zeros.shape)))
        for term in exp.terms:
            with pytest.raises(ValueError):
                term[0, 0] = 1.0
        assert not np.shares_memory(exp.terms[1], row)

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

    def test_expansion_requires_positive_d(self, small_grid):
        zeros = np.zeros((small_grid.nt, small_grid.nx))
        with pytest.raises(ValueError, match="diffusion"):
            ActionExpansion(grid=small_grid, d_coeff=0.0, lam=0.1, terms=(zeros,))
