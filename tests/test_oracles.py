import numpy as np
import pytest

from conftest import example1_density_exact, log_resummation_gap, ou_density_exact, ou_density_pert, ou_s2
from fpcascade.analysis import trapezoid
from fpcascade.oracles import ModulationV, example1_action, ou_action, s0_log_heat_kernel, w0_diffusion

# frozen reference values, computed independently with 40-digit arithmetic
S0_AT_0_1_1 = -1.2655121234846454
S0_AT_2_1_1 = -2.2655121234846454
W0_AT_0_1_1 = 0.28209479177387814
OU_VAR_01_1 = 1.8126924692201814
OU_PEAK_01_1 = 0.2963111544786206
OU_PERT_VAR_01_1 = 1.8126888217522659
GAP_01_1 = 1.2836937642540100e-06


class TestModulation:
    @pytest.mark.parametrize(
        "v",
        [ModulationV("cos", 1.0), ModulationV("sin", 2.0), ModulationV("const", v0=1.5)],
        ids=["cos", "sin", "const"],
    )
    def test_antiderivative_conventions(self, v):
        assert v.antiderivative(0.0) == pytest.approx(0.0, abs=1e-15)
        # dVbar/dt == V by central differences
        h = 1e-4
        t = np.linspace(0.05, 4.0, 50)
        dvbar = (v.antiderivative(t + h) - v.antiderivative(t - h)) / (2 * h)
        assert np.abs(dvbar - v.value(t)).max() <= 1e-6

    def test_sin_reproduces_shifted_cosine(self):
        # for V = sin(2t): Vbar(t) = (1 - cos 2t)/2
        v = ModulationV("sin", 2.0)
        t = np.linspace(0.0, 3.0, 20)
        assert np.allclose(v.antiderivative(t), (1 - np.cos(2 * t)) / 2, atol=1e-15)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModulationV("tan", 1.0)
        with pytest.raises(ValueError, match="omega"):
            ModulationV("cos", omega=0.0)


class TestHeatKernel:
    def test_frozen_values(self):
        assert w0_diffusion(0.0, 1.0, 1.0) == pytest.approx(W0_AT_0_1_1, rel=1e-14)
        assert s0_log_heat_kernel(0.0, 1.0, 1.0) == pytest.approx(S0_AT_0_1_1, rel=1e-14)
        assert s0_log_heat_kernel(2.0, 1.0, 1.0) == pytest.approx(S0_AT_2_1_1, rel=1e-14)

    def test_unit_mass_trapezoid(self):
        x = np.linspace(-10, 10, 2001)
        mass = trapezoid(w0_diffusion(x, 1.0, 1.0), x[1] - x[0])
        assert abs(mass - 1.0) <= 1e-10

    def test_even_in_x(self):
        x = np.linspace(-5, 5, 101)
        assert np.array_equal(w0_diffusion(x, 0.7, 1.3), w0_diffusion(-x, 0.7, 1.3))
        assert np.array_equal(s0_log_heat_kernel(x, 0.7, 1.3), s0_log_heat_kernel(-x, 0.7, 1.3))

    def test_exp_s0_is_w0(self):
        x = np.linspace(-8, 8, 101)
        for d in (0.5, 1.0, 2.0):
            assert np.allclose(np.exp(s0_log_heat_kernel(x, 0.8, d) / d), w0_diffusion(x, 0.8, d), rtol=1e-13)

    @pytest.mark.parametrize("d", [1e-300, 1e-308])
    def test_tiny_d_is_a_spike_without_a_warning(self, d):
        # x^2 / 4Dt overflows off x = 0 (the grid of a zero-family custom run
        # on x in [-1e4, 1e4]); exp(-inf) is 0, and this suite turns the
        # divide's RuntimeWarning into an error
        x = np.linspace(-1e4, 1e4, 161)
        w = w0_diffusion(x, 0.1, d)
        assert w[80] == 1.0 / np.sqrt(4.0 * np.pi * d * 0.1)
        assert not np.any(np.delete(w, 80))


class TestExample1Actions:
    def test_finite_at_small_t(self):
        v = ModulationV("cos", 1.0)
        for x in (-3.0, 1.0, 7.0):
            assert abs(example1_action(1, x, 1e-8, v)) <= 1e-7 * abs(x)

    def test_constant_modulation_cancels(self):
        v = ModulationV("const", v0=0.9)
        x = np.linspace(-5, 5, 11)
        assert np.abs(example1_action(1, x, 0.7, v)).max() <= 1e-15

    def test_s2_sin_frozen_value(self):
        v = ModulationV("sin", 2.0)
        assert example1_action(2, 0.0, np.pi / 2, v) == pytest.approx(-1 / (2 * np.pi), rel=1e-12)

    def test_s2_constant_in_x(self):
        v = ModulationV("cos", 1.0)
        x = np.linspace(-4, 4, 9)
        vals = example1_action(2, x, 1.3, v)
        assert np.ptp(vals) == 0.0


class TestExample1Density:
    def test_lambda_zero_is_heat_kernel_bitwise(self):
        v = ModulationV("cos", 1.0)
        x = np.linspace(-8, 8, 501)
        assert np.array_equal(
            example1_density_exact(x, 1.3, 1.0, 0.0, v), w0_diffusion(x, 1.3, 1.0)
        )

    def test_peak_tracks_minus_lam_vbar(self):
        v = ModulationV("cos", 1.0)
        x = np.linspace(-12, 12, 24001)
        t = np.pi / 2
        w = example1_density_exact(x, t, 1.0, 0.5, v)
        x_peak = x[np.argmax(w)]
        assert x_peak == pytest.approx(-0.5 * np.sin(t), abs=2e-3)

    def test_unit_mass(self):
        v = ModulationV("sin", 2.0)
        for t in (0.2, 1.0, 3.0):
            half = 8.5 * np.sqrt(2 * t) + 1.0
            x = np.linspace(-half, half, 4001)
            mass = trapezoid(example1_density_exact(x, t, 1.0, 0.5, v), x[1] - x[0])
            assert abs(mass - 1.0) <= 1e-10

    def test_translation_identity_pointwise(self):
        v = ModulationV("cos", 1.0)
        rng = np.random.default_rng(3)
        x = rng.uniform(-6, 6, 200)
        for t in (0.3, 1.7):
            lhs = example1_density_exact(x, t, 1.0, 0.5, v)
            rhs = w0_diffusion(x + 0.5 * v.antiderivative(t), t, 1.0)
            assert np.abs(lhs / rhs - 1.0).max() <= 1e-14


class TestOU:
    def test_exact_frozen_values(self):
        x = np.linspace(-12, 12, 9601)
        w = ou_density_exact(x, 1.0, 1.0, 0.1)
        dx = x[1] - x[0]
        mean = trapezoid(x * w, dx)
        var = trapezoid(x * x * w, dx)
        assert var == pytest.approx(OU_VAR_01_1, abs=1e-6)
        assert abs(mean) <= 1e-12
        assert ou_density_exact(0.0, 1.0, 1.0, 0.1) == pytest.approx(OU_PEAK_01_1, rel=1e-13)

    def test_small_lambda_limit(self):
        x = np.linspace(-6, 6, 101)
        diff = np.abs(ou_density_exact(x, 1.0, 1.0, 1e-8) - w0_diffusion(x, 1.0, 1.0)).max()
        assert diff <= 1e-6

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError, match="w0_diffusion"):
            ou_density_exact(0.0, 1.0, 1.0, 0.0)

    def test_action_terms(self):
        assert ou_action(1, 0.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert ou_s2(0.0, 2.0, 1.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
        x = np.linspace(-4, 4, 9)
        assert np.array_equal(ou_s2(x, 1.2, 0.7), ou_s2(-x, 1.2, 0.7))
        np.testing.assert_allclose(ou_action(2, x, 1.2, 0.7), ou_s2(x, 1.2, 0.7), rtol=1e-15)

    def test_pert_lambda_zero_dispatches_bitwise(self):
        x = np.linspace(-7, 7, 301)
        assert np.array_equal(ou_density_pert(x, 0.9, 1.2, 0.0), w0_diffusion(x, 0.9, 1.2))

    def test_pert_variance_and_gap_to_exact(self):
        x = np.linspace(-12, 12, 9601)
        dx = x[1] - x[0]
        w = ou_density_pert(x, 1.0, 1.0, 0.1)
        var = trapezoid(x * x * w, dx)
        assert var == pytest.approx(OU_PERT_VAR_01_1, abs=1e-6)
        assert abs(OU_PERT_VAR_01_1 - OU_VAR_01_1) == pytest.approx(3.647e-6, rel=1e-3)

    def test_pert_unit_mass(self):
        x = np.linspace(-14, 14, 4001)
        for t in (0.5, 1.0, 2.0):
            mass = trapezoid(ou_density_pert(x, t, 1.0, 0.1), x[1] - x[0])
            assert abs(mass - 1.0) <= 1e-10


class TestResummationGap:
    def test_zero_at_lambda_zero(self):
        assert log_resummation_gap(0.0, 1.0) == 0.0

    def test_frozen_value(self):
        assert log_resummation_gap(0.1, 1.0) == pytest.approx(GAP_01_1, rel=1e-9)

    def test_ratio_to_lambda_cubed_bounded(self):
        # the ratio stays finite as lambda -> 0 (it actually decays linearly,
        # because the cubic coefficient of the gap cancels identically)
        lams = np.array([0.02, 0.04, 0.08])
        ratios = np.array([log_resummation_gap(l, 1.0) for l in lams]) / lams**3
        assert np.all(np.isfinite(ratios))
        assert ratios.max() == ratios[-1]  # monotone in lambda, bounded by the largest


@pytest.mark.parametrize(
    "density,spread",
    [
        (lambda x, t: w0_diffusion(x, t, 1.0), lambda t: np.sqrt(2 * t)),
        (lambda x, t: example1_density_exact(x, t, 1.0, 0.5, ModulationV("cos", 1.0)), lambda t: np.sqrt(2 * t)),
        (lambda x, t: ou_density_exact(x, t, 1.0, 0.1), lambda t: np.sqrt((1 - np.exp(-0.2 * t)) / 0.1)),
        (lambda x, t: ou_density_pert(x, t, 1.0, 0.1), lambda t: np.sqrt(2 * t)),
    ],
    ids=["w0", "example1", "ou-exact", "ou-pert"],
)
def test_oracle_positivity_and_mass_on_wide_domain(density, spread):
    # positive everywhere and unit mass to 1e-10 on a domain of >= 8 standard
    # deviations (plus an allowance for the shifted peak)
    for t in (0.5, 1.0, 2.0):
        half = 8.5 * spread(t) + 1.0
        x = np.linspace(-half, half, 4001)
        w = density(x, t)
        assert np.all(w > 0)
        assert abs(trapezoid(w, x[1] - x[0]) - 1.0) <= 1e-10
