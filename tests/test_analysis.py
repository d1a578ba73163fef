import numpy as np
import pytest

from conftest import example1_density_exact, ou_density_exact, ou_density_pert, sample_density, scaling_order_fit
from fpcascade.analysis import L1, LINF, PEAK_RELATIVE_LINF, field_distance, slice_mass, slice_moments
from fpcascade.model import DensityField, Grid
from fpcascade.oracles import ModulationV, w0_diffusion


class TestSliceMass:
    def test_uniform_field(self, small_grid):
        height = 1.0 / (small_grid.x_max - small_grid.x_min)
        w = DensityField(grid=small_grid, values=np.full((small_grid.nt, small_grid.nx), height))
        assert abs(slice_mass(w, 0) - 1.0) <= 1e-12

    def test_heat_kernel_mass(self):
        grid = Grid(-10.0, 10.0, 2001, 1.0, 2.0, 2)
        w = sample_density(grid, lambda x, t: w0_diffusion(x, t, 1.0), normalize=False)
        assert abs(slice_mass(w, 0) - 1.0) <= 1e-10

    def test_normalized_producer_is_exact(self, small_grid):
        w = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        for j in range(0, small_grid.nt, 13):
            assert abs(slice_mass(w, j) - 1.0) <= 1e-12

    def test_bad_index(self, small_grid):
        w = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        with pytest.raises(IndexError):
            slice_mass(w, small_grid.nt)


class TestSliceMoments:
    def test_example1_mean_tracks_shift(self):
        v = ModulationV("cos", 1.0)
        grid = Grid(-14.0, 14.0, 5601, np.pi / 2, np.pi, 2)
        w = sample_density(grid, lambda x, t: example1_density_exact(x, t, 1.0, 0.5, v), normalize=False)
        mean, _ = slice_moments(w, 0)
        assert mean == pytest.approx(-0.5, abs=1e-8)

    def test_ou_variance(self):
        grid = Grid(-12.0, 12.0, 9601, 1.0, 2.0, 2)
        w = sample_density(grid, lambda x, t: ou_density_exact(x, t, 1.0, 0.1), normalize=False)
        _, var = slice_moments(w, 0)
        assert var == pytest.approx(1.8126924692201814, abs=1e-6)

    def test_symmetric_field_zero_mean(self):
        grid = Grid(-9.0, 9.0, 1801, 0.5, 1.0, 2)
        w = sample_density(grid, lambda x, t: w0_diffusion(x, t, 1.0))
        mean, _ = slice_moments(w, 0)
        assert abs(mean) <= 1e-12

    def test_mass_precondition_names_slice(self, small_grid):
        vals = np.full((small_grid.nt, small_grid.nx), 1e-3)
        w = DensityField(grid=small_grid, values=vals)
        with pytest.raises(ValueError, match="slice 4"):
            slice_moments(w, 4)


class TestFieldDistance:
    def test_zero_on_identical(self, small_grid):
        w = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        for metric in (L1, LINF, PEAK_RELATIVE_LINF):
            assert np.all(field_distance(w, w, metric) == 0.0)

    def test_symmetry(self, small_grid):
        a = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        b = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.4))
        for metric in (L1, LINF, PEAK_RELATIVE_LINF):
            assert np.array_equal(field_distance(a, b, metric), field_distance(b, a, metric))

    def test_grid_mismatch(self, small_grid):
        other = Grid(-10.0, 10.0, 199, 0.05, 2.0, 79)
        a = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        b = sample_density(other, lambda x, t: w0_diffusion(x, t, 1.0))
        with pytest.raises(ValueError, match="grids"):
            field_distance(a, b, L1)

    def test_one_node_shift_l1(self):
        # |W0(x) - W0(x - dx)| integrates to ~ dx * int|W0'| = 2 dx W0(0)
        grid = Grid(-10.0, 10.0, 2001, 1.0, 2.0, 2)
        dx = grid.dx
        a = sample_density(grid, lambda x, t: w0_diffusion(x, t, 1.0), normalize=False)
        b = sample_density(grid, lambda x, t: w0_diffusion(x - dx, t, 1.0), normalize=False)
        l1 = field_distance(a, b, L1)[0]
        expected = 2 * dx * w0_diffusion(0.0, 1.0, 1.0)
        assert abs(l1 - expected) <= 0.2 * expected

    def test_ou_pert_vs_exact_tolerance(self):
        grid = Grid(-12.0, 12.0, 4801, 1.0, 2.0, 2)
        pert = sample_density(grid, lambda x, t: ou_density_pert(x, t, 1.0, 0.1), normalize=False)
        exact = sample_density(grid, lambda x, t: ou_density_exact(x, t, 1.0, 0.1), normalize=False)
        assert field_distance(pert, exact, PEAK_RELATIVE_LINF)[0] <= 2e-5

    def test_unknown_metric(self, small_grid):
        w = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        with pytest.raises(ValueError, match="metric"):
            field_distance(w, w, "L7")

    @pytest.mark.parametrize("rows", [np.array([0, 5, 6, 78]), np.array([40]), slice(10, 20)], ids=str)
    def test_rows_equal_the_whole_lattice_rows(self, small_grid, rows):
        # the summary computes its distances on the checkpoint slices alone
        a = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.0))
        b = sample_density(small_grid, lambda x, t: w0_diffusion(x, t, 1.4))
        for metric in (L1, LINF, PEAK_RELATIVE_LINF):
            assert field_distance(a, b, metric, rows=rows).tobytes() == field_distance(a, b, metric)[rows].tobytes()


class TestScalingFit:
    def test_exact_cubic(self):
        lams = [0.01, 0.02, 0.04, 0.08]
        slope = scaling_order_fit([(l, l**3) for l in lams])
        assert slope == pytest.approx(3.0, abs=1e-9)

    def test_exact_quadratic_with_prefactor(self):
        lams = [0.01, 0.03, 0.09]
        slope = scaling_order_fit([(l, 7.3 * l**2) for l in lams])
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaling_order_fit([(0.1, 1.0), (0.2, 0.0), (0.4, 1.0)])
        with pytest.raises(ValueError):
            scaling_order_fit([(0.1, 1.0), (0.2, 2.0)])

    def test_rejects_fewer_than_three_distinct_lambdas(self):
        # polyfit would fit a line through one or two abscissae
        for lams in ((0.1, 0.1, 0.1), (0.1, 0.2, 0.1, 0.2)):
            with pytest.raises(ValueError, match="distinct"):
                scaling_order_fit([(lam, 1e-3) for lam in lams])
