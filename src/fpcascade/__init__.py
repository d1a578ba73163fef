"""Perturbative solver for 1-D Fokker-Planck equations with constant diffusion.

The drift potential carries a small parameter; the density is obtained from an
action expansion solved order by order, cross-validated against closed forms,
a direct finite-difference integration and Euler-Maruyama sampling.
"""

from .analysis import field_distance, slice_mass, slice_moments
from .errors import ConfigError, InvariantViolation, SolverError
from .hierarchy import analytic_expansion, assemble_density, solve_expansion
from .model import (
    ActionExpansion,
    DensityField,
    DriftSpec,
    Grid,
    RunConfig,
    linear_time_modulated,
    quadratic_ou,
    validate_config,
    zero_drift,
)
from .oracles import ModulationV, w0_diffusion
from .reference import density_from_samples, em_simulate, fp_fd_solve
from .transform import effective_potential_order

__version__ = "0.1.0"
