"""Rank-based particle approximation of 1-D viscous scalar conservation laws.

The package simulates mean-field rank-based interacting particle systems
with Euler time discretization, evaluates their Wasserstein-1 distance to
the closed-form Burgers solution, and drives Monte-Carlo convergence
studies of the strong and weak errors.
"""

from .engine import (FRACTIONAL_RANK, IID, OPTIMAL, RANK_COEFFICIENT, InitRule,
                     ParticleEnsemble, SimulationConfig, simulate)
from .errors import (BracketError, ConfigError, DegenerateInputWarning, DomainError,
                     NumericalError, RankflowError, UnsupportedReferenceError)
from .exact import BurgersSolution
from .flux import FluxFunction, parse_flux
from .harness import (STRONG, SWEEP_H, SWEEP_N, WEAK, StudyRow, StudySpec, run_study,
                      strong_error_point, weak_error_point)
from .initial import (DiracAtZero, Gaussian, InitialDistribution, Uniform,
                      iid_positions, optimal_positions, parse_distribution)
from .metrics import GridSpec, empirical_cdf_at, phi_grid, psi_grid_free

__version__ = "0.1.0"

__all__ = [
    "BracketError", "BurgersSolution", "ConfigError", "DegenerateInputWarning",
    "DiracAtZero", "DomainError", "FluxFunction", "FRACTIONAL_RANK", "Gaussian",
    "GridSpec", "IID", "InitRule", "InitialDistribution", "NumericalError", "OPTIMAL",
    "ParticleEnsemble", "RANK_COEFFICIENT", "RankflowError", "STRONG", "SWEEP_H",
    "SWEEP_N", "SimulationConfig", "StudyRow", "StudySpec", "Uniform",
    "UnsupportedReferenceError", "WEAK", "empirical_cdf_at", "iid_positions",
    "optimal_positions", "parse_distribution", "parse_flux", "phi_grid",
    "psi_grid_free", "run_study", "simulate", "strong_error_point",
    "weak_error_point",
]
