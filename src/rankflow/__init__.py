"""Rank-based particle approximation of 1-D viscous scalar conservation laws.

The package simulates mean-field rank-based interacting particle systems
with Euler time discretization, evaluates their Wasserstein-1 distance to
the closed-form Burgers solution, and drives Monte-Carlo convergence
studies of the strong and weak errors.
"""

from .engine import (FRACTIONAL_RANK, IID, OPTIMAL, RANK_COEFFICIENT, InitRule,
                     ParticleEnsemble, SimulationConfig, euler_step, rank_counts,
                     simulate, sorted_view)
from .errors import (BracketError, ConfigError, DegenerateInputWarning, DomainError,
                     EmitError, NumericalError, RankflowError, UnsupportedReferenceError)
from .exact import BurgersSolution, normal_cdf
from .flux import FluxFunction, parse_flux
from .harness import (STRONG, SWEEP_H, SWEEP_N, WEAK, ErrorTable, StudyRow,
                      StudySpec, emit, run_study, strong_error_point,
                      weak_error_point)
from .initial import (DiracAtZero, Gaussian, InitialDistribution, QuantileTable,
                      Uniform, iid_positions, init_w1_to_m, optimal_positions,
                      parse_distribution)
from .metrics import (GridSpec, empirical_cdf_at, phi_grid, psi_grid_free,
                      w1_cdf_form, w_rho_empirical)

__version__ = "0.1.0"

__all__ = [
    "BracketError", "BurgersSolution", "ConfigError", "DegenerateInputWarning",
    "DiracAtZero", "DomainError", "EmitError", "ErrorTable", "FluxFunction",
    "FRACTIONAL_RANK", "Gaussian", "GridSpec", "IID", "InitRule",
    "InitialDistribution", "NumericalError", "OPTIMAL", "ParticleEnsemble",
    "QuantileTable", "RANK_COEFFICIENT", "RankflowError",
    "STRONG", "SWEEP_H", "SWEEP_N", "SimulationConfig", "StudyRow", "StudySpec",
    "Uniform", "UnsupportedReferenceError", "WEAK", "emit", "empirical_cdf_at",
    "euler_step", "iid_positions", "init_w1_to_m", "normal_cdf",
    "optimal_positions", "parse_distribution", "parse_flux", "phi_grid",
    "psi_grid_free", "rank_counts", "run_study", "simulate", "sorted_view",
    "strong_error_point", "w1_cdf_form", "w_rho_empirical", "weak_error_point",
]
