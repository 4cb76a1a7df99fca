"""Sparse dependency recovery for linear stochastic dynamical systems
observed alongside unobserved (latent) time series.

The package learns which observed variables directly drive which by
decomposing the least-squares drift estimate into a sparse interaction
matrix and a low-rank latent-effect matrix, solved with an accelerated
proximal gradient method under l1 + nuclear-norm regularization.
"""

from .errors import (
    AssumptionError,
    ConfigError,
    ConstructionError,
    DataError,
    DivergenceError,
    NumericalError,
    SparsedynError,
    StabilityError,
)
from .evaluate import (
    CvSelection,
    DependencyGraph,
    PhasePoint,
    PhaseResult,
    RecoveryReport,
    block_cross_validate,
    export_dependency_graph,
    lambda_pair_from_constants,
    phase_transition,
    predict,
    recovery_report,
)
from .generate import GenSpec, gen_illustrative, gen_random_system
from .linalg import (
    matrix_exponential,
    prox_l1,
    prox_nuclear,
    solve_lyapunov_continuous,
    solve_lyapunov_discrete,
)
from .model import (
    AssumptionReport,
    SteadyState,
    SystemParams,
    assumption_report,
    control_parameter,
    identifiability_alpha,
    incoherence_mu,
    lasso_incoherence_theta,
    population_mle,
    sample_complexity_T,
    stability_margin,
    steady_state,
    theorem_constants,
    theoretical_lambdas,
)
from .rng import CounterRng, derive_seed
from .simulate import (
    SufficientStats,
    Trajectory,
    simulate_continuous,
    simulate_discrete,
    sufficient_stats,
)
from .solver import Estimate, SolverConfig, fit, fit_lasso, objective, smooth_gradient

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "ConfigError",
    "ConstructionError",
    "CounterRng",
    "CvSelection",
    "DataError",
    "DependencyGraph",
    "DivergenceError",
    "Estimate",
    "GenSpec",
    "NumericalError",
    "PhasePoint",
    "PhaseResult",
    "RecoveryReport",
    "SolverConfig",
    "SparsedynError",
    "StabilityError",
    "SteadyState",
    "SufficientStats",
    "SystemParams",
    "Trajectory",
    "assumption_report",
    "block_cross_validate",
    "control_parameter",
    "derive_seed",
    "export_dependency_graph",
    "fit",
    "fit_lasso",
    "gen_illustrative",
    "gen_random_system",
    "identifiability_alpha",
    "incoherence_mu",
    "lambda_pair_from_constants",
    "lasso_incoherence_theta",
    "matrix_exponential",
    "objective",
    "phase_transition",
    "population_mle",
    "predict",
    "prox_l1",
    "prox_nuclear",
    "recovery_report",
    "sample_complexity_T",
    "simulate_continuous",
    "simulate_discrete",
    "smooth_gradient",
    "solve_lyapunov_continuous",
    "solve_lyapunov_discrete",
    "stability_margin",
    "steady_state",
    "sufficient_stats",
    "theorem_constants",
    "theoretical_lambdas",
]
