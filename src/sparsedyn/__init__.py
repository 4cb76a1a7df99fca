"""Sparse dependency recovery for linear stochastic dynamical systems
observed alongside unobserved (latent) time series.

The package learns which observed variables directly drive which by
decomposing the least-squares drift estimate into a sparse interaction
matrix and a low-rank latent-effect matrix under l1 + nuclear-norm
regularization, solved by ADMM on the split ``M = A + L``, which returns
the best iterate it has seen.

The package root holds the pipeline: each command's library call with the
types it takes and returns, the ground truth and the recovery score, seed
derivation and the exceptions.  Primitives, the theory's formulas and the
solver's internals are public in their own modules (for example
``from sparsedyn.linalg import prox_nuclear``).
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
    phase_transition,
    predict,
    recovery_report,
)
from .generate import GenSpec, gen_illustrative, gen_random_system
from .model import AssumptionReport, SteadyState, SystemParams, assumption_report, steady_state
from .rng import derive_seed
from .simulate import (
    SufficientStats,
    Trajectory,
    simulate_continuous,
    simulate_discrete,
    sufficient_stats,
)
from .solver import Estimate, SolverConfig, fit

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "ConfigError",
    "ConstructionError",
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
    "derive_seed",
    "export_dependency_graph",
    "fit",
    "gen_illustrative",
    "gen_random_system",
    "phase_transition",
    "predict",
    "recovery_report",
    "simulate_continuous",
    "simulate_discrete",
    "steady_state",
    "sufficient_stats",
]
