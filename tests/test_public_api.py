"""The public API is pinned: adding, removing or renaming a name in
``sparsedyn.__all__`` must show up as an edit to this file."""

import importlib
import pkgutil

import pytest

import sparsedyn

PUBLIC = [
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

# Every module that declares an ``__all__``.
MODULES = [name for name in ["sparsedyn"] + [f"sparsedyn.{info.name}" for info
                                             in pkgutil.iter_modules(sparsedyn.__path__)]
           if hasattr(importlib.import_module(name), "__all__")]


def test_package_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sparsedyn.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)), name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
