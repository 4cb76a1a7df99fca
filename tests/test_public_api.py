"""The public API is pinned: adding, removing or renaming a name in
``sparsedyn.__all__`` or a flag of a ``sparsedyn`` subcommand must show up
as an edit to this file."""

import argparse
import importlib
import pkgutil

import pytest

import sparsedyn
from sparsedyn.cli import build_parser

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


# Every subcommand's flags; each also takes --out, --config and --help.
FLAGS = {
    "gen": ["--diag-margin", "--eta", "--kind", "--p", "--r", "--s", "--seed"],
    "simulate": ["--eta", "--mode", "--n", "--seed", "--system"],
    "fit": ["--convert", "--data", "--edges-out", "--graph-out", "--lambda-a", "--lambda-l",
            "--max-iter", "--missing", "--mode", "--price-eta", "--prices", "--tol", "--zeta"],
    "phase": ["--c", "--d", "--diag-margin", "--etas", "--master-seed", "--p", "--r", "--s",
              "--thetas", "--trials"],
    "cv": ["--chunks", "--convert", "--data", "--grid-c", "--grid-d", "--missing", "--mode",
           "--price-eta", "--prices"],
    "predict": ["--convert", "--data", "--estimate", "--holdout", "--horizon", "--missing",
                "--price-eta", "--prices"],
    "check": ["--delta", "--horizon", "--system"],
}


def test_cli_flags_are_the_pinned_lists():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, sub in subparsers.choices.items():
        options = {option for action in sub._actions for option in action.option_strings}
        assert {"--out", "--config", "--help"} <= options, name
        found[name] = sorted(options - {"--out", "--config", "--help", "-h"})
    assert all(flags == sorted(flags) for flags in FLAGS.values())
    assert found == FLAGS
