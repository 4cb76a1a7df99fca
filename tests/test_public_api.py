"""The public API is pinned: adding, removing or renaming a name in
``sparsedyn.__all__``, in a submodule's ``__all__``, a defaulted parameter
of a public callable or a flag of a ``sparsedyn`` subcommand must show up
as an edit to this file."""

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sparsedyn
from sparsedyn.cli import build_parser

PUBLIC = [
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

# Primitives, formulas and solver internals: public in their own module,
# not at the package root.
MODULE_ONLY = {
    "sparsedyn.linalg": ["matrix_exponential", "prox_l1", "prox_nuclear",
                         "solve_lyapunov_continuous", "solve_lyapunov_discrete"],
    "sparsedyn.model": ["control_parameter", "identifiability_alpha", "incoherence_mu",
                        "lambda_pair_from_constants", "lasso_incoherence_theta",
                        "population_mle", "stability_margin", "theorem_constants",
                        "theoretical_lambdas"],
    "sparsedyn.rng": ["CounterRng"],
    "sparsedyn.solver": ["objective", "smooth_gradient"],
}

# Each submodule's sorted ``__all__``.
MODULE_ALL = {
    "sparsedyn.cli": ["main", "run"],
    "sparsedyn.csvio": ["Table", "decode_text", "ingest_csv", "json_text", "number",
                        "read_table", "read_text", "require_complete", "table_blocks",
                        "write_text"],
    "sparsedyn.evaluate": ["CvSelection", "DependencyGraph", "PhasePoint", "PhaseResult",
                           "RecoveryReport", "block_cross_validate", "default_support_threshold",
                           "export_dependency_graph", "phase_transition", "predict",
                           "recovery_report"],
    "sparsedyn.generate": ["GenSpec", "gen_illustrative", "gen_random_system",
                           "system_from_json", "system_to_json"],
    "sparsedyn.linalg": ["as_matrix", "matrix_exponential", "power_spectral_norm", "prox_l1",
                         "prox_nuclear", "require_stable", "solve_lyapunov_continuous",
                         "solve_lyapunov_discrete"],
    "sparsedyn.model": ["AssumptionReport", "SteadyState", "SystemParams", "assumption_report",
                        "control_parameter", "identifiability_alpha", "incoherence_mu",
                        "lambda_pair_from_constants", "lasso_incoherence_theta",
                        "latent_effect_constant", "max_row_l1", "population_mle",
                        "row_supports", "stability_margin", "steady_state", "support_size",
                        "theorem_constants", "theoretical_lambdas"],
    "sparsedyn.simulate": ["SufficientStats", "Trajectory", "binned_increment_covariance",
                           "exact_increment_covariance", "load_trajectory", "merge_stats",
                           "save_trajectory", "simulate_continuous", "simulate_discrete",
                           "simulate_stats", "sufficient_stats", "trajectory_blocks",
                           "trajectory_from_csv", "trajectory_to_csv"],
    "sparsedyn.solver": ["Estimate", "SolverConfig", "estimate_from_json", "estimate_to_json",
                         "fit", "objective", "smooth_gradient"],
}

# Every module that declares an ``__all__``.
MODULES = [name for name in ["sparsedyn"] + [f"sparsedyn.{info.name}" for info
                                             in pkgutil.iter_modules(sparsedyn.__path__)]
           if hasattr(importlib.import_module(name), "__all__")]


def test_package_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sparsedyn.__all__ == PUBLIC


def test_module_all_is_the_pinned_list():
    assert all(names == sorted(names) for names in MODULE_ALL.values())
    found = {name: sorted(importlib.import_module(name).__all__) for name in MODULES}
    assert found == {"sparsedyn": PUBLIC, **MODULE_ALL}


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_primitives_are_public_in_their_own_module(name):
    module = importlib.import_module(name)
    assert [attr for attr in MODULE_ONLY[name] if not hasattr(module, attr)] == []
    assert set(MODULE_ONLY[name]).isdisjoint(PUBLIC)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)), name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"


# Every defaulted parameter, as the repr of its default, of each callable
# (dataclass fields included) in a module's ``__all__``, keyed by where it
# is defined; callables without one are left out.
OPTIONS = {
    "sparsedyn.cli.run": {"argv": "None"},
    "sparsedyn.csvio.ingest_csv": {"missing": "'reject'", "convert": "'raw'"},
    "sparsedyn.csvio.table_blocks": {"comments": "None"},
    "sparsedyn.evaluate.block_cross_validate": {
        "chunk_count": "5", "mode": "'sparse_plus_lowrank'", "s_ref": "1", "r_ref": "1",
        "max_iter": "2000", "tol": "1e-07"},
    "sparsedyn.evaluate.export_dependency_graph": {"zeta": "None", "labels": "None"},
    "sparsedyn.evaluate.predict": {"actuals": "None"},
    "sparsedyn.evaluate.recovery_report": {"zeta": "None"},
    "sparsedyn.generate.GenSpec": {"diag_margin": "1.0", "eta": "0.0"},
    "sparsedyn.generate.system_to_json": {"config": "None"},
    "sparsedyn.linalg.as_matrix": {"name": "'matrix'", "shape": "None"},
    "sparsedyn.linalg.require_stable": {"eta": "0.0"},
    "sparsedyn.model.AssumptionReport": {"passes": "<factory>"},
    "sparsedyn.model.SystemParams": {"eta": "0.0"},
    "sparsedyn.model.assumption_report": {"horizon": "None", "delta": "0.1"},
    "sparsedyn.simulate.simulate_continuous": {
        "mode": "'binned'", "bins": "10", "seed": "0", "noise": "None", "init": "'zero'"},
    "sparsedyn.simulate.simulate_discrete": {"seed": "0", "noise": "None", "init": "'zero'"},
    "sparsedyn.simulate.simulate_stats": {"mode": "'binned'", "bins": "10", "seed": "0"},
    "sparsedyn.simulate.save_trajectory": {"comments": "None"},
    "sparsedyn.simulate.trajectory_blocks": {"comments": "None"},
    "sparsedyn.simulate.trajectory_to_csv": {"comments": "None"},
    "sparsedyn.solver.Estimate": {
        "objective_trace": "<factory>", "iterations": "0", "converged": "False"},
    "sparsedyn.solver.SolverConfig": {
        "lambda_l": "0.0", "mode": "'sparse_plus_lowrank'", "max_iter": "5000", "tol": "1e-08"},
    "sparsedyn.solver.estimate_to_json": {"config": "None"},
}


def test_library_options_are_the_pinned_defaults():
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            defaults = {key: repr(param.default) for key, param
                        in inspect.signature(obj).parameters.items()
                        if param.default is not param.empty}
            if defaults:
                found[f"{obj.__module__}.{obj.__qualname__}"] = defaults
    assert found == OPTIONS


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


def test_only_errors_tests_a_number_type():
    # ``errors.require_count`` and ``errors.require_real`` are the one type
    # check of a number; no other module imports ``numbers`` or compares a
    # ``type(...)`` with a named type such as ``int`` or ``float`` to write its
    # own.  Comparing two ``type(...)`` calls (one kind of key per file) is no
    # number check.
    def is_type_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"

    importers, type_tests = [], []
    for path in sorted(Path(sparsedyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
            sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(map(is_type_call, sides)) and not all(map(is_type_call, sides)):
                type_tests.append(path.name)
    assert importers == ["errors.py"]
    assert set(type_tests) <= {"errors.py"}


def _modules():
    """``(file name, parsed module)`` of each of the package's modules."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(Path(sparsedyn.__file__).parent.glob("*.py"))]


def test_only_rng_draws_from_numpy_random():
    # ``rng.CounterRng`` is the one generator; no other module reaches
    # ``np.random`` or ``numpy.random``, by attribute or by import.
    def draws(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        return False

    assert [name for name, tree in _modules() if any(map(draws, ast.walk(tree)))] == ["rng.py"]


def test_no_module_starts_threads_or_processes():
    # The package runs on its caller's thread: numpy's own BLAS pool is the
    # only parallelism, and no module imports a thread or process pool.
    banned = ("threading", "concurrent", "multiprocessing")

    def imported(node):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        return [name for name in names if name.split(".")[0] in banned]

    assert [(name, found) for name, tree in _modules() for node in ast.walk(tree)
            if (found := imported(node))] == []


def _functions_holding(test) -> list[tuple[str, str]]:
    """Sorted ``(file, qualified function name)`` pairs of the package's
    functions that hold a node ``test`` accepts ("" for module level)."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if test(child):
                yield where
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            yield from walk(child, f"{where}.{child.name}".lstrip(".") if named else where)

    return sorted({(name, where) for name, tree in _modules() for where in walk(tree, "")})


# The shape comparisons written outside ``linalg``, by module and function:
# table columns of one length, and the sampled path, start vector and noise,
# whose checks stay bounded in memory (no ``isfinite`` mask).
HAND_SHAPE_CHECKS = [
    ("csvio.py", "table_blocks"),
    ("simulate.py", "Trajectory.__post_init__"),
    ("simulate.py", "_initial_state"),
    ("simulate.py", "_sample"),
]


def test_only_linalg_compares_a_matrix_shape():
    # ``linalg.as_matrix`` is the one check of a matrix argument's shape; no
    # other function compares a ``.shape`` or ``.ndim`` of its own.
    def is_shape(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return isinstance(node, ast.Attribute) and node.attr in ("shape", "ndim")

    def compares_a_shape(node):
        return isinstance(node, ast.Compare) and any(
            is_shape(side) for side in [node.left, *node.comparators])

    found = _functions_holding(compares_a_shape)
    assert [(name, where) for name, where in found if name != "linalg.py"] == HAND_SHAPE_CHECKS


# The functions that open a file for writing: ``csvio.write_text`` for every
# text, and ``save_trajectory`` for the trajectory's binary sidecar.
FILE_WRITERS = [
    ("csvio.py", "write_text"),
    ("simulate.py", "save_trajectory"),
]


def test_only_csvio_and_the_sidecar_open_a_file_for_writing():
    # An ``open`` with a mode that writes, or a call that writes a whole file.
    whole_file = {"write_text", "write_bytes", "save", "savez", "savez_compressed", "savetxt",
                  "tofile"}

    def writes(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in whole_file:
            return True
        modes = [arg.value for arg in [*node.args, *(kw.value for kw in node.keywords)]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                 and set(arg.value) <= set("rwxabt+")]
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "open" and any(set(mode) & set("wxa+") for mode in modes)

    assert _functions_holding(writes) == FILE_WRITERS
