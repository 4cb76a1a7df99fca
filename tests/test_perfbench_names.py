"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps module attributes, and its workloads import functions.  A
rename in the package must fail here rather than blind the benchmark's
counters or break its run.  These tests only read ``perfbench/``."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracing_targets_resolve():
    tracing = _load_tracing()
    targets = [(module, attribute) for module, attribute, _, _ in tracing.TARGETS]
    missing = []
    for module, attribute in targets + list(tracing.FIT_TARGETS):
        try:
            _resolve(module, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attribute}")
    assert not missing, f"perfbench/tracing.py wraps names that do not exist: {missing}"


def _package_imports(path: Path):
    """``(module, name)`` for every name a file imports from sparsedyn, and
    ``(module, None)`` for every sparsedyn module it imports whole."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparsedyn"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sparsedyn"):
                    yield alias.name, None


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_imports_from_the_package_exist(path):
    missing = []
    for module, name in _package_imports(path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(owner, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


def test_import_scan_finds_the_package_imports():
    # Guards the scan above against passing by finding nothing.
    for path in PERFBENCH.glob("*.py"):
        if re.search(r"^\s*(from|import) sparsedyn", path.read_text(), re.MULTILINE):
            assert list(_package_imports(path)), path.name


def _package_calls(path: Path):
    """``(line, dotted name, callee or None, positional count, keyword
    names)`` for every call in a file whose callee is reached from a name
    the file imports from sparsedyn (``fit(...)``, ``ev.predict(...)``,
    ``sparsedyn.cli.run(...)``).  Calls that unpack ``*args`` or
    ``**kwargs`` cannot be bound by count and are left out."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparsedyn"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sparsedyn"):
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "sparsedyn"] = (
                        module if alias.asname else importlib.import_module("sparsedyn")
                    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in bound:
            continue
        callee = bound[func.id]
        for attr in reversed(chain):
            callee = getattr(callee, attr, None)
        name = ".".join([func.id, *reversed(chain)])
        yield node.lineno, name, callee, len(node.args), [k.arg for k in node.keywords]


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_calls_bind_to_package_signatures(path):
    # A parameter the benchmark passes (init=, bins=, chunk_count=, ...)
    # that is renamed or removed must fail here, not in the benchmark run.
    broken = []
    for line, name, callee, positional, keywords in _package_calls(path):
        if callee is None:
            broken.append(f"line {line}: {name} does not exist")
            continue
        try:
            inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            broken.append(f"line {line}: {name}: {exc}")
    assert not broken, f"{path.name} calls the package with arguments that do not bind: {broken}"


def test_call_scan_finds_the_package_calls():
    # Guards the scan above against passing by finding nothing.
    workloads = list(_package_calls(PERFBENCH / "workloads.py"))
    names = {name for _, name, _, _, _ in workloads}
    assert {"ev.phase_transition", "ev.block_cross_validate", "fit", "GenSpec"} <= names
    assert any(name == "simulate_continuous" and "init" in keywords
               for _, name, _, _, keywords in workloads)
    stage = {name for _, name, _, _, _ in _package_calls(PERFBENCH / "stage.py")}
    assert "sparsedyn.cli.run" in stage
