"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps module attributes, and its workloads import functions.  A
rename in the package must fail here rather than blind the benchmark's
counters or break its run.  These tests only read ``perfbench/``."""

import ast
import importlib
import importlib.util
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
