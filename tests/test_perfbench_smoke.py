"""The benchmark's workloads, run traced at toy sizes through the same
calls ``perfbench/run.py`` makes.  Only a traced run executes the
tracer's wrappers, which read some arguments by position and read
``Estimate.iterations``/``.converged``, and only a run of two traced
rounds checks that every count repeats; a package change that breaks
either must fail here rather than in the benchmark.  These tests only
read ``perfbench/`` and ``BENCHMARK.json``."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Toy sizes: one Theta point of two trials, one small trajectory under a
# 2 x 2 grid, and the walkthrough at n = 400.
TOY = {
    "PhaseSweep": {"THETAS": (1.0,), "TRIALS": 2, "HELDOUT_STEPS": 200},
    "CvGrid": {"TRAJECTORIES": 1, "N": 600, "GRID_C": [0.2, 0.4], "GRID_D": [0.5, 1.0],
               "CHUNKS": 3},
    "CliWalkthrough": {"N": 400},
}


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench``'s ``run``, ``workloads`` and ``tracing`` modules, with
    the workloads at toy sizes and one set-up repeat."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, workloads, tracing = (importlib.import_module(name)
                               for name in ("run", "workloads", "tracing"))
    for cls, sizes in TOY.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(getattr(workloads, cls), attr, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return run, workloads, tracing


def _declared() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: [m["name"] for m in bench[key]] for key in ("end_to_end", "per_layer")}


@pytest.mark.parametrize("name", ["phase_sweep", "cv_grid"])
def test_workload_runs_traced_and_correct(perfbench, tmp_path, name):
    run, workloads, _ = perfbench
    result = run.run_seed(workloads.WORKLOADS[name], 1, 0.0, True, str(tmp_path / name),
                          _declared())
    assert result["problems"] == []
    assert result["correct"]
    assert result["failed"] == 0


def test_cli_walkthrough_runs_one_traced_round_and_checks(perfbench, tmp_path):
    # One traced round of the six commands, rather than run_seed's four
    # rounds: each command is a fresh process, so no count can carry over
    # from one round to the next, and the round costs 6 processes, not 24.
    _, workloads, tracing = perfbench
    workload = workloads.CliWalkthrough(str(tmp_path))
    instances = workload.build(1)
    rnd = workload.run_round(instances[0], tracing.Tracer())
    assert rnd.out["errors"] == []
    assert rnd.failed == 0
    problems, quality = workload.check(instances, [rnd])
    assert problems == []
    metrics = tracing.layer_metrics(rnd.spans)
    assert metrics["cli.ingest_csv.calls"] == 1
    assert metrics["solver.fit.calls"] > 0 and quality["quality.heldout_mse"] > 0
