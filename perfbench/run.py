"""sparsedyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload phase_sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it also runs traced rounds and reports the per-layer
metrics (see BENCHMARK.json for both lists).  Either way the outputs are
checked against the workload's reference, a table of every metric goes to
standard output, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record (run
environment, per-round figures, checks) is written to
``.perfbench/<workload>-seed<seed>-trace<t>/result.json`` and the spans of
traced rounds to ``spans.jsonl`` beside it.  The exit code is 1 when a
check fails.

``--heldout-seed`` repeats the measurement on a second seed, kept out of
development, and adds its figures to the record.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_seconds() -> float:
    """Seconds to import sparsedyn in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sparsedyn; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip())


def _round(workload, instances, index: int, traced: bool):
    from tracing import Tracer

    rnd = workload.run_round(instances[index], Tracer() if traced else None)
    rnd.index = index
    return rnd


def _measure(workload, instances, seconds: float) -> list:
    """Untraced rounds, cycling over the inputs, until ``seconds`` of wall
    time are used (at least two); a round is started only if one more
    round of the last round's length still fits."""
    rounds = []
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start + rounds[-1].wall <= seconds:
        rounds.append(_round(workload, instances, len(rounds) % len(instances), traced=False))
    return rounds


def _measure_traced(workload, instances, seconds: float) -> tuple[list, list]:
    """Pairs of an untraced and a traced round on the first input (at
    least two pairs).  Alternating keeps both kinds in the same stretch of
    machine speed, so their ratio is the tracing overhead, and running one
    input lets the counts of traced rounds be compared."""
    plain, traced = [], []
    start = perf_counter()
    while (len(traced) < 2
           or perf_counter() - start + plain[-1].wall + traced[-1].wall <= seconds):
        plain.append(_round(workload, instances, 0, traced=False))
        traced.append(_round(workload, instances, 0, traced=True))
    return plain, traced


def _peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_walkthrough" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _blas() -> list[dict]:
    """OpenBLAS libraries loaded in this process, with version and threads."""
    found = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and always a digest
    of the package sources, so results from exported trees are matched."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "sparsedyn", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as src:
            digest.update(src.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        **_source_identity(),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _median_rounds(rounds, key):
    return statistics.median(key(r) for r in rounds)


def run_seed(workload_cls, seed: int, seconds: float, trace: bool, out_dir: str,
             declared: dict) -> dict:
    """Set up, measure and check one seed; returns metrics and record."""
    os.makedirs(out_dir)
    workload = workload_cls(out_dir)
    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        instances = workload.build(seed)
        builds.append(perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    if trace:
        plain, traced = _measure_traced(workload, instances, seconds)
    else:
        plain, traced = _measure(workload, instances, seconds), []
    rounds = plain + traced
    problems, quality = workload.check(instances, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    plain_s = sum(r.wall for r in plain)
    values = {
        "setup_s": setup_s,
        "wall_s": _median_rounds(plain, lambda r: r.wall),
        "ops_per_s": sum(r.attempted for r in plain) / plain_s,
        "ok_ratio": 1.0 - sum(r.failed for r in plain) / sum(r.attempted for r in plain),
        "fail_ratio": sum(r.failed for r in plain) / sum(r.attempted for r in plain),
        "peak_rss_mb": _peak_rss_mb(workload_cls.name),
        "rounds": len(plain),
        **(quality or {}),
    }
    for stage in ("gen", "simulate", "cv", "fit", "fit_prices", "predict"):
        values[f"stage_s.{stage}"] = (
            _median_rounds(plain, lambda r: r.stages[stage]) if plain[0].stages else 0.0)
    if trace:
        from tracing import COUNT_METRICS, layer_metrics, write_jsonl

        per_round = [layer_metrics(r.spans) for r in traced]
        for name in per_round[0]:
            values[name] = statistics.median(m[name] for m in per_round)
        for name in COUNT_METRICS:
            counts = {m[name] for m in per_round}
            if len(counts) != 1:
                problems.append(f"count {name} differs across traced rounds: {sorted(counts)}")
            values[name] = per_round[0][name]
        imports = [s for r in traced for s in r.out.get("imports", [])]
        values["cli.import_s"] = statistics.median(imports) if imports else 0.0
        values["trace.overhead_ratio"] = _median_rounds(traced, lambda r: r.wall) / values["wall_s"]
        for k, rnd in enumerate(traced):
            write_jsonl(rnd.spans, os.path.join(out_dir, "spans.jsonl"), round=k)
    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [name for name in wanted if name not in values]
    if missing:
        problems.append(f"metrics not produced: {missing}")

    return {
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "rounds": [{"wall": r.wall, "attempted": r.attempted, "failed": r.failed,
                    "traced": i >= len(plain), "stages": r.stages}
                   for i, r in enumerate(rounds)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--heldout-seed", dest="heldout_seed", type=int, default=None)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sparsedyn", "__init__.py")):
        print(f"error: no sparsedyn sources under {SRC}", file=sys.stderr)
        return 2
    # One process generates the load, with one BLAS thread (inherited by
    # the command processes).  At p = 40 the BLAS calls are too small to
    # gain from threads: on 2 CPUs a second thread made phase_sweep about
    # 25% slower and its round times twice as variable.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import sparsedyn

    if not os.path.abspath(sparsedyn.__file__).startswith(SRC + os.sep):
        print(f"error: sparsedyn imported from {sparsedyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    declared = {key: [m["name"] for m in bench[key]] for key in ("end_to_end", "per_layer")}
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]}

    out_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cls = WORKLOADS[args.workload]
    main_run = run_seed(cls, args.seed, args.seconds, bool(args.trace), out_dir, declared)
    record = {"workload": args.workload, "operation": cls.op, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **main_run}
    correct = main_run["correct"]
    if args.heldout_seed is not None:
        heldout = run_seed(cls, args.heldout_seed, args.seconds, bool(args.trace),
                           os.path.join(out_dir, "heldout"), declared)
        record["heldout"] = heldout
        correct = correct and heldout["correct"]
    with open(os.path.join(out_dir, "result.json"), "w") as out:
        json.dump(record, out, indent=2, default=str)

    names = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = main_run["metrics"]
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {units.get(name, '')}")
    for problem in main_run["problems"] + record.get("heldout", {}).get("problems", []):
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
