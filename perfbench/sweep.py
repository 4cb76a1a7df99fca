"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload cv_grid --seeds 1 2 3 4 5 --seconds 25 [--trace 1]

For every metric prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  Runs one
seed at a time; ``--out FILE`` also writes all results as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bounds = {m["name"]: m["bound"] for m in json.load(spec)["end_to_end"]}

    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        elapsed = time.perf_counter() - start
        results.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: exit {proc.returncode} after {elapsed:.1f} s, correct "
              f"{result.get('correct')}, failed {result.get('failed')}/{result.get('attempted')}",
              flush=True)
        if proc.returncode:
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)

    names = sorted({name for r in results for name in r.get("metrics", {})})
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
        if len(values) < 2:
            continue
        median, q1, q3, share = spread(values)
        bound = bounds.get(name)
        flag = "  over 1/3 bound" if bound and share > bound / 3 else ""
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(results, out, indent=2)
    return 0 if all(r["exit"] == 0 and r.get("correct") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
