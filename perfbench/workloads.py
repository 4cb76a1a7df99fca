"""The benchmark's workloads.

Each workload builds a list of inputs from the seed (``build``), runs one
timed round of work on one of them (``run_round``) with a single client
that waits for every call, and checks the rounds of a run against its own
reference (``check``).  The work of a round is fixed by the seed and the
input it ran on.

* ``phase_sweep``: ``evaluate.phase_transition`` as ``sparsedyn phase``
  calls it.  Simulation and the counter RNG dominate; every trial fits a
  fresh system, so there is no grid to warm-start along and no I/O.
* ``cv_grid``: ``evaluate.block_cross_validate`` on one of three
  trajectories built during set-up.  Almost all of the timed work is the
  solver.
* ``cli_walkthrough``: the README walkthrough, one ``sparsedyn`` process
  per command, plus a ``fit`` on a price panel derived from the same
  trajectory.  Interpreter start, import and CSV I/O are paid per command.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import sparsedyn.evaluate as ev
from sparsedyn import (
    GenSpec,
    SolverConfig,
    SufficientStats,
    Trajectory,
    derive_seed,
    fit,
    gen_random_system,
    recovery_report,
    simulate_continuous,
    steady_state,
    sufficient_stats,
)
from sparsedyn.errors import DivergenceError
from sparsedyn.generate import system_from_json
from sparsedyn.simulate import trajectory_from_csv
from sparsedyn.solver import estimate_from_json
from tracing import FitLog, Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative tolerance between the program and the benchmark's reference.
# The reference reaches the same numbers by a different route (its own
# trial loop, directly computed fold statistics), so results may differ
# in the last digits; a looser solver or a harness change shows far above
# this.
RTOL = 1e-6

# Ensemble shared by the workloads: p observed, r latent, s interactions per row.
P, R, S, ETA = 40, 2, 3, 0.05


@dataclass
class Round:
    """One timed round: its wall time, operations attempted and failed,
    the spans recorded (traced rounds only) and what the checks need."""

    wall: float
    attempted: int
    failed: int
    spans: list
    out: dict
    stages: dict = field(default_factory=dict)
    index: int = 0


def _observed(fits: FitLog, tracer: Tracer | None):
    return patched(fits.wrappers() + (tracer.wrappers() if tracer else []))


def _linf(ahat, a) -> float:
    return float(np.max(np.abs(np.asarray(ahat) - a)))


def _one_step_mse(x: np.ndarray, eta: float, m_sum: np.ndarray) -> float:
    resid = x[1:] - x[:-1] - eta * (x[:-1] @ m_sum.T)
    return float(np.mean(resid**2))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


class PhaseSweep:
    name = "phase_sweep"
    op = "trial"
    THETAS = (1.0, 4.0, 16.0)
    C, D = 0.4, 0.5
    TRIALS = 8
    HELDOUT_STEPS = 2000

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def build(self, seed: int) -> dict:
        # n from Theta exactly as `sparsedyn phase` computes it.
        log_term = math.log((S + 2 * R) * P + R**2)
        sweep = [{"eta": ETA, "n": max(1, round(theta * S**3 * log_term / ETA))}
                 for theta in self.THETAS]
        return [{"base": GenSpec(p=P, r=R, s=S, seed=0), "sweep": sweep, "master_seed": seed}]

    def run_round(self, inputs: dict, tracer: Tracer | None) -> Round:
        fits = FitLog()
        with _observed(fits, tracer):
            start = perf_counter()
            result = ev.phase_transition(
                inputs["base"], inputs["sweep"], trials=self.TRIALS,
                lambda_rule=(self.C, self.D), master_seed=inputs["master_seed"],
            )
            wall = perf_counter() - start
        return Round(
            wall=wall,
            attempted=len(inputs["sweep"]) * self.TRIALS,
            failed=fits.failures(),
            spans=tracer.spans if tracer else [],
            out={"successes": [row.successes for row in result.rows],
                 "estimates": fits.estimates},
        )

    def _reference(self, inputs: dict):
        """The documented phase protocol, trial by trial: successes per
        point, each trial's system and its l-infinity error."""
        successes, systems, linf = [], [], []
        for g, point in enumerate(inputs["sweep"]):
            lam_a, lam_l = ev.lambda_pair_from_constants(
                self.C, self.D, P, R, S, point["eta"], point["n"])
            config = SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=2000, tol=1e-7)
            wins = 0
            for t in range(self.TRIALS):
                seed = derive_seed(inputs["master_seed"], g, t)
                system = gen_random_system(replace(inputs["base"], seed=seed))
                traj = simulate_continuous(system, eta=point["eta"], n=point["n"],
                                           mode="binned", bins=10, seed=derive_seed(seed, 1))
                stats = sufficient_stats(traj)
                systems.append((system, point["eta"], seed))
                try:
                    est = fit(stats, stats.sq_increment_sum, config)
                except DivergenceError:
                    linf.append(math.nan)
                    continue
                report = recovery_report(est.Ahat, system.A, est.Lhat, steady_state(system).L)
                wins += int(report.signed_match)
                linf.append(report.linf_error)
            successes.append(wins)
        return successes, systems, linf

    def check(self, instances: list[dict], rounds: list[Round]):
        problems = []
        ref_successes, systems, ref_linf = self._reference(instances[0])
        ref_median = statistics.median(ref_linf)
        quality = None
        for k, rnd in enumerate(rounds):
            estimates = rnd.out["estimates"]
            if rnd.out["successes"] != ref_successes:
                problems.append(f"round {k}: successes {rnd.out['successes']} "
                                f"!= reference {ref_successes}")
            if len(estimates) != len(systems):
                problems.append(f"round {k}: {len(estimates)} fits for {len(systems)} trials")
                continue
            linf = [_linf(est.Ahat, sysm.A) if est else math.nan
                    for est, (sysm, _, _) in zip(estimates, systems)]
            linf_median = statistics.median(linf)
            if not _close(linf_median, ref_median):
                problems.append(f"round {k}: linf median {linf_median!r} "
                                f"!= reference {ref_median!r}")
            if quality is None:
                quality = {"quality.heldout_mse": self._heldout_mse(estimates, systems),
                           "quality.linf_median": linf_median,
                           "quality.forecast_mse": 0.0}
        return problems, quality

    def _heldout_mse(self, estimates, systems) -> float:
        """Median over trials of the fitted model's one-step error on a
        fresh stationary stretch of the trial's own system."""
        errors = []
        for est, (system, eta, seed) in zip(estimates, systems):
            if est is None:
                continue
            fresh = simulate_continuous(system, eta=eta, n=self.HELDOUT_STEPS, mode="binned",
                                        bins=10, seed=derive_seed(seed, 2), init="stationary")
            errors.append(_one_step_mse(fresh.x, eta, est.Ahat + est.Lhat))
        return statistics.median(errors)


class CvGrid:
    name = "cv_grid"
    op = "fit"
    # Rounds cycle over a few trajectories, so that how many iterations
    # one particular system needs does not set a run's figures.
    TRAJECTORIES = 3
    N = 5000
    GRID_C = [0.1, 0.2, 0.4, 0.8]
    GRID_D = [0.1, 0.25, 0.5, 1.0]
    CHUNKS = 5

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def build(self, seed: int) -> list[dict]:
        instances = []
        for k in range(self.TRAJECTORIES):
            system = gen_random_system(GenSpec(p=P, r=R, s=S, seed=derive_seed(seed, k, 0)))
            traj = simulate_continuous(system, eta=ETA, n=self.N, mode="binned",
                                       seed=derive_seed(seed, k, 1))
            instances.append({"system": system, "traj": traj})
        return instances

    def run_round(self, inputs: dict, tracer: Tracer | None) -> Round:
        fits = FitLog()
        with _observed(fits, tracer):
            start = perf_counter()
            sel = ev.block_cross_validate(inputs["traj"], self.GRID_C, self.GRID_D,
                                          chunk_count=self.CHUNKS)
            wall = perf_counter() - start
        i, j = self.GRID_C.index(sel.c), self.GRID_D.index(sel.d)
        first = (i * len(self.GRID_D) + j) * self.CHUNKS
        return Round(
            wall=wall,
            attempted=len(fits.estimates),
            failed=fits.failures(),
            spans=tracer.spans if tracer else [],
            out={"selection": sel, "chosen_fits": fits.estimates[first:first + self.CHUNKS]},
        )

    def _reference(self, traj: Trajectory):
        """Held-out error grid with each fold's training statistics
        computed directly from the trajectory rows."""
        x, eta, n = traj.x, traj.eta, traj.n
        edges = [round(k * n / self.CHUNKS) for k in range(self.CHUNKS + 1)]
        spans = list(zip(edges[:-1], edges[1:]))
        errors = []
        for c in self.GRID_C:
            row = []
            for d in self.GRID_D:
                fold_errors = []
                for lo, hi in spans:
                    idx = np.r_[0:lo, hi:n]
                    xc, dx = x[idx], x[idx + 1] - x[idx]
                    s1 = xc.T @ xc / idx.size
                    stats = SufficientStats(S1=0.5 * (s1 + s1.T), S2=dx.T @ xc / (eta * idx.size),
                                            n=idx.size, eta=eta,
                                            sq_increment_sum=float(np.sum(dx * dx)))
                    lam_a, lam_l = ev.lambda_pair_from_constants(c, d, traj.p, 1, 1, eta, idx.size)
                    est = fit(stats, stats.sq_increment_sum,
                              SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=2000, tol=1e-7))
                    fold_errors.append(_one_step_mse(x[lo:hi + 1], eta, est.Ahat + est.Lhat))
                row.append(float(np.mean(fold_errors)))
            errors.append(row)
        return spans, errors

    def check(self, instances: list[dict], rounds: list[Round]):
        problems, heldout, linf = [], [], []
        for index in sorted({rnd.index for rnd in rounds}):
            inputs = instances[index]
            spans, ref_errors = self._reference(inputs["traj"])
            ref_flat = [e for row in ref_errors for e in row]
            # Best error first; ties go to larger c, then larger d.
            ref_best = min((err, -c, -d) for c, row in zip(self.GRID_C, ref_errors)
                           for d, err in zip(self.GRID_D, row))
            mine = [rnd for rnd in rounds if rnd.index == index]
            for rnd in mine:
                sel = rnd.out["selection"]
                where = f"trajectory {index}"
                if [tuple(s) for s in sel.fold_spans] != spans:
                    problems.append(f"{where}: fold spans {sel.fold_spans} != {spans}")
                flat = [e for row in sel.errors for e in row]
                if not all(_close(a, b) for a, b in zip(flat, ref_flat)):
                    problems.append(f"{where}: error grid differs from the reference")
                chosen = sel.errors[self.GRID_C.index(sel.c)][self.GRID_D.index(sel.d)]
                if ((sel.c, sel.d) != (-ref_best[1], -ref_best[2])
                        and not _close(chosen, ref_best[0])):
                    problems.append(f"{where}: selected (c, d) = ({sel.c}, {sel.d}), "
                                    f"reference ({-ref_best[1]}, {-ref_best[2]})")
            sel = mine[0].out["selection"]
            heldout.append(sel.errors[self.GRID_C.index(sel.c)][self.GRID_D.index(sel.d)])
            linf += [_linf(est.Ahat, inputs["system"].A) for est in mine[0].out["chosen_fits"]]
        quality = {
            "quality.heldout_mse": statistics.median(heldout),
            "quality.linf_median": statistics.median(linf),
            "quality.forecast_mse": 0.0,
        }
        return problems, quality


class CliWalkthrough:
    name = "cli_walkthrough"
    op = "command"
    N = 20000
    HOLDOUT = 25
    STAGES = ["gen", "simulate", "cv", "fit", "predict", "fit_prices"]
    ARTIFACTS = ["system.json", "traj.csv", "cv.json", "estimate.json", "graph.dot",
                 "edges.csv", "forecast.csv", "estimate_prices.json", "graph_prices.dot"]

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.prices = os.path.join(out_dir, "prices.csv")
        self.rounds_run = 0

    def build(self, seed: int) -> list[dict]:
        lam = ["--lambda-a", "0.02", "--lambda-l", "0.06"]
        return [{"argv": {
            "gen": ["gen", "--p", str(P), "--r", str(R), "--s", str(S), "--seed", str(seed),
                    "--out", "system.json"],
            "simulate": ["simulate", "--system", "system.json", "--mode", "binned",
                         "--eta", str(ETA), "--n", str(self.N), "--seed", str(seed + 1),
                         "--out", "traj.csv"],
            "cv": ["cv", "--data", "traj.csv", "--grid-c", "0.3", "0.6", "1.2",
                   "--grid-d", "0.25", "0.5", "1.0", "--chunks", "5", "--out", "cv.json"],
            "fit": ["fit", "--data", "traj.csv", *lam, "--graph-out", "graph.dot",
                    "--edges-out", "edges.csv", "--out", "estimate.json"],
            "predict": ["predict", "--data", "traj.csv", "--estimate", "estimate.json",
                        "--horizon", str(self.HOLDOUT), "--holdout", str(self.HOLDOUT),
                        "--out", "forecast.csv"],
            "fit_prices": ["fit", "--prices", self.prices, "--convert", "log",
                           "--price-eta", str(ETA), *lam, "--graph-out", "graph_prices.dot",
                           "--out", "estimate_prices.json"],
        }}]

    def _write_prices(self, traj_csv: str) -> None:
        """Price panel with ISO dates whose log is the simulated path."""
        x = trajectory_from_csv(_read(traj_csv)).x
        day0 = datetime.date(2000, 1, 1).toordinal()
        lines = ["date," + ",".join(f"x{j + 1}" for j in range(x.shape[1]))]
        for i, row in enumerate(np.exp(x)):
            date = datetime.date.fromordinal(day0 + i).isoformat()
            lines.append(date + "," + ",".join(f"{v:.17g}" for v in row))
        with open(self.prices, "w") as out:
            out.write("\n".join(lines) + "\n")

    def run_round(self, inputs: dict, tracer: Tracer | None) -> Round:
        rdir = os.path.join(self.out_dir, f"round{self.rounds_run}")
        self.rounds_run += 1
        os.makedirs(rdir)
        stages, imports, errors = {}, [], []
        failed = 0
        for name in self.STAGES:
            if name == "fit_prices" and not os.path.exists(self.prices):
                self._write_prices(os.path.join(rdir, "traj.csv"))
            record = os.path.join(rdir, f"{name}.record.json")
            cmd = [sys.executable, os.path.join(HERE, "stage.py"), record,
                   "1" if tracer else "0", "--", *inputs["argv"][name]]
            start = perf_counter()
            proc = subprocess.run(cmd, cwd=rdir, capture_output=True, text=True, timeout=150)
            stages[name] = perf_counter() - start
            output = (proc.stdout + proc.stderr).splitlines()
            bad = [line for line in output if line.startswith("error:")]
            rec = json.loads(_read(record)) if os.path.exists(record) else None
            if rec is not None:
                imports.append(rec["import_s"])
                if tracer:
                    tracer.extend(rec["spans"])
            if proc.returncode or bad or rec is None or rec["fit_failures"]:
                failed += 1
                errors.append(f"{name}: exit {proc.returncode}; "
                              + " | ".join(bad or output[-3:]))
        return Round(
            wall=sum(stages.values()),
            attempted=len(self.STAGES),
            failed=failed,
            spans=tracer.spans if tracer else [],
            out={"dir": rdir, "imports": imports, "errors": errors},
            stages=stages,
        )

    def check(self, instances: list[dict], rounds: list[Round]):
        problems = [e for rnd in rounds for e in rnd.out["errors"]]
        first = rounds[0].out["dir"]
        for name in self.ARTIFACTS:
            path = os.path.join(first, name)
            if not os.path.exists(path):
                problems.append(f"missing artifact {name}")
                continue
            blob = _read(path, binary=True)
            for rnd in rounds[1:]:
                if _read(os.path.join(rnd.out["dir"], name), binary=True) != blob:
                    problems.append(f"{name} differs between {first} and {rnd.out['dir']}")
        if problems:
            return problems, None
        # Recompute the forecast error in this process.
        traj = trajectory_from_csv(_read(os.path.join(first, "traj.csv")))
        est, _ = estimate_from_json(_read(os.path.join(first, "estimate.json")))
        start = traj.x.shape[0] - self.HOLDOUT
        history = Trajectory(x=traj.x[:start], eta=traj.eta)
        _, mse = ev.predict(est.Ahat, est.Lhat, history, self.HOLDOUT,
                            traj.x[start:start + self.HOLDOUT])
        written = [line for line in _read(os.path.join(first, "forecast.csv")).splitlines()
                   if line.startswith("# mse: ")]
        if len(written) != 1 or not _close(float(written[0][7:]), mse):
            problems.append(f"forecast mse {written} != in-process recomputation {mse!r}")
        system, _ = system_from_json(_read(os.path.join(first, "system.json")))
        cv = json.loads(_read(os.path.join(first, "cv.json")))
        grid_c, grid_d = cv["config"]["grid_c"], cv["config"]["grid_d"]
        quality = {
            "quality.heldout_mse": cv["errors"][grid_c.index(cv["c"])][grid_d.index(cv["d"])],
            "quality.linf_median": _linf(est.Ahat, system.A),
            "quality.forecast_mse": mse,
        }
        if not problems:
            # The trajectory and price CSVs take about 17 MB each per round.
            os.remove(self.prices)
            for rnd in rounds:
                shutil.rmtree(rnd.out["dir"])
        return problems, quality


def _read(path: str, binary: bool = False):
    with open(path, "rb" if binary else "r") as src:
        return src.read()


WORKLOADS = {cls.name: cls for cls in (PhaseSweep, CvGrid, CliWalkthrough)}
