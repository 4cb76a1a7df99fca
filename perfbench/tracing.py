"""Spans and counters around calls into sparsedyn's public functions.

Wrappers are installed on the module attribute each caller actually looks
up (``sparsedyn.evaluate.fit`` as well as ``sparsedyn.solver.fit``), so the
package is measured without being changed.  A span is the list
``[id, name, parent_id, start, end, attrs]``; spans stay in memory until
the run writes them out as JSON lines.  The program is single-threaded,
so spans nest and a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from time import perf_counter

from sparsedyn.errors import DivergenceError


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_attrs(args, kwargs, est):
    return {"iterations": est.iterations, "converged": est.converged}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = [
    ("sparsedyn.rng", "CounterRng.normals", "rng.normals",
     lambda a, k, r: {"n": _arg(a, k, 1, "n")}),
    ("sparsedyn.evaluate", "simulate_continuous", "simulate.simulate_continuous",
     lambda a, k, r: {"n": _arg(a, k, 2, "n")}),
    ("sparsedyn.simulate", "simulate_continuous", "simulate.simulate_continuous",
     lambda a, k, r: {"n": _arg(a, k, 2, "n")}),
    ("sparsedyn.simulate", "binned_increment_covariance", "simulate.increment_cov", None),
    ("sparsedyn.simulate", "exact_increment_covariance", "simulate.increment_cov", None),
    ("sparsedyn.evaluate", "sufficient_stats", "simulate.sufficient_stats", None),
    ("sparsedyn.simulate", "sufficient_stats", "simulate.sufficient_stats", None),
    ("sparsedyn.evaluate", "merge_stats", "simulate.merge_stats", None),
    ("sparsedyn.simulate", "trajectory_to_csv", "simulate.csv_write",
     lambda a, k, r: {"bytes": len(r)}),
    ("sparsedyn.simulate", "trajectory_from_csv", "simulate.csv_read",
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))}),
    ("sparsedyn.evaluate", "fit", "solver.fit", _fit_attrs),
    ("sparsedyn.solver", "fit", "solver.fit", _fit_attrs),
    ("sparsedyn.solver", "objective", "solver.objective",
     lambda a, k, r: {"lambda_l": _arg(a, k, 5, "lambda_l")}),
    ("sparsedyn.solver", "prox_nuclear", "linalg.prox_nuclear", None),
    ("sparsedyn.solver", "prox_l1", "linalg.prox_l1", None),
    ("sparsedyn.solver", "power_spectral_norm", "linalg.power_spectral_norm", None),
    ("sparsedyn.simulate", "matrix_exponential", "linalg.matrix_exponential", None),
    ("sparsedyn.model", "solve_lyapunov_continuous", "linalg.lyapunov", None),
    ("sparsedyn.model", "solve_lyapunov_discrete", "linalg.lyapunov", None),
    ("sparsedyn.simulate", "solve_lyapunov_continuous", "linalg.lyapunov", None),
    ("sparsedyn.simulate", "solve_lyapunov_discrete", "linalg.lyapunov", None),
    ("sparsedyn.evaluate", "gen_random_system", "generate.gen_random_system", None),
    ("sparsedyn.generate", "gen_random_system", "generate.gen_random_system", None),
    ("sparsedyn.evaluate", "steady_state", "model.steady_state", None),
    ("sparsedyn.evaluate", "phase_transition", "evaluate.phase_transition", None),
    ("sparsedyn.evaluate", "block_cross_validate", "evaluate.block_cross_validate", None),
    ("sparsedyn.evaluate", "recovery_report", "evaluate.recovery_report", None),
    ("sparsedyn.evaluate", "predict", "evaluate.predict", None),
    ("sparsedyn.evaluate", "export_dependency_graph", "evaluate.export_dependency_graph", None),
    ("sparsedyn.cli", "ingest_csv", "cli.ingest_csv", None),
]

# Every name under which the package's callers look up the solver.
FIT_TARGETS = [("sparsedyn.evaluate", "fit"), ("sparsedyn.solver", "fit")]


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def patched(wrappers):
    """Replace each ``(module, attribute)`` by ``make(original)`` and put
    the originals back on exit.  ``wrappers`` is a list of
    ``(module, attribute, make)``."""
    saved = []
    try:
        for module, attribute, make in wrappers:
            owner, name = _owner(module, attribute)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class FitLog:
    """Counting-only observer of fits: keeps each returned estimate (or
    ``None`` for a fit that raised ``DivergenceError``) and takes no time
    stamps, so it stays installed in untraced rounds too."""

    def __init__(self):
        self.estimates = []

    def wrappers(self):
        return [(module, name, self._wrap) for module, name in FIT_TARGETS]

    def _wrap(self, fit):
        estimates = self.estimates

        def observed(*args, **kwargs):
            try:
                est = fit(*args, **kwargs)
            except DivergenceError:
                estimates.append(None)
                raise
            estimates.append(est)
            return est

        return observed

    def failures(self) -> int:
        """Fits that diverged or stopped without converging."""
        return sum(1 for est in self.estimates if est is None or not est.converged)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrappers(self):
        return [
            (module, attribute, lambda fn, name=name, attrs=attrs: self._wrap(fn, name, attrs))
            for module, attribute, name, attrs in TARGETS
        ]

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else None, perf_counter(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block that is not a wrapped call."""
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def extend(self, spans):
        """Append spans recorded by another process, renumbering their ids."""
        offset = len(self.spans)
        for sid, name, parent, start, end, attrs in spans:
            self.spans.append([sid + offset, name, None if parent is None else parent + offset,
                               start, end, attrs])


def write_jsonl(spans, path, **tags) -> None:
    with open(path, "a") as out:
        for sid, name, parent, start, end, attrs in spans:
            doc = {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
            if attrs:
                doc["attrs"] = attrs
            doc.update(tags)
            out.write(json.dumps(doc) + "\n")


class _Agg:
    __slots__ = ("calls", "s", "self_s", "durations", "attrs")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.durations = []
        self.attrs = []


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, durations, attrs."""
    child = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, _Agg] = {}
    for sid, name, _, start, end, attrs in spans:
        agg = out.setdefault(name, _Agg())
        duration = end - start
        agg.calls += 1
        agg.s += duration
        agg.self_s += duration - child[sid]
        agg.durations.append(duration)
        if attrs:
            agg.attrs.append(attrs)
    return out


def tail(values):
    """Highest order statistic with at least ten samples above it (the
    maximum when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)] if ordered else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round from its spans."""
    agg = aggregate(spans)
    empty = _Agg()

    def get(name):
        return agg.get(name, empty)

    def attr_sum(name, key):
        return sum(a[key] for a in get(name).attrs)

    fit = get("solver.fit")
    objective = get("solver.objective")
    iterations = attr_sum("solver.fit", "iterations")
    converged = attr_sum("solver.fit", "converged")
    prox_nuclear = get("linalg.prox_nuclear")
    nuclear_objectives = sum(1 for a in objective.attrs if a["lambda_l"] > 0)
    steps = attr_sum("simulate.simulate_continuous", "n")
    simulate = get("simulate.simulate_continuous")
    fit_ms = [1000.0 * d for d in fit.durations]
    return {
        "rng.normals.calls": get("rng.normals").calls,
        "rng.normals.draws": attr_sum("rng.normals", "n"),
        "rng.normals.s": get("rng.normals").s,
        "simulate.simulate_continuous.s": simulate.s,
        "simulate.increment_cov.s": get("simulate.increment_cov").s,
        "simulate.steps": steps,
        "simulate.recursion_us_per_step": 1e6 * simulate.self_s / steps if steps else 0.0,
        "simulate.sufficient_stats.s": get("simulate.sufficient_stats").s,
        "simulate.merge_stats.s": get("simulate.merge_stats").s,
        "simulate.csv_write.s": get("simulate.csv_write").s,
        "simulate.csv_write.bytes": attr_sum("simulate.csv_write", "bytes"),
        "simulate.csv_read.s": get("simulate.csv_read").s,
        "simulate.csv_read.calls": get("simulate.csv_read").calls,
        "simulate.csv_read.bytes": attr_sum("simulate.csv_read", "bytes"),
        "solver.fit.calls": fit.calls,
        "solver.fit.s": fit.s,
        "solver.fit.self_s": fit.self_s,
        "solver.fit.ms.p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "solver.fit.ms.tail": tail(fit_ms),
        "solver.iterations": iterations,
        "solver.iters_per_fit.max": max((a["iterations"] for a in fit.attrs), default=0),
        "solver.objective.calls": objective.calls,
        "solver.restarts": objective.calls - fit.calls - iterations,
        "solver.svd_per_iter": (
            (prox_nuclear.calls + nuclear_objectives) / iterations if iterations else 0.0
        ),
        "solver.ms_per_iter": 1000.0 * fit.s / iterations if iterations else 0.0,
        "solver.converged_ratio": converged / fit.calls if fit.calls else 0.0,
        "linalg.prox_nuclear.calls": prox_nuclear.calls,
        "linalg.prox_nuclear.s": prox_nuclear.s,
        "linalg.prox_l1.s": get("linalg.prox_l1").s,
        "linalg.power_spectral_norm.s": get("linalg.power_spectral_norm").s,
        "linalg.matrix_exponential.calls": get("linalg.matrix_exponential").calls,
        "linalg.matrix_exponential.s": get("linalg.matrix_exponential").s,
        "linalg.lyapunov.s": get("linalg.lyapunov").s,
        "generate.gen_random_system.s": get("generate.gen_random_system").s,
        "model.steady_state.s": get("model.steady_state").s,
        "evaluate.phase_transition.self_s": get("evaluate.phase_transition").self_s,
        "evaluate.block_cross_validate.self_s": get("evaluate.block_cross_validate").self_s,
        "evaluate.recovery_report.s": get("evaluate.recovery_report").s,
        "evaluate.predict.s": get("evaluate.predict").s,
        "evaluate.export_dependency_graph.s": get("evaluate.export_dependency_graph").s,
        "cli.ingest_csv.calls": get("cli.ingest_csv").calls,
        "cli.ingest_csv.s": get("cli.ingest_csv").s,
        "cli.command.self_s": get("cli.command").self_s,
    }


# Layer metrics that count work; each must repeat exactly across the
# rounds of one run.
COUNT_METRICS = [
    "rng.normals.calls", "rng.normals.draws", "simulate.steps",
    "simulate.csv_write.bytes", "simulate.csv_read.calls", "simulate.csv_read.bytes",
    "solver.fit.calls", "solver.iterations", "solver.iters_per_fit.max",
    "solver.objective.calls", "solver.restarts", "solver.svd_per_iter",
    "solver.converged_ratio", "linalg.prox_nuclear.calls",
    "linalg.matrix_exponential.calls", "cli.ingest_csv.calls",
]
