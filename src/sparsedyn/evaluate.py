"""Recovery metrics, the phase-transition harness, chunked
cross-validation, and prediction utilities.

The phase-transition protocol mirrors the synthetic experiments: draw a
fresh system per trial, simulate continuous-time data at the requested
sampling step, fit the sparse + low-rank estimator, and count a trial as a
success when the fitted sparse block reproduces the exact signed support
of the truth.  Success rates are reported against the control parameter
``Theta = eta n / (s^3 log((s+2r)p + r^2))``.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import astuple, dataclass, replace

import numpy as np

from .csvio import table_blocks
from .errors import ConfigError, ConstructionError, DivergenceError, require_count, require_real
from .generate import GenSpec, gen_random_system
from .linalg import as_matrix
from .model import control_parameter, lambda_pair_from_constants, steady_state
from .rng import derive_seed
from .simulate import (
    Trajectory,
    merge_stats,
    simulate_continuous,
    sufficient_stats,
)
from .solver import MODE_PURE_LASSO, MODE_SPARSE_LOWRANK, SolverConfig, fit

__all__ = [
    "RecoveryReport",
    "PhasePoint",
    "PhaseResult",
    "CvSelection",
    "default_support_threshold",
    "recovery_report",
    "phase_transition",
    "block_cross_validate",
    "predict",
    "DependencyGraph",
    "export_dependency_graph",
]

log = logging.getLogger("sparsedyn")

# Stopping rule of every phase-trial fit, and the cross-validation defaults.
PROTOCOL_MAX_ITER = 2000
PROTOCOL_TOL = 1e-7
CV_CHUNKS = 5


def default_support_threshold(ahat: np.ndarray) -> float:
    """Round-off guard for supports of estimated matrices:
    ``1e-6 * max(1, ||Ahat||_inf)``.  Proximal output has exact zeros, so
    this only absorbs floating-point dust."""
    ahat = as_matrix(ahat, "Ahat")
    scale = float(np.max(np.abs(ahat))) if ahat.size else 0.0
    return 1e-6 * max(1.0, scale)


def _support_threshold(ahat: np.ndarray, zeta: float | None) -> float:
    """``zeta``, checked, or the default round-off guard when it is ``None``."""
    if zeta is None:
        return default_support_threshold(ahat)
    return require_real(zeta, "zeta", "non-negative")


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of comparing an estimate against the truth.

    ``signed_match`` implies ``support_subset`` (and support equality) by
    construction.
    """

    support_subset: bool
    signed_match: bool
    linf_error: float
    spectral_error_L: float
    support_threshold: float


def recovery_report(
    ahat: np.ndarray,
    astar: np.ndarray,
    lhat: np.ndarray,
    lstar: np.ndarray,
    zeta: float | None = None,
) -> RecoveryReport:
    """Support, sign, and error comparison at support threshold ``zeta``.

    Supports are ``{(i, j): |entry| > zeta}`` on both matrices; signs are
    compared on the thresholded supports.  ``zeta = None`` selects the
    default round-off guard.
    """
    ahat, lhat = as_matrix(ahat, "Ahat"), as_matrix(lhat, "Lhat")
    astar, lstar = as_matrix(astar, "Astar", ahat.shape), as_matrix(lstar, "Lstar", lhat.shape)
    zeta = _support_threshold(ahat, zeta)
    supp_hat = np.abs(ahat) > zeta
    supp_star = np.abs(astar) > zeta
    signs_hat = np.sign(ahat) * supp_hat
    signs_star = np.sign(astar) * supp_star
    return RecoveryReport(
        support_subset=bool(np.all(supp_star | ~supp_hat)),
        signed_match=bool(np.array_equal(signs_hat, signs_star)),
        linf_error=float(np.max(np.abs(ahat - astar))) if ahat.size else 0.0,
        spectral_error_L=float(np.linalg.norm(lhat - lstar, 2)) if lhat.size else 0.0,
        support_threshold=float(zeta),
    )


@dataclass(frozen=True)
class PhasePoint:
    p: int
    r: int
    s: int
    eta: float
    n: int
    theta: float
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class PhaseResult:
    """Grid of success counts from repeated recovery trials."""

    rows: list[PhasePoint]

    def to_csv(self, comments: list[str] | None = None) -> str:
        header = ["p", "r", "s", "eta", "n", "theta", "trials", "successes", "success_rate"]
        rows = [[*astuple(row), row.success_rate] for row in self.rows]
        values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
        return "".join(table_blocks(header, [values], comments))


def phase_transition(
    base: GenSpec,
    sweep: list[dict],
    trials: int,
    lambda_rule: tuple[float, float],
    master_seed: int,
) -> PhaseResult:
    """Success-probability grid over sampling/size variations.

    Each grid point carries ``eta``, the sampling step of the
    continuous-time protocol, and ``n``, the sample count, and may override
    ``p``, ``r`` and ``s`` of ``base``; any other key is an error.  Every
    point is checked before the first trial runs.  Per trial: draw a
    fresh system (seed derived from ``(master_seed, point, trial)``),
    simulate (binned, ``bins = 10``), fit with the fixed stopping rule
    ``PROTOCOL_MAX_ITER``/``PROTOCOL_TOL``, and score exact signed-support
    recovery of the sparse block above the round-off guard
    ``default_support_threshold``.  ``lambda_rule`` is the ``(c, d)`` pair
    of the practical regularizer rule (``lambda_pair_from_constants``).
    Trials whose fit diverges count as failures.  One warning names the
    ``(point, trial)`` fits that diverged or did not converge.  A point's
    ``eta`` must be a finite positive real number, and ``trials`` and a
    point's counts integers (a ``bool`` is neither); a row holds its
    ``eta`` as a ``float``.
    """
    trials = require_count(trials, "trials", 1)
    if not sweep:
        raise ConstructionError("sweep must contain at least one point")
    c, d = lambda_rule
    points = []
    for g, overrides in enumerate(sweep):
        unknown = sorted(set(overrides) - {"eta", "n", "p", "r", "s"})
        if unknown:
            raise ConstructionError(f"sweep point {g} has unrecognised keys {unknown}")
        for key, what in (("eta", "a sampling step"), ("n", "a sample count")):
            if key not in overrides:
                raise ConstructionError(f"sweep point {g} must carry {what} {key!r}")
        eta = require_real(overrides["eta"], f"sweep point {g}: eta", "positive")
        sizes = {key: require_count(overrides[key], f"sweep point {g}: {key}")
                 for key in ("n", "p", "r", "s") if key in overrides}
        n = sizes.pop("n")
        spec = replace(base, eta=0.0, **sizes)
        theta = control_parameter(eta, n, spec.s, spec.r, spec.p)
        lam_a, lam_l = lambda_pair_from_constants(c, d, spec.p, spec.r, spec.s, eta, n)
        config = SolverConfig(lambda_a=lam_a, lambda_l=lam_l,
                              max_iter=PROTOCOL_MAX_ITER, tol=PROTOCOL_TOL)
        points.append((spec, eta, n, theta, config))
    rows, diverged, unconverged = [], [], []
    for g, (spec, eta, n, theta, config) in enumerate(points):
        successes = 0
        for t in range(trials):
            seed = derive_seed(master_seed, g, t)
            system = gen_random_system(replace(spec, seed=seed))
            truth = steady_state(system)
            # The path is reduced at once, so no trial's path outlives it.
            stats = sufficient_stats(simulate_continuous(
                system, eta=eta, n=n, mode="binned", bins=10,
                seed=derive_seed(seed, 1),
            ))
            try:
                est = fit(stats, stats.sq_increment_sum, config)
            except DivergenceError:
                diverged.append((g, t))
                continue
            if not est.converged:
                unconverged.append((g, t))
            report = recovery_report(est.Ahat, system.A, est.Lhat, truth.L)
            successes += int(report.signed_match)
        rows.append(
            PhasePoint(
                p=spec.p, r=spec.r, s=spec.s, eta=float(eta), n=n, theta=theta,
                trials=trials, successes=successes,
            )
        )
    if diverged or unconverged:
        log.warning("phase sweep: %d fits diverged, (point, trial): %s; %d stopped at "
                    "max_iter=%d without converging, (point, trial): %s", len(diverged),
                    diverged, len(unconverged), PROTOCOL_MAX_ITER, unconverged)
    return PhaseResult(rows=rows)


@dataclass(frozen=True)
class CvSelection:
    """Winning constants of a chunked cross-validation sweep.

    ``errors[i][j]`` is the mean held-out one-step prediction error for
    ``(grid_c[i], grid_d[j])``; ``fold_spans`` records the half-open
    transition ranges of the folds (consecutive, contiguous, disjoint).
    """

    c: float
    d: float
    lambda_a: float
    lambda_l: float
    errors: list[list[float]]
    fold_spans: list[tuple[int, int]]


def _one_step_mse(traj: Trajectory, span: tuple[int, int], m_sum: np.ndarray) -> float:
    lo, hi = span
    xc = traj.x[lo:hi]
    xn = traj.x[lo + 1: hi + 1]
    resid = xn - xc - traj.eta * (xc @ m_sum.T)
    return float(np.mean(resid**2))


def block_cross_validate(
    traj: Trajectory,
    grid_c: list[float],
    grid_d: list[float],
    chunk_count: int = CV_CHUNKS,
    *,
    mode: str = MODE_SPARSE_LOWRANK,
    s_ref: int = 1,
    r_ref: int = 1,
    max_iter: int = PROTOCOL_MAX_ITER,
    tol: float = PROTOCOL_TOL,
) -> CvSelection:
    """Select regularizer constants by leave-one-chunk-out validation.

    The transitions are split into ``chunk_count`` consecutive contiguous
    blocks (temporal dependence makes shuffled folds invalid).  For each
    candidate ``(c, d)``: hold out one chunk at a time, fit on the merged
    statistics of the remaining chunks, and score one-step-ahead mean
    squared prediction error on the held-out chunk.  Ties break toward
    larger ``c`` then larger ``d`` (sparser models).  ``s_ref``/``r_ref``
    only shift the constant inside the log factor that ``c`` absorbs.
    One warning names the ``(c, d, fold)`` fits that did not converge.
    """
    if not grid_c or (mode != MODE_PURE_LASSO and not grid_d):
        raise ConfigError("cross-validation grid must be non-empty")
    chunk_count = require_count(chunk_count, "chunk_count", 2, ConfigError)
    if traj.n < chunk_count:
        raise ConfigError("not enough transitions for the requested chunk count")
    if mode == MODE_PURE_LASSO:
        grid_d = [0.0]
    edges = [round(i * traj.n / chunk_count) for i in range(chunk_count + 1)]
    spans = list(zip(edges, edges[1:]))

    def rule(c: float, d: float, n: int) -> tuple[float, float]:
        return lambda_pair_from_constants(c, d, traj.p, r_ref, s_ref, traj.eta, n)

    # Every fold's settings, from its training size, are checked before any work.
    configs = [[[SolverConfig(*rule(c, d, traj.n - (hi - lo)), mode=mode,
                              max_iter=max_iter, tol=tol) for lo, hi in spans]
                for d in grid_d] for c in grid_c]
    chunk_stats = [
        sufficient_stats(Trajectory(x=traj.x[lo: hi + 1], eta=traj.eta))
        for lo, hi in spans
    ]
    fold_train = [
        merge_stats([cs for k, cs in enumerate(chunk_stats) if k != hold])
        for hold in range(chunk_count)
    ]
    errors = [[math.inf] * len(grid_d) for _ in grid_c]
    unconverged = []
    for i, c in enumerate(grid_c):
        for j, d in enumerate(grid_d):
            fold_errors = []
            for hold, (train, config) in enumerate(zip(fold_train, configs[i][j])):
                est = fit(train, train.sq_increment_sum, config)
                if not est.converged:
                    unconverged.append((c, d, hold))
                fold_errors.append(_one_step_mse(traj, spans[hold], est.Ahat + est.Lhat))
            errors[i][j] = float(np.mean(fold_errors))
    if unconverged:
        log.warning("cross-validation: %d fits stopped at max_iter=%d without converging, "
                    "(c, d, fold): %s", len(unconverged), max_iter, unconverged)
    _, (c, d) = min(((err, -c, -d), (c, d))
                    for c, row in zip(grid_c, errors) for d, err in zip(grid_d, row))
    lam_a, lam_l = rule(c, d, traj.n)
    return CvSelection(
        c=c, d=d, lambda_a=lam_a, lambda_l=lam_l,
        errors=errors, fold_spans=spans,
    )


def predict(
    ahat: np.ndarray,
    lhat: np.ndarray,
    history: Trajectory,
    horizon: int,
    actuals: np.ndarray | None = None,
) -> tuple[np.ndarray, float | None]:
    """Iterate the noise-free fitted dynamics from the last observation.

    ``xhat(k+1) = xhat(k) + eta (Ahat + Lhat) xhat(k)``; returns the
    ``horizon`` predicted vectors and, when ``actuals`` (horizon x p) is
    supplied, the mean squared error over entries and steps.
    """
    horizon = require_count(horizon, "horizon", 1)
    shape = (history.p, history.p)
    m_sum = as_matrix(ahat, "Ahat", shape) + as_matrix(lhat, "Lhat", shape)
    state = history.x[-1].copy()
    preds = np.empty((horizon, history.p))
    for k in range(horizon):
        state = state + history.eta * (m_sum @ state)
        preds[k] = state
    mse = None
    if actuals is not None:
        mse = float(np.mean((preds - as_matrix(actuals, "actuals", preds.shape)) ** 2))
    return preds, mse


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected dependency graph read off a fitted sparse block.

    ``sparsity`` is the fraction of above-threshold entries of the full
    matrix (diagonal included).
    """

    labels: list[str]
    edges: list[tuple[int, int]]
    sparsity: float
    zeta: float

    def to_dot(self) -> str:
        quoted = [label.replace("\\", "\\\\").replace('"', '\\"') for label in self.labels]
        nodes = "".join(f'  n{idx} [label="{label}"];\n' for idx, label in enumerate(quoted))
        edges = "".join(f"  n{i} -- n{j};\n" for i, j in self.edges)
        return "graph dependencies {\n" + nodes + edges + "}\n"

    def to_edge_csv(self) -> str:
        return "source,target\n" + "".join(
            f"{self.labels[i]},{self.labels[j]}\n" for i, j in self.edges)


def export_dependency_graph(
    ahat: np.ndarray,
    zeta: float | None = None,
    labels: list[str] | None = None,
) -> DependencyGraph:
    """Edges ``(i, j)``, ``i != j``, wherever ``|A_ij| > zeta`` or
    ``|A_ji| > zeta``, plus the nonzero-fraction sparsity statistic."""
    ahat = as_matrix(ahat, "Ahat", "square")
    p = ahat.shape[0]
    zeta = _support_threshold(ahat, zeta)
    if labels is None:
        labels = [f"x{i + 1}" for i in range(p)]
    if len(labels) != p:
        raise ConstructionError(f"need {p} labels, got {len(labels)}")
    for label in labels:
        if not isinstance(label, str):
            raise ConstructionError(f"label {label!r} must be a string")
        if any(ch in label for ch in ",\n\r"):
            raise ConstructionError(
                f"label {label!r} holds ',', a line feed or a carriage return, "
                "which the edge list cannot carry"
            )
    repeated = sorted(label for label, count in Counter(labels).items() if count > 1)
    if repeated:
        raise ConstructionError(f"duplicate label(s) {repeated}: each node needs its own label")
    above = np.abs(ahat) > zeta
    edges = [tuple(ij) for ij in np.argwhere(np.triu(above | above.T, 1)).tolist()]
    sparsity = float(np.count_nonzero(above)) / (p * p) if p else 0.0
    return DependencyGraph(labels=list(labels), edges=edges, sparsity=sparsity, zeta=zeta)
