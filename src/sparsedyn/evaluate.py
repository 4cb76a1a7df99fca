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

import io
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .csvio import write_table
from .errors import ConfigError, ConstructionError, DivergenceError
from .generate import GenSpec, gen_random_system
from .model import control_parameter, lambda_pair_from_constants, steady_state
from .rng import derive_seed
from .simulate import (
    Trajectory,
    merge_stats,
    simulate_continuous,
    sufficient_stats,
)
from .solver import MODE_PURE_LASSO, SolverConfig, fit

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


def default_support_threshold(ahat: np.ndarray) -> float:
    """Round-off guard for supports of estimated matrices:
    ``1e-6 * max(1, ||Ahat||_inf)``.  Proximal output has exact zeros, so
    this only absorbs floating-point dust."""
    scale = float(np.max(np.abs(ahat))) if ahat.size else 0.0
    return 1e-6 * max(1.0, scale)


def _support_threshold(ahat: np.ndarray, zeta: float | None) -> float:
    """``zeta``, checked, or the default round-off guard when it is ``None``."""
    if zeta is None:
        return default_support_threshold(ahat)
    if not 0 <= zeta < math.inf:
        raise ConstructionError("zeta must be finite and non-negative")
    return zeta


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
    ahat = np.asarray(ahat, dtype=float)
    astar = np.asarray(astar, dtype=float)
    if ahat.shape != astar.shape:
        raise ConstructionError("Ahat and Astar shapes differ")
    lhat = np.asarray(lhat, dtype=float)
    lstar = np.asarray(lstar, dtype=float)
    if lhat.shape != lstar.shape:
        raise ConstructionError("Lhat and Lstar shapes differ")
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
        return write_table(header, rows, comments)


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
    simulate (binned, ``bins = 10``), fit (``max_iter = 2000``, ``tol = 1e-7``),
    and score exact signed-support recovery of the sparse block above the
    round-off guard ``default_support_threshold``.  These protocol
    constants are fixed.  ``lambda_rule`` is the ``(c, d)`` pair of the practical regularizer
    rule (``lambda_pair_from_constants``).  Trials whose fit diverges count
    as failures.
    """
    if trials < 1:
        raise ConstructionError("trials must be at least 1")
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
        eta, n = float(overrides["eta"]), int(overrides["n"])
        spec = GenSpec(
            p=int(overrides.get("p", base.p)),
            r=int(overrides.get("r", base.r)),
            s=int(overrides.get("s", base.s)),
            seed=base.seed,
            diag_margin=base.diag_margin,
            eta=0.0,
        )
        theta = control_parameter(eta, n, spec.s, spec.r, spec.p)
        lam_a, lam_l = lambda_pair_from_constants(c, d, spec.p, spec.r, spec.s, eta, n)
        config = SolverConfig(
            lambda_a=lam_a, lambda_l=lam_l, max_iter=2000, tol=1e-7
        )
        points.append((spec, eta, n, theta, config))
    rows = []
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
                continue
            report = recovery_report(est.Ahat, system.A, est.Lhat, truth.L)
            successes += int(report.signed_match)
        rows.append(
            PhasePoint(
                p=spec.p, r=spec.r, s=spec.s, eta=eta, n=n, theta=theta,
                trials=trials, successes=successes,
            )
        )
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


def _chunk_edges(n_transitions: int, chunk_count: int) -> list[int]:
    return [round(i * n_transitions / chunk_count) for i in range(chunk_count + 1)]


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
    chunk_count: int = 5,
    *,
    mode: str = "sparse_plus_lowrank",
    s_ref: int = 1,
    r_ref: int = 1,
    max_iter: int = 2000,
    tol: float = 1e-7,
) -> CvSelection:
    """Select regularizer constants by leave-one-chunk-out validation.

    The transitions are split into ``chunk_count`` consecutive contiguous
    blocks (temporal dependence makes shuffled folds invalid).  For each
    candidate ``(c, d)``: hold out one chunk at a time, fit on the merged
    statistics of the remaining chunks, and score one-step-ahead mean
    squared prediction error on the held-out chunk.  Ties break toward
    larger ``c`` then larger ``d`` (sparser models).  ``s_ref``/``r_ref``
    only shift the constant inside the log factor that ``c`` absorbs.
    """
    if not grid_c or (mode != MODE_PURE_LASSO and not grid_d):
        raise ConfigError("cross-validation grid must be non-empty")
    if chunk_count < 2:
        raise ConfigError("chunk_count must be at least 2")
    if traj.n < chunk_count:
        raise ConfigError("not enough transitions for the requested chunk count")
    if mode == MODE_PURE_LASSO:
        grid_d = [0.0]
    edges = _chunk_edges(traj.n, chunk_count)
    spans = [(edges[i], edges[i + 1]) for i in range(chunk_count)]

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
    best = (math.inf, -math.inf, -math.inf)
    best_cd = (grid_c[0], grid_d[0])
    for i, c in enumerate(grid_c):
        for j, d in enumerate(grid_d):
            fold_errors = []
            for hold, (train, config) in enumerate(zip(fold_train, configs[i][j])):
                est = fit(train, train.sq_increment_sum, config)
                fold_errors.append(_one_step_mse(traj, spans[hold], est.Ahat + est.Lhat))
            mean_err = float(np.mean(fold_errors))
            errors[i][j] = mean_err
            key = (mean_err, -c, -d)
            if key < best:
                best = key
                best_cd = (c, d)
    c, d = best_cd
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
    if horizon < 1:
        raise ConstructionError("horizon must be at least 1")
    ahat, lhat = np.asarray(ahat, dtype=float), np.asarray(lhat, dtype=float)
    if not ahat.shape == lhat.shape == (history.p, history.p):
        raise ConstructionError(f"Ahat and Lhat must have shape {(history.p, history.p)} to "
                                f"match the history, got {ahat.shape} and {lhat.shape}")
    m_sum = ahat + lhat
    state = history.x[-1].copy()
    preds = np.empty((horizon, history.p))
    for k in range(horizon):
        state = state + history.eta * (m_sum @ state)
        preds[k] = state
    mse = None
    if actuals is not None:
        actuals = np.asarray(actuals, dtype=float)
        if actuals.shape != preds.shape:
            raise ConstructionError(
                f"actuals must have shape {preds.shape}, got {actuals.shape}"
            )
        mse = float(np.mean((preds - actuals) ** 2))
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
        buf = io.StringIO()
        buf.write("graph dependencies {\n")
        for idx, label in enumerate(self.labels):
            quoted = label.replace("\\", "\\\\").replace('"', '\\"')
            buf.write(f'  n{idx} [label="{quoted}"];\n')
        for i, j in self.edges:
            buf.write(f"  n{i} -- n{j};\n")
        buf.write("}\n")
        return buf.getvalue()

    def to_edge_csv(self) -> str:
        buf = io.StringIO()
        buf.write("source,target\n")
        for i, j in self.edges:
            buf.write(f"{self.labels[i]},{self.labels[j]}\n")
        return buf.getvalue()


def export_dependency_graph(
    ahat: np.ndarray,
    zeta: float | None = None,
    labels: list[str] | None = None,
) -> DependencyGraph:
    """Edges ``(i, j)``, ``i != j``, wherever ``|A_ij| > zeta`` or
    ``|A_ji| > zeta``, plus the nonzero-fraction sparsity statistic."""
    ahat = np.asarray(ahat, dtype=float)
    p = ahat.shape[0]
    if ahat.shape != (p, p):
        raise ConstructionError("Ahat must be square")
    zeta = _support_threshold(ahat, zeta)
    if labels is None:
        labels = [f"x{i + 1}" for i in range(p)]
    if len(labels) != p:
        raise ConstructionError(f"need {p} labels, got {len(labels)}")
    for label in labels:
        if any(ch in label for ch in ",\n\r"):
            raise ConstructionError(
                f"label {label!r} holds ',', a line feed or a carriage return, "
                "which the edge list cannot carry"
            )
    above = np.abs(ahat) > zeta
    edges = [
        (i, j)
        for i in range(p)
        for j in range(i + 1, p)
        if above[i, j] or above[j, i]
    ]
    sparsity = float(np.count_nonzero(above)) / (p * p) if p else 0.0
    return DependencyGraph(labels=list(labels), edges=edges, sparsity=sparsity, zeta=zeta)
