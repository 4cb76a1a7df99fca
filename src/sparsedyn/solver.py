"""Accelerated proximal gradient solver for the l1 + nuclear-norm
regularized least-squares decomposition.

The estimator splits the drift into a sparse interaction matrix ``A`` and
a low-rank latent-effect matrix ``L`` by minimizing

    (1/(2 eta^2 n)) sum_i ||x(i+1) - x(i) - eta (A+L) x(i)||^2
        + lambda_A ||A||_1 + lambda_L ||L||_*

over both blocks.  The smooth part depends on the data only through the
sufficient statistics, so one pass over the trajectory suffices and each
iteration costs two p x p products plus one p x p SVD (a momentum restart
adds a second).  The nuclear-norm term of each iterate's objective is the
sum of the singular values the prox step already shrank, so scoring an
iterate needs no SVD of its own.  A pure-lasso mode pins ``L = 0`` and
reproduces the latent-blind baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstructionError, DataError, DivergenceError
from .linalg import power_spectral_norm, prox_l1, prox_nuclear
from .simulate import SufficientStats

__all__ = [
    "SolverConfig",
    "Estimate",
    "objective",
    "smooth_gradient",
    "fit",
    "fit_lasso",
    "estimate_to_json",
    "estimate_from_json",
]

MODE_SPARSE_LOWRANK = "sparse_plus_lowrank"
MODE_PURE_LASSO = "pure_lasso"


@dataclass(frozen=True)
class SolverConfig:
    """Weights, mode, and stopping rules for one fit.

    The step size is always ``1 / (2 sigma_max(S1))``, the inverse of the
    joint-block Lipschitz constant of the smooth gradient (the Hessian
    acts as ``[[S1, S1], [S1, S1]]``, whose largest eigenvalue is
    ``2 sigma_max(S1)``).
    """

    lambda_a: float
    lambda_l: float = 0.0
    mode: str = MODE_SPARSE_LOWRANK
    max_iter: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        if self.mode not in (MODE_SPARSE_LOWRANK, MODE_PURE_LASSO):
            raise ConstructionError(f"unknown solver mode {self.mode!r}")
        if self.lambda_a <= 0:
            raise ConstructionError("lambda_a must be positive")
        if self.mode == MODE_SPARSE_LOWRANK and self.lambda_l <= 0:
            raise ConstructionError("lambda_l must be positive in sparse_plus_lowrank mode")
        if self.max_iter < 1:
            raise ConstructionError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ConstructionError("tol must be positive")


@dataclass(frozen=True)
class Estimate:
    """Fitted pair plus solver diagnostics.

    ``objective_trace[k]`` is the objective after ``k`` iterations (entry 0
    is the starting value); function-value restarts keep it non-increasing.
    """

    Ahat: np.ndarray
    Lhat: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    step_used: float = 0.0


def objective(
    a: np.ndarray,
    l_mat: np.ndarray,
    stats: SufficientStats,
    sq_increment_sum: float,
    lambda_a: float,
    lambda_l: float,
) -> float:
    """Full objective value from reduced statistics.

    ``0.5 tr(M S1 M^T) - tr(M^T S2) + sq_increment_sum / (2 eta^2 n)
    + lambda_a ||A||_1 + lambda_l ||L||_*`` with ``M = A + L``; the
    carried constant makes the value equal to the per-sample definition.
    """
    m = a + l_mat
    smooth = 0.5 * float(np.sum((m @ stats.S1) * m)) - float(np.sum(m * stats.S2))
    const = sq_increment_sum / (2.0 * stats.eta**2 * stats.n)
    penalty = lambda_a * float(np.sum(np.abs(a)))
    if lambda_l:
        penalty += lambda_l * float(np.linalg.norm(l_mat, "nuc"))
    return smooth + const + penalty


def smooth_gradient(m_sum: np.ndarray, stats: SufficientStats) -> np.ndarray:
    """Gradient of the smooth loss at ``M = A + L``: ``M S1 - S2``.

    The partial gradients with respect to ``A`` and ``L`` individually are
    both equal to this matrix.
    """
    return m_sum @ stats.S1 - stats.S2


def fit(
    stats: SufficientStats,
    sq_increment_sum: float,
    config: SolverConfig,
) -> Estimate:
    """Minimize the regularized objective by FISTA on the joint pair.

    Each iteration extrapolates with the momentum sequence, takes one
    gradient step shared by both blocks, then applies the entrywise soft
    threshold to the ``A`` block and singular value thresholding to the
    ``L`` block, which is the iteration's one SVD.  When an accelerated
    step would increase the objective, the momentum is reset and the
    iteration falls back to a plain proximal gradient step from the
    previous iterate, which cannot increase the objective at this step
    size; if even that step makes no progress the solver stops.  Stops when
    the relative objective change drops below ``config.tol``.
    """
    p = stats.S1.shape[0]
    if stats.S2.shape != (p, p):
        raise ConstructionError("S1/S2 shape mismatch")
    lasso = config.mode == MODE_PURE_LASSO
    smax = power_spectral_norm(stats.S1)
    step = 1.0 / (2.0 * smax) if smax > 0 else 1.0

    def prox_step(ya: np.ndarray, yl: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """One proximal gradient step from ``(ya, yl)`` and its objective;
        the nuclear norm of the new ``L`` is the sum of its shrunk values."""
        grad = smooth_gradient(ya + yl, stats)
        a_new = prox_l1(ya - step * grad, step * config.lambda_a)
        if lasso:
            l_new, nuclear = yl, 0.0
        else:
            l_new, shrunk = prox_nuclear(yl - step * grad, step * config.lambda_l)
            nuclear = config.lambda_l * float(shrunk.sum())
        smooth_l1 = objective(a_new, l_new, stats, sq_increment_sum, config.lambda_a, 0.0)
        return a_new, l_new, smooth_l1 + nuclear

    a = np.zeros((p, p))
    l_mat = np.zeros((p, p))
    ya, yl = a, l_mat
    t_momentum = 1.0
    obj = objective(a, l_mat, stats, sq_increment_sum, config.lambda_a, 0.0)
    trace = [obj]
    converged = False
    iterations = 0

    for k in range(1, config.max_iter + 1):
        a_new, l_new, obj_new = prox_step(ya, yl)
        if not np.isfinite(obj_new):
            raise DivergenceError(f"objective became non-finite at iteration {k}")
        if obj_new > obj:
            # Momentum overshot: restart from the last accepted iterate.
            t_momentum = 1.0
            a_new, l_new, obj_new = prox_step(a, l_mat)
            if not np.isfinite(obj_new):
                raise DivergenceError(f"objective became non-finite at iteration {k}")
            if obj_new > obj:
                # Plain step cannot make progress: numerically converged.
                a_new, l_new, obj_new = a, l_mat, obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        beta = (t_momentum - 1.0) / t_next
        ya = a_new + beta * (a_new - a)
        yl = l_new if lasso else l_new + beta * (l_new - l_mat)
        t_momentum = t_next
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        a, l_mat, obj = a_new, l_new, obj_new
        trace.append(obj)
        iterations = k
        if rel_change < config.tol:
            converged = True
            break

    return Estimate(
        Ahat=a,
        Lhat=l_mat,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        step_used=float(step),
    )


def fit_lasso(
    stats: SufficientStats,
    sq_increment_sum: float,
    config: SolverConfig,
) -> Estimate:
    """Latent-blind baseline: identical to :func:`fit` with ``L`` pinned
    to zero (no nuclear-norm proximal step, no ``L`` update)."""
    if config.mode != MODE_PURE_LASSO:
        config = replace(config, lambda_l=0.0, mode=MODE_PURE_LASSO)
    return fit(stats, sq_increment_sum, config)


def estimate_to_json(est: Estimate, config: dict | None = None) -> str:
    """Serialize an estimate (matrices as nested arrays) with provenance."""
    doc = {
        "config": config or {},
        "Ahat": est.Ahat.tolist(),
        "Lhat": est.Lhat.tolist(),
        "objective_trace": est.objective_trace,
        "iterations": est.iterations,
        "converged": est.converged,
        "step_used": est.step_used,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def estimate_from_json(text: str) -> tuple[Estimate, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid estimate JSON: {exc}") from exc
    try:
        est = Estimate(
            Ahat=np.asarray(doc["Ahat"], dtype=float),
            Lhat=np.asarray(doc["Lhat"], dtype=float),
            objective_trace=[float(v) for v in doc["objective_trace"]],
            iterations=int(doc["iterations"]),
            converged=bool(doc["converged"]),
            step_used=float(doc["step_used"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"estimate JSON missing or malformed field: {exc}") from exc
    return est, doc.get("config", {})
