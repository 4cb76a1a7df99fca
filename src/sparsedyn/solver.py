"""Accelerated proximal gradient solver for the l1 + nuclear-norm
regularized least-squares decomposition.

The estimator splits the drift into a sparse interaction matrix ``A`` and
a low-rank latent-effect matrix ``L`` by minimizing

    (1/(2 eta^2 n)) sum_i ||x(i+1) - x(i) - eta (A+L) x(i)||^2
        + lambda_A ||A||_1 + lambda_L ||L||_*

over both blocks.  The smooth part depends on the data only through the
sufficient statistics, so one pass over the trajectory suffices and each
iteration costs three p x p products (gradient, objective, Gram matrix)
plus one p x p factorization: ``prox_nuclear``'s eigendecomposition of the
Gram matrix, or an exact SVD where its threshold falls below 1e-4 of the
largest singular value.  A rejected momentum step costs one more.  The
nuclear-norm term of each iterate's objective is the sum of the singular
values the prox step already shrank, so scoring an iterate needs no
factorization of its own.  A pure-lasso mode of ``fit`` pins ``L = 0``
and reproduces the latent-blind baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import _json_doc, _json_matrix, json_text
from .errors import ConstructionError, DataError, DivergenceError, require_count, require_real
from .linalg import as_matrix, power_spectral_norm, prox_l1, prox_nuclear
from .simulate import SufficientStats

__all__ = [
    "SolverConfig",
    "Estimate",
    "objective",
    "smooth_gradient",
    "fit",
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
        require_real(self.lambda_a, "lambda_a", "positive")
        require_real(self.lambda_l, "lambda_l")
        if self.mode == MODE_SPARSE_LOWRANK and self.lambda_l <= 0:
            raise ConstructionError("lambda_l must be positive in sparse_plus_lowrank mode")
        object.__setattr__(self, "max_iter", require_count(self.max_iter, "max_iter", 1))
        require_real(self.tol, "tol", "positive")


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
    ``L`` block, which is the iteration's one factorization.  An accelerated
    step that would increase the objective is rejected, and the next pass takes
    a plain proximal gradient step, which cannot increase it at this step
    size, from the last accepted iterate with the momentum reset; a
    rejected step is not an iteration.  A plain step that makes no
    progress keeps the iterate and stops the solver; otherwise it stops
    when the relative objective change drops below ``config.tol``.
    """
    s1 = as_matrix(stats.S1, "S1", "square")
    as_matrix(stats.S2, "S2", s1.shape)
    p = s1.shape[0]
    lasso = config.mode == MODE_PURE_LASSO
    smax = power_spectral_norm(s1)
    step = 1.0 / (2.0 * smax) if smax > 0 else 1.0

    a = np.zeros((p, p))
    l_mat = np.zeros((p, p))
    ya, yl = a, l_mat
    t_momentum = 1.0
    obj = objective(a, l_mat, stats, sq_increment_sum, config.lambda_a, 0.0)
    trace = [obj]
    converged = False
    iterations = 0

    while iterations < config.max_iter:
        # The nuclear norm of the new L is the sum of the values its prox shrank.
        step_grad = step * smooth_gradient(ya + yl, stats)
        a_new = prox_l1(ya - step_grad, step * config.lambda_a)
        if lasso:
            l_new, nuclear = yl, 0.0
        else:
            l_new, shrunk = prox_nuclear(yl - step_grad, step * config.lambda_l)
            nuclear = config.lambda_l * float(shrunk.sum())
        obj_new = objective(a_new, l_new, stats, sq_increment_sum, config.lambda_a, 0.0) + nuclear
        if not np.isfinite(obj_new):
            raise DivergenceError(f"objective became non-finite at iteration {iterations + 1}")
        if obj_new > obj:
            if t_momentum > 1.0:
                # Momentum overshot: reject the step and take a plain one
                # from the last accepted iterate on the next pass.
                t_momentum = 1.0
                ya, yl = a, l_mat
                continue
            # Plain step cannot make progress: numerically converged.
            a_new, l_new, obj_new = a, l_mat, obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        beta = (t_momentum - 1.0) / t_next
        ya = a_new + beta * (a_new - a)
        yl = l_new + beta * (l_new - l_mat)
        t_momentum = t_next
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        a, l_mat, obj = a_new, l_new, obj_new
        trace.append(obj)
        iterations += 1
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
    return json_text(doc)


def estimate_from_json(text: str) -> tuple[Estimate, dict]:
    doc = _json_doc(text, "estimate")
    try:
        a = _json_matrix(doc["Ahat"], "'Ahat'", "square")
        l_mat = _json_matrix(doc["Lhat"], "'Lhat'", a.shape)
        if not isinstance(doc["converged"], bool):
            raise TypeError(f"'converged' must be a JSON bool, got {doc['converged']!r}")
        est = Estimate(
            Ahat=a,
            Lhat=l_mat,
            objective_trace=[float(require_real(v, "'objective_trace'"))
                             for v in doc["objective_trace"]],
            iterations=require_count(doc["iterations"], "'iterations'", 0),
            converged=doc["converged"],
            step_used=float(require_real(doc["step_used"], "'step_used'")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"estimate JSON missing or malformed field: {exc}") from exc
    return est, doc.get("config", {})
