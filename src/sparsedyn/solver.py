"""Splitting solver (ADMM) for the l1 + nuclear-norm regularized
least-squares decomposition.

The estimator splits the drift into a sparse interaction matrix ``A`` and
a low-rank latent-effect matrix ``L`` by minimizing

    (1/(2 eta^2 n)) sum_i ||x(i+1) - x(i) - eta (A+L) x(i)||^2
        + lambda_A ||A||_1 + lambda_L ||L||_*

over both blocks.  ``fit`` runs over-relaxed ADMM on the split
``M = A + L``.  The smooth part depends on the data only through the
sufficient statistics, so one pass over the trajectory suffices and each
iteration costs three p x p products (the ``M`` update, objective,
Gram matrix) plus one p x p factorization: ``prox_nuclear``'s
eigendecomposition of the Gram matrix, or an exact SVD where its threshold
falls below 1e-4 of the largest singular value.  The nuclear-norm term of
each iterate's objective is the sum of the singular values the prox step
already shrank, so scoring an iterate needs no factorization of its own.
A pure-lasso mode of ``fit`` pins ``L = 0`` and reproduces the
latent-blind baseline.
"""

from __future__ import annotations

import math
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
# fit's over-relaxation factor alpha: fixed, like its penalty parameter rho.
RELAXATION = 1.8


@dataclass(frozen=True)
class SolverConfig:
    """Weights, mode, and stopping rules for one fit.

    ``lambda_l`` is positive in ``sparse_plus_lowrank`` mode and 0 in
    ``pure_lasso`` mode, which pins ``L = 0``.  ``fit`` stops once both
    ADMM residuals are within ``sqrt(tol)`` of their scale, or after
    ``max_iter`` iterations.  Its penalty parameter
    ``rho = 0.2 sigma_max(S1)`` and its over-relaxation factor
    ``alpha = RELAXATION`` (1.8) are fixed, not settings.
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
        lowrank = self.mode == MODE_SPARSE_LOWRANK
        if not (self.lambda_l > 0 if lowrank else self.lambda_l == 0):
            raise ConstructionError(f"lambda_l must be {'positive' if lowrank else 0} in "
                                    f"{self.mode} mode, got {self.lambda_l:g}")
        object.__setattr__(self, "max_iter", require_count(self.max_iter, "max_iter", 1))
        require_real(self.tol, "tol", "positive")


@dataclass(frozen=True)
class Estimate:
    """Fitted pair plus solver diagnostics.

    ADMM's objective need not fall at every iteration, so ``fit`` holds
    the best iterate seen: it moves to a new one only if its objective is
    no higher.  ``Ahat``/``Lhat`` are the held pair and
    ``objective_trace[k]`` its objective after ``k`` iterations (entry 0 is
    the start at zero), so the trace never increases.
    """

    Ahat: np.ndarray
    Lhat: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


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


# Overflow shows as a non-finite M or objective, which fit checks.
@np.errstate(over="ignore", invalid="ignore")
def fit(
    stats: SufficientStats,
    sq_increment_sum: float,
    config: SolverConfig,
) -> Estimate:
    """Minimize the regularized objective by ADMM on the split ``M = A + L``.

    With ``rho = 0.2 sigma_max(S1)`` (1.0 when ``S1 = 0``), the scaled
    dual ``U`` and the fixed ``alpha = RELAXATION``, each iteration takes

        M <- (S2 + rho (A + L - U)) (S1 + rho I)^-1
        Mr <- alpha M + (1 - alpha) (A + L)
        A <- prox_l1(Mr + U - L, lambda_A / rho)
        L <- prox_nuclear(Mr + U - A, lambda_L / rho)
        U <- U + Mr - A - L

    (Boyd et al. 2011, section 3; its section 3.4.3 and Eckstein &
    Bertsekas 1992 for the over-relaxation; Lin, Chen & Ma 2010 for robust
    PCA), with ``A + L`` in ``Mr`` the pair the iteration started from.  The
    nuclear step is the iteration's one factorization.  It stops when the
    primal residual ``||M - A - L||_F`` is at most ``sqrt(tol)`` times
    ``max(||M||_F, ||A + L||_F, ||S2||_F / sigma_max)`` and the dual residual
    ``rho ||delta(A + L)||_F`` is at most ``sqrt(tol) rho ||U||_F``; both
    use ``M`` itself, not ``Mr``.  The ``S2`` floor lets an all-zero
    solution stop: there ``M`` shrinks geometrically to zero, and the dual
    residual is exactly zero.  It returns the best iterate seen (see
    ``Estimate``).  An ``M`` or an objective that overflows is a
    ``DivergenceError`` naming the iteration.
    """
    s1 = as_matrix(stats.S1, "S1", "square")
    s2 = as_matrix(stats.S2, "S2", s1.shape)
    p = s1.shape[0]
    lasso = config.mode == MODE_PURE_LASSO
    smax = power_spectral_norm(s1)
    rho = 0.2 * smax if smax > 0 else 1.0
    solve = np.linalg.inv(s1 + rho * np.eye(p))
    s2_norm = float(np.linalg.norm(s2))
    if not math.isfinite(s2_norm):  # its squares overflow: entries beyond about 1e154
        s2_norm = math.hypot(*s2.flat)
    primal_floor = s2_norm / (smax if smax > 0 else 1.0)
    root_tol = np.sqrt(config.tol)

    a = l_mat = u = np.zeros((p, p))
    a_held, l_held = a, l_mat
    obj = objective(a, l_mat, stats, sq_increment_sum, config.lambda_a, 0.0)
    trace = [obj]
    converged = False
    nuclear = 0.0  # pure lasso keeps L = 0

    for iterations in range(1, config.max_iter + 1):
        pair_old = a + l_mat
        m = (s2 + rho * (pair_old - u)) @ solve
        m_hat = RELAXATION * m + (1.0 - RELAXATION) * pair_old
        if not np.isfinite(m_hat).all():  # also non-finite wherever m is
            raise DivergenceError(f"M became non-finite at iteration {iterations}")
        m_u = m_hat + u  # both prox inputs and the new U start from it
        a = prox_l1(m_u - l_mat, config.lambda_a / rho)
        if not lasso:
            # The nuclear norm of the new L is the sum of the values its prox shrank.
            l_mat, shrunk = prox_nuclear(m_u - a, config.lambda_l / rho)
            nuclear = config.lambda_l * float(shrunk.sum())
        pair = a + l_mat
        residual = m - pair
        u = m_u - pair
        obj_new = objective(a, l_mat, stats, sq_increment_sum, config.lambda_a, 0.0) + nuclear
        if not np.isfinite(obj_new):
            raise DivergenceError(f"objective became non-finite at iteration {iterations}")
        if obj_new <= obj:
            a_held, l_held, obj = a, l_mat, obj_new
        trace.append(obj)
        # Both residuals as in the docstring; rho cancels from the dual one.
        primal_scale = max(np.linalg.norm(m), np.linalg.norm(pair), primal_floor)
        if (np.linalg.norm(residual) <= root_tol * primal_scale
                and np.linalg.norm(pair - pair_old) <= root_tol * np.linalg.norm(u)):
            converged = True
            break

    return Estimate(
        Ahat=a_held,
        Lhat=l_held,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
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
    }
    return json_text(doc)


def estimate_from_json(text: str) -> tuple[Estimate, dict]:
    doc = _json_doc(text, "estimate")
    try:
        a = _json_matrix(doc["Ahat"], "'Ahat'", "square")
        l_mat = _json_matrix(doc["Lhat"], "'Lhat'", a.shape)
        if not isinstance(doc["converged"], bool):
            raise TypeError(f"'converged' must be a JSON bool, got {doc['converged']!r}")
        trace = doc["objective_trace"]
        if not isinstance(trace, list):
            raise TypeError(f"'objective_trace' must be a JSON list, got {trace!r}")
        est = Estimate(
            Ahat=a,
            Lhat=l_mat,
            objective_trace=[float(require_real(v, "'objective_trace'")) for v in trace],
            iterations=require_count(doc["iterations"], "'iterations'", 0),
            converged=doc["converged"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"estimate JSON missing or malformed field: {exc}") from exc
    return est, doc.get("config", {})
