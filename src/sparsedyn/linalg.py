"""Dense real-matrix primitives: matrix exponential, Lyapunov solvers, the
proximal operators of the l1 and nuclear norms, and the solver step size.

Matrices are plain float64 ndarrays validated at the public entry points.
All functions are pure; outputs are freshly allocated and safe to share.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ConstructionError, NumericalError, StabilityError

__all__ = [
    "as_matrix",
    "matrix_exponential",
    "solve_lyapunov_continuous",
    "solve_lyapunov_discrete",
    "prox_l1",
    "prox_nuclear",
    "power_spectral_norm",
]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return ``values`` as a finite 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ConstructionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ConstructionError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ConstructionError(f"{name} must be square, got shape {m.shape}")


def matrix_exponential(m) -> np.ndarray:
    """Matrix exponential ``e^M`` (scaling-and-squaring with a Pade core)."""
    m = as_matrix(m, "matrix_exponential input")
    _require_square(m, "matrix_exponential input")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(m)
    if not np.isfinite(out).all():
        raise NumericalError(
            "matrix exponential overflowed the representable range"
        )
    return out


def _spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part over the eigenvalues of ``a``."""
    return float(np.max(np.linalg.eigvals(a).real)) if a.size else -np.inf


def _finalize_lyapunov(q: np.ndarray, residual: float, name: str) -> np.ndarray:
    q = 0.5 * (q + q.T)
    scale = max(float(np.linalg.norm(q)), np.finfo(float).tiny)
    if not np.isfinite(q).all() or residual > 1e-10 * scale:
        raise NumericalError(
            f"{name} solve failed: residual {residual:.3e} "
            f"exceeds 1e-10 * ||Q||_F = {1e-10 * scale:.3e}"
        )
    if np.min(np.linalg.eigvalsh(q)) <= 0:
        raise NumericalError(f"{name} solution is not positive definite")
    return q


def solve_lyapunov_continuous(a) -> np.ndarray:
    """Solve ``A Q + Q A^T + I = 0`` for the stationary covariance ``Q``.

    Requires ``A`` Hurwitz (all eigenvalues in the open left half-plane);
    that is exactly the condition for a positive definite solution.  Uses
    the Schur-based Bartels-Stewart solver; the returned matrix is
    symmetrized and checked against the residual bound
    ``||AQ + QA^T + I||_F <= 1e-10 ||Q||_F``.
    """
    a = as_matrix(a, "A")
    _require_square(a, "A")
    if _spectral_abscissa(a) >= 0:
        raise StabilityError(
            "continuous Lyapunov equation needs a Hurwitz matrix "
            f"(spectral abscissa {_spectral_abscissa(a):.6g} >= 0)"
        )
    n = a.shape[0]
    try:
        q = scipy.linalg.solve_continuous_lyapunov(a, -np.eye(n))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Lyapunov solve failed: {exc}") from exc
    residual = float(np.linalg.norm(a @ q + q @ a.T + np.eye(n)))
    return _finalize_lyapunov(q, residual, "continuous Lyapunov")


def solve_lyapunov_discrete(a, eta: float) -> np.ndarray:
    """Solve ``A Q + Q A^T + eta A Q A^T + I = 0`` for ``Q``.

    Equivalent to the standard discrete-time equation
    ``M Q M^T - Q = -eta I`` with ``M = I + eta A``, which has a positive
    definite solution iff the spectral radius of ``M`` is below one.
    """
    a = as_matrix(a, "A")
    _require_square(a, "A")
    if eta <= 0:
        raise ConstructionError("eta must be positive")
    n = a.shape[0]
    m = np.eye(n) + eta * a
    rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if n else 0.0
    if rho >= 1:
        raise StabilityError(
            f"discrete Lyapunov equation needs spectral radius of I + eta*A "
            f"below one (got {rho:.6g})"
        )
    try:
        q = scipy.linalg.solve_discrete_lyapunov(m, eta * np.eye(n), method="bilinear")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Lyapunov solve failed: {exc}") from exc
    residual = float(np.linalg.norm(a @ q + q @ a.T + eta * (a @ q @ a.T) + np.eye(n)))
    return _finalize_lyapunov(q, residual, "discrete Lyapunov")


def prox_l1(m, tau: float) -> np.ndarray:
    """Entrywise soft threshold: ``sign(m) * max(|m| - tau, 0)``.

    This is the proximal map of ``tau * ||.||_1``; entries with
    ``|m| <= tau`` map to exactly zero.
    """
    m = as_matrix(m, "prox_l1 input")
    if tau < 0:
        raise ConstructionError("tau must be non-negative")
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def prox_nuclear(m, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value soft threshold; returns ``(matrix, shrunk)``.

    The proximal map of ``tau * ||.||_*``: singular values are shrunk by
    ``tau`` and clipped at zero.  ``shrunk`` holds them in non-increasing
    order, so its sum is the nuclear norm of the returned matrix and
    ``np.count_nonzero(shrunk)`` its rank (exact zeros, no tolerance).
    """
    m = as_matrix(m, "prox_nuclear input")
    if tau < 0:
        raise ConstructionError("tau must be non-negative")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vh, shrunk


def power_spectral_norm(s) -> float:
    """Largest eigenvalue of a symmetric matrix (the spectral norm when it
    is PSD), computed exactly by ``eigvalsh``; sets the solver step size."""
    s = as_matrix(s, "power_spectral_norm input")
    _require_square(s, "power_spectral_norm input")
    return float(np.linalg.eigvalsh(s)[-1]) if s.size else 0.0
