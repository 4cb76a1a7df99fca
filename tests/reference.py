"""Independent reference implementations (oracles) used only by tests.

Each oracle deliberately takes a different computational route than the
library code it checks: Kronecker vectorization instead of Schur solvers,
truncated Taylor series instead of Padé, grid search / subgradient descent
instead of closed-form proximal maps, and pivoted Gaussian elimination
instead of numpy solves.
"""

from __future__ import annotations

import numpy as np


def kron_lyapunov_continuous(a: np.ndarray) -> np.ndarray:
    """Solve A Q + Q A^T + I = 0 by vectorizing to a linear system."""
    n = a.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, a) + np.kron(a, eye)
    q = np.linalg.solve(k, -eye.flatten("F"))
    return q.reshape((n, n), order="F")


def kron_lyapunov_discrete(a: np.ndarray, eta: float) -> np.ndarray:
    """Solve A Q + Q A^T + eta A Q A^T + I = 0 via Kronecker vectorization."""
    n = a.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, a) + np.kron(a, eye) + eta * np.kron(a, a)
    q = np.linalg.solve(k, -eye.flatten("F"))
    return q.reshape((n, n), order="F")


def taylor_expm(m: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated Taylor series for e^M (adequate for spectral norm < 1)."""
    n = m.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def prox_l1_grid(m: np.ndarray, tau: float, step: float = 1e-5) -> np.ndarray:
    """Per-entry 1-D grid minimization of 0.5 (x - v)^2 + tau |x|."""
    out = np.empty_like(m)
    for idx, v in np.ndenumerate(m):
        span = abs(v) + tau + 1.0
        grid = np.arange(-span, span + step, step)
        vals = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
        out[idx] = grid[np.argmin(vals)]
    return out


def prox_nuclear_subgradient(m: np.ndarray, tau: float, iters: int = 2000) -> np.ndarray:
    """Subgradient descent on 0.5 ||X - M||_F^2 + tau ||X||_* with
    diminishing steps (strongly convex, so O(1/t) suffices here)."""
    x = m.copy()
    for t in range(iters):
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        sub = u @ vh  # subgradient of the nuclear norm at X
        g = (x - m) + tau * sub
        x = x - (2.0 / (t + 2.0)) * g
    return x


def solver_subgradient_reference(
    s1: np.ndarray,
    s2: np.ndarray,
    eta: float,
    n: int,
    sq_increment_sum: float,
    lambda_a: float,
    lambda_l: float,
    iters: int = 100000,
    lasso: bool = False,
    step_scale: float = 1.0,
) -> float:
    """Best objective value reached by plain projected subgradient descent
    on the joint (A, L) problem.  Used as a value oracle at tiny p."""
    p = s1.shape[0]
    a = np.zeros((p, p))
    l_mat = np.zeros((p, p))
    const = sq_increment_sum / (2.0 * eta**2 * n)
    lip = max(np.linalg.norm(s1, 2), 1e-12)

    def value(a_, l_):
        m_ = a_ + l_
        smooth = 0.5 * np.sum((m_ @ s1) * m_) - np.sum(m_ * s2) + const
        pen = lambda_a * np.sum(np.abs(a_))
        if not lasso:
            pen += lambda_l * np.sum(np.linalg.svd(l_, compute_uv=False))
        return float(smooth + pen)

    best = value(a, l_mat)
    for t in range(iters):
        g = (a + l_mat) @ s1 - s2
        ga = g + lambda_a * np.sign(a)
        step = step_scale / (lip * np.sqrt(t + 1.0))
        a = a - step * ga
        if not lasso:
            u, s, vh = np.linalg.svd(l_mat, full_matrices=False)
            gl = g + lambda_l * (u @ vh)
            l_mat = l_mat - step * gl
        best = min(best, value(a, l_mat))
    return best


def central_difference_gradient(f, m: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central finite differences of a scalar function."""
    g = np.empty_like(m)
    for idx in np.ndindex(m.shape):
        mp = m.copy()
        mp[idx] += h
        mm = m.copy()
        mm[idx] -= h
        g[idx] = (f(mp) - f(mm)) / (2.0 * h)
    return g


def pivoted_gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear solve by explicit Gaussian elimination with partial pivoting
    (independent of numpy.linalg.solve)."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    if b.ndim == 1:
        b = b[:, None]
        squeeze = True
    else:
        squeeze = False
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-300:
            raise np.linalg.LinAlgError("singular matrix in pivoted solve")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if squeeze else x


def random_stable_matrix(rng, n: int, margin: float = 0.5) -> np.ndarray:
    """Random matrix shifted to a negative-definite symmetric part."""
    m = rng.normal_matrix(n, n)
    sym = 0.5 * (m + m.T)
    shift = np.max(np.linalg.eigvalsh(sym)) + margin
    return m - shift * np.eye(n)


def sequential_recursion(f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x(0) = z(0)`` and ``x(i) = f x(i-1) + z(i)``, one step at a time."""
    x = np.array(z, dtype=float)
    for i in range(1, x.shape[0]):
        x[i] = f @ x[i - 1] + z[i]
    return x


# Table sizes at and around the edges of the CSV writer's row blocks.
B = 1024
EDGE_ROWS = (0, 1, B - 1, B, B + 1, 2 * B + 1)
EDGE_COMMENTS = (None, ["config: {}", "b: 1"])
_SCALES = np.array([1e-300, 1e-3, 1.0, 7.0, 1e17, 2.0**52, 1e300])


def edge_values(rows: int, cols: int) -> np.ndarray:
    """Signed values over 600 decades, built with exactly rounded operations
    only, so their bits do not depend on the platform's libm."""
    k = np.arange(rows * cols)
    return ((k * 7919 % 10007 - 5003) / 10007 * _SCALES[k % 7]).reshape(rows, cols)
