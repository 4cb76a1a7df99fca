"""Ground-truth system model, stationary covariances, and the constants
used by the recovery theory.

A system couples ``p`` observed variables ``x`` and ``r`` latent variables
``u`` through the joint drift matrix ``[[A, B], [C, D]]``.  Marginalizing
the latent series biases the naive least-squares estimate of ``A`` by the
low-rank matrix ``L = B R Q^{-1}`` built from the stationary covariance
blocks; everything in this module exists to compute that bias and the
constants (stability margin, incoherence, regularizer weights, error
multipliers) that govern when the sparse part of ``A`` is recoverable.
The data enter the theory only through the observation horizon
``T = eta n`` of the sampled path, which is also the scale of the control
parameter ``Theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, ConstructionError, NumericalError, require_count, require_real
from .linalg import as_matrix, require_stable, solve_lyapunov_continuous, solve_lyapunov_discrete

__all__ = [
    "SystemParams",
    "SteadyState",
    "AssumptionReport",
    "stability_margin",
    "steady_state",
    "population_mle",
    "incoherence_mu",
    "identifiability_alpha",
    "lasso_incoherence_theta",
    "row_supports",
    "support_size",
    "max_row_l1",
    "latent_effect_constant",
    "theoretical_lambdas",
    "lambda_pair_from_constants",
    "control_parameter",
    "theorem_constants",
    "assumption_report",
]


@dataclass(frozen=True)
class SystemParams:
    """Block parameters of the joint linear system.

    ``eta`` is the sampling step of the discrete-time model; ``eta = 0``
    means the system is interpreted in continuous time.  Construction
    raises ``StabilityError`` unless the joint drift is stable at ``eta``
    (``linalg.require_stable``), so every system has a stationary covariance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        a = as_matrix(self.A, "A", "square")
        p = a.shape[0]
        b = as_matrix(self.B, "B", (p, None))
        r = b.shape[1]
        c = as_matrix(self.C, "C", (r, p))
        d = as_matrix(self.D, "D", (r, r))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)
        require_real(self.eta, "eta", "non-negative")
        require_stable(self.joint(), self.eta)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]

    def joint(self) -> np.ndarray:
        """The (p+r) x (p+r) drift matrix ``[[A, B], [C, D]]``."""
        top = np.hstack([self.A, self.B])
        bottom = np.hstack([self.C, self.D])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class SteadyState:
    """Stationary covariance blocks and the latent-effect matrix.

    ``Q`` (p x p), ``R`` (r x p) and ``P`` (r x r) are the blocks of the
    joint stationary covariance; ``L = B R Q^{-1}`` is the rank-<=r bias
    that corrupts the naive estimate of ``A``.  ``Cmin``/``Dmax`` are the
    extreme eigenvalues of the joint covariance.
    """

    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    L: np.ndarray
    Cmin: float
    Dmax: float


def stability_margin(params: SystemParams) -> float:
    """Stability margin of assumption A1 (positive iff A1 holds).

    Continuous systems: ``-lambda_max((M + M^T) / 2)`` for the joint drift
    ``M``.  Discrete systems: ``(1 - sigma_max(I + eta M)^2) / eta``.
    """
    m = params.joint()
    if params.eta == 0:
        sym = 0.5 * (m + m.T)
        return -float(np.max(np.linalg.eigvalsh(sym)))
    step = np.eye(m.shape[0]) + params.eta * m
    smax = float(np.linalg.norm(step, 2))
    return (1.0 - smax**2) / params.eta


def steady_state(params: SystemParams) -> SteadyState:
    """Stationary covariance blocks of the joint system.

    Solves the joint Lyapunov equation (continuous for ``eta = 0``,
    discrete otherwise), splits the solution into blocks, and forms
    ``L = B R Q^{-1}``.  The stationary covariance exists for every
    ``SystemParams``, which is stable by construction; the A1 margin
    (``stability_margin``) is not required.
    """
    joint = params.joint()
    if params.eta == 0:
        qj = solve_lyapunov_continuous(joint)
    else:
        qj = solve_lyapunov_discrete(joint, params.eta)
    p = params.p
    q = qj[:p, :p]
    r_blk = qj[p:, :p]
    p_blk = qj[p:, p:]
    if float(np.min(np.linalg.eigvalsh(q))) < 1e-12:
        raise NumericalError("observed-block stationary covariance is numerically singular")
    l_mat = params.B @ np.linalg.solve(q, r_blk.T).T
    eigs = np.linalg.eigvalsh(qj)
    return SteadyState(Q=q, R=r_blk, P=p_blk, L=l_mat,
                       Cmin=float(eigs[0]), Dmax=float(eigs[-1]))


def population_mle(params: SystemParams) -> np.ndarray:
    """Infinite-data limit of least squares that ignores latent variables.

    Equals ``A + L``: the true interaction matrix plus the latent-effect
    bias, which is what row-wise regression of increments on states
    converges to.
    """
    return params.A + steady_state(params).L


# Relative singular-value cut-off that sets the effective rank of ``L``.
_RANK_TOL = 1e-8

# The ``delta`` of the practical regularizer rule and the report's default.
DEFAULT_DELTA = 0.1


def incoherence_mu(l_mat) -> float:
    """Incoherence of the singular subspaces of a low-rank matrix.

    With thin SVD ``L = U diag(s) V^T`` truncated at relative tolerance
    ``1e-8`` and effective rank ``k``, returns the smallest ``mu``
    satisfying all three subspace-spread conditions:

    ``max_i ||U^T e_i||^2 <= mu k / p``,
    ``max_j ||V^T e_j||^2 <= mu k / p``,
    ``||U V^T||_inf^2 <= mu k / p^2``.

    A zero matrix has rank 0 and returns ``mu = 0``.
    """
    l_mat = as_matrix(l_mat, "L", "square")
    p = l_mat.shape[0]
    u, svals, vh = np.linalg.svd(l_mat)
    if svals.size == 0 or svals[0] <= 0:
        return 0.0
    k = int(np.count_nonzero(svals > _RANK_TOL * svals[0]))
    u = u[:, :k]
    v = vh[:k].T
    row_leverage = float(np.max(np.sum(u * u, axis=1)))
    col_leverage = float(np.max(np.sum(v * v, axis=1)))
    cross_inf = float(np.max(np.abs(u @ v.T)))
    return max(
        (p / k) * row_leverage,
        (p / k) * col_leverage,
        (p * p / k) * cross_inf**2,
    )


def identifiability_alpha(mu: float, r: int, p: int) -> float:
    """Identifiability number ``3 sqrt(mu r / p)``; below one is required."""
    require_real(mu, "mu", "non-negative")
    r, p = require_count(r, "r", 0), require_count(p, "p", 1)
    return 3.0 * math.sqrt(mu * r / p)


def row_supports(a: np.ndarray) -> list[tuple[int, ...]]:
    """Exact nonzero column indices of each row (generated systems are
    sparse by construction, so zero means exactly zero)."""
    return [tuple(np.nonzero(row)[0]) for row in as_matrix(a, "A")]


def support_size(a: np.ndarray) -> int:
    """Max nonzero count over all rows and columns (exact zeros)."""
    a = as_matrix(a, "A")
    nz = a != 0
    if not nz.any():
        return 0
    return int(max(nz.sum(axis=0).max(), nz.sum(axis=1).max()))


def lasso_incoherence_theta(q, supports) -> float:
    """Design incoherence of the observed stationary covariance.

    For each support set ``S`` (deduplicated), measures how strongly the
    off-support columns load on the support block through
    ``Q[S^c, S] Q[S, S]^{-1}`` in max-row-l1 norm; returns one minus the
    worst case.  Negative values signal the incoherence assumption fails
    (returned, not raised).
    """
    q = as_matrix(q, "Q", "square")
    p = q.shape[0]
    unique = {tuple(sorted(set(int(i) for i in s))) for s in supports}
    worst = 0.0
    for s in unique:
        if not s:
            raise ConstructionError("support sets must be non-empty")
        if any(i < 0 or i >= p for i in s):
            raise ConstructionError(f"support {s} out of range for p = {p}")
        comp = tuple(i for i in range(p) if i not in s)
        if not comp:
            continue
        s_idx = np.array(s)
        c_idx = np.array(comp)
        block = q[np.ix_(s_idx, s_idx)]
        cross = q[np.ix_(s_idx, c_idx)]
        try:
            w = np.linalg.solve(block, cross).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular support block {s}: {exc}") from exc
        worst = max(worst, float(np.max(np.sum(np.abs(w), axis=1))))
    return 1.0 - worst


def max_row_l1(b: np.ndarray) -> float:
    """Largest row l1 norm (the (inf,1) operator norm)."""
    b = as_matrix(b, "B")
    if b.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(b), axis=1)))


def latent_effect_constant(params: SystemParams, margin: float) -> float:
    """Constant ``m`` capturing initial-condition and latent-input effects
    for a start at the origin:
    ``max(80 / sqrt(margin) * ||B||_{inf,1}, sqrt(eta) + 1)``.
    """
    if margin <= 0:
        raise AssumptionError("A1: stability margin must be positive to form m")
    latent_term = 80.0 / math.sqrt(margin) * max_row_l1(params.B)
    return max(latent_term, math.sqrt(params.eta) + 1.0)


def _log_model_size(s: int, r: int, p: int, delta: float | None = None) -> float:
    """``log((s+2r)p + r^2)`` of ``Theta``, or ``log(4((s+2r)p + r^2)/delta)`` of the regularizers."""
    s, r, p = require_count(s, "s", 0), require_count(r, "r", 0), require_count(p, "p", 1)
    size = (s + 2 * r) * p + r * r
    least = 2 if delta is None else 1
    if size < least:
        raise ConstructionError(f"the model size (s+2r)p + r^2 must be at least {least}, "
                                f"got {size} at s = {s}, r = {r}, p = {p}")
    return math.log(size if delta is None else 4.0 * size / delta)


def _horizon(eta: float, n: int) -> float:
    """The observation horizon ``T = eta n`` of ``n`` samples at step ``eta``."""
    return require_real(eta, "eta", "positive") * require_count(n, "n", 1)


def theoretical_lambdas(
    params: SystemParams,
    *,
    D: float,
    theta: float,
    alpha: float,
    s: int,
    horizon: float,
    delta: float,
) -> tuple[float, float]:
    """Theory-prescribed regularizer weights ``(lambda_A, lambda_L)``.

    ``lambda_A = 16 m (4 - theta) / (theta sqrt(D)) * sqrt(log(4((s+2r)p + r^2)/delta) / T)``
    for the observation horizon ``T = eta n`` of the data, and
    ``lambda_L = lambda_A * sqrt(p) * ratio`` where

    ``ratio = (1/(1-alpha)) * ((3 alpha sqrt(s)/4 + (8-theta) s / (theta (4-theta)))
    * (theta sqrt(p) / (9 s sqrt(s)) + 1) + 1/2)``.
    """
    if D <= 0:
        raise AssumptionError("A1: stability margin must be positive")
    if theta <= 0:
        raise AssumptionError("A3: incoherence theta must be positive")
    if not alpha < 1:
        raise AssumptionError("A2: identifiability alpha must be below one")
    require_real(horizon, "horizon", "positive")
    require_real(delta, "delta", "in (0, 1)")
    s = require_count(s, "s", 1)
    m = latent_effect_constant(params, D)
    p, r = params.p, params.r
    lam_a = (
        16.0 * m * (4.0 - theta) / (theta * math.sqrt(D))
        * math.sqrt(_log_model_size(s, r, p, delta) / horizon)
    )
    sqrt_s = math.sqrt(s)
    ratio = (1.0 / (1.0 - alpha)) * (
        (3.0 * alpha * sqrt_s / 4.0 + (8.0 - theta) * s / (theta * (4.0 - theta)))
        * (theta * math.sqrt(p) / (9.0 * s * sqrt_s) + 1.0)
        + 0.5
    )
    lam_l = lam_a * math.sqrt(p) * ratio
    return lam_a, lam_l


def lambda_pair_from_constants(
    c: float,
    d: float,
    p: int,
    r: int,
    s: int,
    eta: float,
    n: int,
) -> tuple[float, float]:
    """Practical regularizer rule: ``lambda_A = c sqrt(log(4((s+2r)p + r^2)/delta) / (n eta))``
    with ``delta = 0.1``, and ``lambda_L = d sqrt(p) lambda_A``; ``c``
    absorbs any other ``delta``.  ``c`` must be positive and ``d``
    non-negative (pure-lasso selection passes ``d = 0``); it checks
    ``eta``, ``n``, ``s``, ``r``, ``p`` and the model size as
    ``control_parameter`` does."""
    require_real(c, "c", "positive")
    require_real(d, "d", "non-negative")
    lam_a = c * math.sqrt(_log_model_size(s, r, p, DEFAULT_DELTA) / _horizon(eta, n))
    return lam_a, d * math.sqrt(p) * lam_a


def control_parameter(eta: float, n: int, s: int, r: int, p: int) -> float:
    """Rescaled horizon ``Theta = eta n / (s^3 log((s+2r)p + r^2))``.

    The success-probability curves of the recovery experiments collapse
    when plotted against this parameter (natural logarithm).  It needs
    ``0 < eta < inf``, integers ``n, s, p >= 1`` and ``r >= 0``, and a
    model size ``(s+2r)p + r^2`` of at least 2; a ``ConstructionError``
    names the input that fails.
    """
    s = require_count(s, "s", 1)
    return _horizon(eta, n) / (s**3 * _log_model_size(s, r, p))


def theorem_constants(
    alpha: float,
    theta: float,
    cmin: float,
    dmax: float,
    s: int,
    lambda_a: float,
    l_spectral: float,
) -> tuple[float, float]:
    """Error-bound multipliers ``(nu, rho0)``.

    ``nu = alpha theta / (2 Dmax) + (8 - theta) sqrt(s) / (Cmin (4 - theta))``
    bounds the entrywise error of the sparse estimate as ``nu * lambda_A``;
    ``rho0 = min(alpha / 4, theta alpha lambda_A / (5 theta alpha lambda_A +
    16 Dmax ||L||_2))`` bounds the relative spectral error of the low-rank
    estimate as ``rho0 / (1 - 5 rho0)``.
    """
    s = require_count(s, "s", 0)
    nu = alpha * theta / (2.0 * dmax) + (8.0 - theta) * math.sqrt(s) / (
        cmin * (4.0 - theta)
    )
    numer = theta * alpha * lambda_a
    denom = 5.0 * numer + 16.0 * dmax * l_spectral
    rho0 = min(alpha / 4.0, numer / denom) if denom > 0 else 0.0
    return nu, rho0


@dataclass(frozen=True)
class AssumptionReport:
    """Every assumption constant for one system, with pass/fail flags.

    Fields that require a failed assumption to evaluate (for example the
    theoretical regularizers when identifiability fails) are ``None``.
    """

    D: float
    mu: float
    alpha: float
    theta: float
    s: int
    cmin: float
    dmax: float
    l_spectral: float
    m: float | None
    lambda_a_theory: float | None
    lambda_l_theory: float | None
    nu: float | None
    rho0: float | None
    passes: dict = field(default_factory=dict)


def assumption_report(
    params: SystemParams,
    horizon: float | None = None,
    delta: float = DEFAULT_DELTA,
) -> AssumptionReport:
    """Evaluate every assumption constant for ``params``.

    Computes the stability margin, incoherence, identifiability and design
    incoherence unconditionally (they only need a solvable steady state);
    the regularizer and error constants are filled only when A1-A3 hold
    and an observation horizon ``T = eta n`` is given, otherwise left as
    ``None``.
    """
    if horizon is not None:
        require_real(horizon, "horizon", "positive")
    require_real(delta, "delta", "in (0, 1)")
    ss = steady_state(params)
    margin = stability_margin(params)
    mu = incoherence_mu(ss.L)
    alpha = identifiability_alpha(mu, params.r, params.p)
    theta = lasso_incoherence_theta(ss.Q, row_supports(params.A))
    s = max(support_size(params.A), 1)
    l_spectral = float(np.linalg.norm(ss.L, 2))
    passes = {"A1": margin > 0, "A2": alpha < 1, "A3": theta > 0}

    m_const = lam_a = lam_l = nu = rho0 = None
    if passes["A1"]:
        m_const = latent_effect_constant(params, margin)
    if all(passes.values()) and horizon is not None:
        lam_a, lam_l = theoretical_lambdas(
            params, D=margin, theta=theta, alpha=alpha, s=s, horizon=horizon, delta=delta
        )
        nu, rho0 = theorem_constants(alpha, theta, ss.Cmin, ss.Dmax, s, lam_a, l_spectral)
    return AssumptionReport(
        D=margin,
        mu=mu,
        alpha=alpha,
        theta=theta,
        s=s,
        cmin=ss.Cmin,
        dmax=ss.Dmax,
        l_spectral=l_spectral,
        m=m_const,
        lambda_a_theory=lam_a,
        lambda_l_theory=lam_l,
        nu=nu,
        rho0=rho0,
        passes=passes,
    )
