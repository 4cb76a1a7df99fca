import dataclasses
import math
import re

import numpy as np
import pytest

from sparsedyn.errors import AssumptionError, ConstructionError, NumericalError, StabilityError
from sparsedyn.generate import gen_illustrative, gen_random_system, GenSpec
from sparsedyn.model import (
    SteadyState,
    SystemParams,
    assumption_report,
    control_parameter,
    identifiability_alpha,
    incoherence_mu,
    lambda_pair_from_constants,
    lasso_incoherence_theta,
    latent_effect_constant,
    population_mle,
    row_supports,
    stability_margin,
    steady_state,
    support_size,
    theorem_constants,
    theoretical_lambdas,
)
from sparsedyn.rng import CounterRng
from sparsedyn.simulate import simulate_discrete

from reference import kron_lyapunov_continuous, pivoted_gaussian_solve, random_stable_matrix


def _random_system(seed: int, p: int = 6, r: int = 2, s: int = 2, eta: float = 0.0):
    return gen_random_system(GenSpec(p=p, r=r, s=s, seed=seed, eta=eta))


# -------------------------------------------- stability by construction


def _observed_only(a, eta: float) -> SystemParams:
    a = np.asarray(a, dtype=float)
    p = a.shape[0]
    return SystemParams(A=a, B=np.zeros((p, 0)), C=np.zeros((0, p)),
                        D=np.zeros((0, 0)), eta=eta)


def test_non_normal_discrete_system_is_stable_by_its_spectral_radius():
    # rho(I + 0.5 A) = 0.5, although eta = 0.5 exceeds 2 / sigma_max(A) = 0.198.
    a = np.array([[-1.0, 10.0], [0.0, -1.0]])
    params = _observed_only(a, 0.5)
    q = steady_state(params).Q
    residual = a @ q + q @ a.T + 0.5 * (a @ q @ a.T) + np.eye(2)
    assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(q)
    assert simulate_discrete(params, n=50, seed=3).x.shape == (51, 2)
    # The A1 margin is reported, not required.
    assert stability_margin(params) < 0


@pytest.mark.parametrize("a, eta, message", [
    ([[0.1]], 0.5, "eta = 0.5: I + eta*drift has spectral radius 1.05 >= 1"),
    ([[0.1]], 0.0, "eta = 0: drift is not Hurwitz (spectral abscissa 0.1)"),
], ids=["discrete-radius", "continuous-abscissa"])
def test_unstable_system_fails_at_construction(a, eta, message):
    with pytest.raises(StabilityError, match=f"^{re.escape(message)}$"):
        _observed_only(a, eta)


def test_unstable_latent_block_fails_at_construction():
    # A alone is Hurwitz; the joint drift [[-1, 1], [0, 0.5]] is not.
    with pytest.raises(StabilityError, match="spectral abscissa 0.5"):
        SystemParams(A=-np.eye(1), B=np.ones((1, 1)), C=np.zeros((1, 1)),
                     D=np.array([[0.5]]), eta=0.0)


def _blocks(a, b, c, d):
    return lambda: SystemParams(A=np.asarray(a, dtype=float), B=np.zeros(b),
                                C=np.zeros(c), D=np.zeros(d))


def _rule(**kw):
    args = {"c": 0.5, "d": 1.0, "p": 40, "r": 2, "s": 3, "eta": 0.05, "n": 100, **kw}
    return lambda: lambda_pair_from_constants(**args)


def test_lambda_rule_takes_d_zero_for_pure_lasso():
    lam_a, lam_l = lambda_pair_from_constants(0.5, 0.0, 40, 2, 3, 0.05, 100)
    assert lam_a > 0 and lam_l == 0.0


def _lambdas(**kw):
    args = {"D": 1.0, "theta": 0.5, "alpha": 0.5, "s": 2, "horizon": 0.5, "delta": 0.1, **kw}
    return lambda: theoretical_lambdas(_random_system(seed=21, eta=0.05), **args)


@pytest.mark.parametrize("call, error, message", [
    (_blocks(np.zeros((2, 3)), (2, 0), (0, 2), (0, 0)), ConstructionError,
     "A must be square, got shape (2, 3)"),
    (_blocks(-np.eye(2), (3, 1), (1, 2), (1, 1)), ConstructionError,
     "B must be 2 x any, got shape (3, 1)"),
    (_blocks(-np.eye(2), (2, 1), (2, 2), (1, 1)), ConstructionError,
     "C must be 1 x 2, got shape (2, 2)"),
    (_blocks(-np.eye(2), (2, 1), (1, 2), (2, 2)), ConstructionError,
     "D must be 1 x 1, got shape (2, 2)"),
    (lambda: incoherence_mu(np.zeros((2, 3))), ConstructionError,
     "L must be square, got shape (2, 3)"),
    (lambda: identifiability_alpha(-1.0, 1, 4), ConstructionError,
     "mu must be finite and non-negative, got -1.0"),
    (lambda: lasso_incoherence_theta(np.zeros((2, 3)), [(0,)]), ConstructionError,
     "Q must be square, got shape (2, 3)"),
    (lambda: lasso_incoherence_theta(np.eye(3), [(0, 3)]), ConstructionError,
     "support (0, 3) out of range for p = 3"),
    (lambda: latent_effect_constant(_observed_only(-np.eye(2), 0.0), 0.0), AssumptionError,
     "A1: stability margin must be positive to form m"),
    (_lambdas(horizon=0.0), ConstructionError, "horizon must be finite and positive, got 0.0"),
    (_lambdas(horizon=math.inf), ConstructionError,
     "horizon must be finite and positive, got inf"),
    (_lambdas(delta=1.0), ConstructionError, "delta must be finite and in (0, 1), got 1.0"),
    (_lambdas(s=0), ConstructionError, "s must be at least 1, got 0"),
    # 2.5 ran and True ran as 1; '3' ended in a bare TypeError.
    (_lambdas(s=2.5), ConstructionError, "s must be an integer, got 2.5"),
    (lambda: control_parameter(0.05, 100.5, 3, 2, 40), ConstructionError,
     "n must be an integer, got 100.5"),
    (lambda: control_parameter(0.05, True, 3, 2, 40), ConstructionError,
     "n must be an integer, got True"),
    (lambda: control_parameter(0.05, "100", 3, 2, 40), ConstructionError,
     "n must be an integer, got '100'"),
    (lambda: control_parameter(0.05, 100, 3.0, 2, 40), ConstructionError,
     "s must be an integer, got 3.0"),
    (lambda: control_parameter(0.05, 100, True, 2, 40), ConstructionError,
     "s must be an integer, got True"),
    (lambda: control_parameter(0.05, 100, "3", 2, 40), ConstructionError,
     "s must be an integer, got '3'"),
    (lambda: control_parameter(0.05, 100, 3, 2.0, 40), ConstructionError,
     "r must be an integer, got 2.0"),
    (lambda: control_parameter(0.05, 100, 3, 2, 40.0), ConstructionError,
     "p must be an integer, got 40.0"),
    (lambda: lambda_pair_from_constants(0.5, 1.0, 40, 2, 2.5, 0.05, 100), ConstructionError,
     "s must be an integer, got 2.5"),
    # r = 2.5 ran, p = 0 named no input, and s = -4 ended in a math domain error.
    (lambda: identifiability_alpha(0.5, 2.5, 4), ConstructionError,
     "r must be an integer, got 2.5"),
    (lambda: identifiability_alpha(0.5, 1, 0), ConstructionError, "p must be at least 1, got 0"),
    (lambda: theorem_constants(0.5, 0.5, 1.0, 1.0, -4, 0.1, 1.0), ConstructionError,
     "s must be at least 0, got -4"),
    # nan gave alpha = nan; True was taken as 1 (a horizon, a step, mu) and
    # strings ended in a bare TypeError.
    (lambda: identifiability_alpha(math.nan, 1, 4), ConstructionError,
     "mu must be finite and non-negative, got nan"),
    (lambda: identifiability_alpha(True, 1, 4), ConstructionError,
     "mu must be a real number, got True"),
    (_lambdas(horizon=True), ConstructionError, "horizon must be a real number, got True"),
    (_lambdas(horizon="0.5"), ConstructionError, "horizon must be a real number, got '0.5'"),
    (_lambdas(delta=math.nan), ConstructionError,
     "delta must be finite and in (0, 1), got nan"),
    (lambda: assumption_report(_random_system(seed=21), horizon=math.nan), ConstructionError,
     "horizon must be finite and positive, got nan"),
    (lambda: assumption_report(_random_system(seed=21), horizon="5"), ConstructionError,
     "horizon must be a real number, got '5'"),
    (lambda: assumption_report(_random_system(seed=21), delta=0.0), ConstructionError,
     "delta must be finite and in (0, 1), got 0.0"),
    (lambda: _observed_only(-np.eye(2), -0.1), ConstructionError,
     "eta must be finite and non-negative, got -0.1"),
    (lambda: _observed_only(-np.eye(2), math.inf), ConstructionError,
     "eta must be finite and non-negative, got inf"),
    (lambda: _observed_only(-np.eye(2), True), ConstructionError,
     "eta must be a real number, got True"),
    (lambda: control_parameter(True, 100, 3, 2, 40), ConstructionError,
     "eta must be a real number, got True"),
    (lambda: control_parameter("0.05", 100, 3, 2, 40), ConstructionError,
     "eta must be a real number, got '0.05'"),
    # c = nan gave (nan, nan), '0.5' ended in a bare TypeError, -0.5 gave a
    # negative pair and True was taken as 1.0.
    (_rule(c=math.nan), ConstructionError, "c must be finite and positive, got nan"),
    (_rule(c="0.5"), ConstructionError, "c must be a real number, got '0.5'"),
    (_rule(c=-0.5), ConstructionError, "c must be finite and positive, got -0.5"),
    (_rule(c=0.0), ConstructionError, "c must be finite and positive, got 0.0"),
    (_rule(c=True, d=True), ConstructionError, "c must be a real number, got True"),
    (_rule(d=True), ConstructionError, "d must be a real number, got True"),
    (_rule(d=-0.5), ConstructionError, "d must be finite and non-negative, got -0.5"),
    (_rule(d=math.inf), ConstructionError, "d must be finite and non-negative, got inf"),
], ids=["A-square", "B-shape", "C-shape", "D-shape", "mu-square", "alpha-mu", "theta-square",
        "theta-support-range", "m-margin", "lambdas-horizon-0", "lambdas-horizon-inf",
        "lambdas-delta", "lambdas-s", "lambdas-s-float", "theta-n-float", "theta-n-bool",
        "theta-n-str", "theta-s-float", "theta-s-bool", "theta-s-str", "theta-r-float",
        "theta-p-float", "rule-s-float", "alpha-r-float", "alpha-p-0", "constants-s-negative",
        "alpha-mu-nan", "alpha-mu-bool", "lambdas-horizon-bool", "lambdas-horizon-str",
        "lambdas-delta-nan", "report-horizon-nan", "report-horizon-str", "report-delta-0",
        "params-eta-negative", "params-eta-inf", "params-eta-bool", "theta-eta-bool",
        "theta-eta-str", "rule-c-nan", "rule-c-str", "rule-c-negative", "rule-c-0",
        "rule-c-d-bool", "rule-d-bool", "rule-d-negative", "rule-d-inf"])
def test_model_checks_name_the_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------- stability margin


def test_stability_margin_identity():
    params = SystemParams(A=-np.eye(3), B=np.zeros((3, 0)), C=np.zeros((0, 3)),
                          D=np.zeros((0, 0)), eta=0.0)
    assert abs(stability_margin(params) - 1.0) < 1e-14


def test_stability_margin_discrete_scalar():
    params = SystemParams(A=-np.eye(2), B=np.zeros((2, 0)), C=np.zeros((0, 2)),
                          D=np.zeros((0, 0)), eta=0.5)
    # sigma_max(I - 0.5 I) = 0.5 -> (1 - 0.25) / 0.5 = 1.5
    assert abs(stability_margin(params) - 1.5) < 1e-14


def test_stability_margin_illustrative_closed_form():
    # The joint drift [[-I, B], [0, -I]] has symmetric part with extreme
    # eigenvalue -1 + sigma_max(B)/2, so the margin is 1 - sqrt(p/r)/2.
    for p, r in ((4, 2), (16, 2), (9, 3)):
        params = gen_illustrative(p, r)
        expected = 1.0 - math.sqrt(p / r) / 2.0
        assert abs(stability_margin(params) - expected) < 1e-12


# -------------------------------------------------------- steady state


def test_steady_state_holds_the_covariances_and_no_margin(monkeypatch):
    # The A1 margin is stability_margin's alone; no trial's truth computes it.
    import sparsedyn.model as model_module

    assert [f.name for f in dataclasses.fields(SteadyState)] == ["Q", "R", "P", "L", "Cmin", "Dmax"]
    params = _random_system(seed=6, p=8, r=2, s=2, eta=0.05)
    margin = stability_margin(params)
    monkeypatch.setattr(model_module, "stability_margin", None)
    steady_state(params)
    monkeypatch.undo()
    assert assumption_report(params).D == margin


def test_steady_state_no_latents():
    params = SystemParams(A=-np.eye(2), B=np.zeros((2, 0)), C=np.zeros((0, 2)),
                          D=np.zeros((0, 0)), eta=0.0)
    ss = steady_state(params)
    assert np.allclose(ss.Q, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(ss.L, 0.0)
    assert ss.R.shape == (0, 2) and ss.P.shape == (0, 0)


@pytest.mark.parametrize("rates, singular", [
    ([1e13, 1e13], False), ([1e-6, 1e-6], False), ([1.0, 1e13], True)],
    ids=["fast", "slow", "spread"])
def test_steady_state_singularity_guard_is_relative(rates, singular):
    # Q = diag(1 / (2 rate)): a scaled system is as well conditioned as the
    # unit one, and only a spread of more than 1e12 in Q is singular.
    params = SystemParams(A=-np.diag(rates), B=np.zeros((2, 0)), C=np.zeros((0, 2)),
                          D=np.zeros((0, 0)))
    if singular:
        with pytest.raises(NumericalError, match="numerically singular"):
            steady_state(params)
    else:
        assert np.allclose(steady_state(params).Q, np.diag(0.5 / np.array(rates)), rtol=1e-12)


def test_steady_state_illustrative_closed_forms():
    # Exact solution of joint Lyapunov equation for [[-I, B], [0, -I]]:
    #   P = I/2, R = B^T/4, Q = I/2 + B B^T/4, L = (r/(p+2r)) B B^T.
    # (Scalar check p = r = 1, B = [1]: -2q + 2rho = -1, P - 2rho = 0,
    #  -2P = -1 -> P = 1/2, rho = 1/4, q = 3/4.)
    for p, r in ((4, 2), (16, 2)):
        params = gen_illustrative(p, r)
        ss = steady_state(params)
        bbt = params.B @ params.B.T
        assert np.allclose(ss.P, 0.5 * np.eye(r), atol=1e-10)
        assert np.allclose(ss.R, 0.25 * params.B.T, atol=1e-10)
        assert np.allclose(ss.Q, 0.5 * np.eye(p) + 0.25 * bbt, atol=1e-10)
        assert np.allclose(ss.L, (r / (p + 2 * r)) * bbt, atol=1e-10)
        # rank of L is exactly r
        svals = np.linalg.svd(ss.L, compute_uv=False)
        assert np.sum(svals > 1e-9 * svals[0]) == r


def test_steady_state_matches_kronecker_oracle():
    params = _random_system(seed=2718, p=6, r=2, s=2)
    ss = steady_state(params)
    oracle = kron_lyapunov_continuous(params.joint())
    qj = np.block([[ss.Q, ss.R.T], [ss.R, ss.P]])
    assert np.linalg.norm(qj - oracle) / np.linalg.norm(oracle) < 1e-9
    # Lyapunov residual of the assembled joint covariance
    joint_drift = params.joint()
    res = np.linalg.norm(joint_drift @ qj + qj @ joint_drift.T + np.eye(8))
    assert res < 1e-10 * np.linalg.norm(qj)


def test_steady_state_rank_bound_over_ensemble():
    for seed in range(5):
        params = _random_system(seed=seed, p=8, r=4, s=2)
        ss = steady_state(params)
        svals = np.linalg.svd(ss.L, compute_uv=False)
        assert np.sum(svals > 1e-9 * max(svals[0], 1e-300)) <= params.r


# ----------------------------------------------------- population MLE


def test_population_mle_no_latents_returns_A():
    params = SystemParams(A=-np.eye(3) + 0.1, B=np.zeros((3, 0)),
                          C=np.zeros((0, 3)), D=np.zeros((0, 0)), eta=0.0)
    assert np.allclose(population_mle(params), params.A, atol=1e-12)


def test_population_mle_is_A_plus_L():
    params = _random_system(seed=11)
    ss = steady_state(params)
    assert np.allclose(population_mle(params), params.A + ss.L, atol=1e-14)


def test_population_mle_matches_regression_oracle():
    # Long discrete simulation; row-wise least squares of (x(i+1)-x(i))/eta
    # on x(i) should approach A + L entrywise within 3 standard errors.
    params = _random_system(seed=314, p=6, r=2, s=2, eta=0.05)
    target = population_mle(params)
    n = 200000
    traj = simulate_discrete(params, n=n, seed=2024)
    xc = traj.x[:-1]
    dx = (traj.x[1:] - xc) / params.eta
    coef, *_ = np.linalg.lstsq(xc, dx, rcond=None)
    mhat = coef.T
    s1 = xc.T @ xc / n
    s1_inv_diag = np.diag(np.linalg.inv(s1))
    resid = dx - xc @ mhat.T
    sigma2 = np.mean(resid**2, axis=0)  # per-row residual variance
    se = np.sqrt(np.outer(sigma2, s1_inv_diag) / n)
    within = np.abs(mhat - target) <= 3.0 * se
    assert within.mean() >= 0.95


# -------------------------------------------------------- incoherence


def test_incoherence_illustrative_is_r():
    for p, r in ((4, 2), (16, 2), (9, 3)):
        ss = steady_state(gen_illustrative(p, r))
        assert abs(incoherence_mu(ss.L) - r) < 1e-9


def test_incoherence_point_mass():
    # U = V = e1, so the cross condition ||U V^T||_inf <= sqrt(mu/p^2)
    # forces mu = p^2 (the row/column conditions alone would give p).
    p = 5
    l_mat = np.zeros((p, p))
    l_mat[0, 0] = 1.0
    assert abs(incoherence_mu(l_mat) - p * p) < 1e-9


def test_incoherence_flat_rank_one():
    p = 6
    l_mat = np.full((p, p), 1.0 / p)
    assert abs(incoherence_mu(l_mat) - 1.0) < 1e-9


def test_incoherence_zero_matrix():
    assert incoherence_mu(np.zeros((4, 4))) == 0.0


def test_incoherence_scale_invariant():
    params = _random_system(seed=5, p=8, r=4, s=2)
    l_mat = steady_state(params).L
    base = incoherence_mu(l_mat)
    assert abs(incoherence_mu(3.7 * l_mat) - base) < 1e-8 * max(base, 1.0)


# ------------------------------------------------------ identifiability


def test_alpha_formula():
    assert identifiability_alpha(0.0, 0, 7) == 0.0
    assert abs(identifiability_alpha(4.0, 4, 144) - 1.0) < 1e-14
    # mu = r (structured example): alpha = 3 r / sqrt(p) < 1 iff r < sqrt(p)/3
    p = 100
    for r in (1, 3):
        alpha = identifiability_alpha(float(r), r, p)
        assert (alpha < 1) == (r < math.sqrt(p) / 3)


# -------------------------------------------------- LASSO incoherence


def test_theta_diagonal_is_one():
    q = np.diag([1.0, 2.0, 3.0])
    assert lasso_incoherence_theta(q, [(0,), (1,), (2,)]) == 1.0


def test_theta_illustrative_closed_form():
    # True Q = I/2 + B B^T / 4 has diagonal 3/4 and same-parent
    # off-diagonal 1/4, so with singleton supports theta = 1 - (1/4)/(3/4).
    params = gen_illustrative(16, 2)
    ss = steady_state(params)
    theta = lasso_incoherence_theta(ss.Q, row_supports(params.A))
    assert abs(theta - 2.0 / 3.0) < 1e-10


def test_theta_matches_pivoted_elimination_oracle():
    rng = CounterRng(404)
    m = random_stable_matrix(rng, 6)
    q = kron_lyapunov_continuous(m)  # symmetric PD
    supports = [(0, 3), (1, 2), (4, 5), (0, 5)]
    theta = lasso_incoherence_theta(q, supports)
    worst = 0.0
    for s in {tuple(sorted(s)) for s in supports}:
        comp = [i for i in range(6) if i not in s]
        w = pivoted_gaussian_solve(q[np.ix_(s, s)], q[np.ix_(s, comp)]).T
        worst = max(worst, float(np.max(np.sum(np.abs(w), axis=1))))
    assert abs(theta - (1.0 - worst)) < 1e-10


def test_theta_monotone_in_correlation():
    thetas = []
    for c in (0.0, 0.3, 0.6, 0.9):
        q = np.array([[1.0, c], [c, 1.0]])
        thetas.append(lasso_incoherence_theta(q, [(0,), (1,)]))
    assert all(a >= b - 1e-12 for a, b in zip(thetas, thetas[1:]))
    assert thetas[0] == 1.0


def test_theta_skips_a_support_that_covers_every_column():
    # No column lies off the support, so it loads nothing: theta stays 1.
    q = np.array([[1.0, 0.9], [0.9, 1.0]])
    assert lasso_incoherence_theta(q, [(0, 1)]) == 1.0
    assert lasso_incoherence_theta(q, [(0, 1), (0,)]) == lasso_incoherence_theta(q, [(0,)])


def test_theta_rejects_empty_support():
    with pytest.raises(ConstructionError):
        lasso_incoherence_theta(np.eye(3), [()])


# --------------------------------------------------------- support size


def test_support_size_counts_rows_and_columns():
    a = np.zeros((4, 4))
    a[0, :3] = 1.0  # row with 3
    a[:, 3] = 2.0  # column with 4
    assert support_size(a) == 4
    assert support_size(np.zeros((3, 3))) == 0


# ------------------------------------------------ theoretical lambdas


def test_theoretical_lambdas_direct_instantiation():
    # theta = 1/2, D = 2, zero initial condition: the leading factor is
    # 16 m * 3.5 / (0.5 * sqrt(2)).
    params = _random_system(seed=21, p=6, r=2, s=2, eta=0.05)
    s, n, delta = 3, 400, 0.1
    lam_a, lam_l = theoretical_lambdas(
        params, D=2.0, theta=0.5, alpha=0.5, s=s, horizon=n * params.eta, delta=delta
    )
    binf = float(np.max(np.sum(np.abs(params.B), axis=1)))
    m = max(80.0 / math.sqrt(2.0) * binf,
            math.sqrt((math.sqrt(params.eta) + 1.0) ** 2))
    log_term = math.log(4.0 * ((s + 2 * params.r) * params.p + params.r**2) / delta)
    expected = 16.0 * m * 3.5 / (0.5 * math.sqrt(2.0)) * math.sqrt(log_term / (n * params.eta))
    assert abs(lam_a - expected) < 1e-12 * expected
    assert lam_l > 0


def test_theoretical_lambda_sqrt_scaling():
    params = _random_system(seed=21, p=6, r=2, s=2, eta=0.05)
    kw = dict(D=2.0, theta=0.5, alpha=0.5, s=3, delta=0.1)
    lam1, _ = theoretical_lambdas(params, horizon=400 * params.eta, **kw)
    lam2, _ = theoretical_lambdas(params, horizon=800 * params.eta, **kw)
    assert abs(lam1 / lam2 - math.sqrt(2.0)) < 1e-12


def test_lambda_ratio_matches_symbolic_oracle():
    import sympy

    alpha_v, theta_v, s_v, p_v = 0.6, 0.5, 4, 36
    a, th, s, p = sympy.symbols("a th s p", positive=True)
    expr = (1 / (1 - a)) * (
        (3 * a * sympy.sqrt(s) / 4 + (8 - th) * s / (th * (4 - th)))
        * (th * sympy.sqrt(p) / (9 * s * sympy.sqrt(s)) + 1)
        + sympy.Rational(1, 2)
    )
    expected_ratio = float(expr.subs({a: alpha_v, th: theta_v, s: s_v, p: p_v}))

    params = _random_system(seed=77, p=36, r=2, s=3, eta=0.02)
    lam_a, lam_l = theoretical_lambdas(
        params, D=1.0, theta=theta_v, alpha=alpha_v, s=s_v, horizon=1000 * params.eta,
        delta=0.05
    )
    assert abs(lam_l / (lam_a * math.sqrt(p_v)) - expected_ratio) < 1e-10 * expected_ratio


def test_theoretical_lambdas_assumption_errors():
    params = _random_system(seed=21, p=6, r=2, s=2, eta=0.05)
    kw = dict(s=2, horizon=10 * params.eta, delta=0.1)
    with pytest.raises(AssumptionError, match="A1"):
        theoretical_lambdas(params, D=-1.0, theta=0.5, alpha=0.5, **kw)
    with pytest.raises(AssumptionError, match="A3"):
        theoretical_lambdas(params, D=1.0, theta=0.0, alpha=0.5, **kw)
    with pytest.raises(AssumptionError, match="A2"):
        theoretical_lambdas(params, D=1.0, theta=0.5, alpha=1.0, **kw)


# ------------------------------------------------- control parameter


def test_control_parameter_paper_scale_value():
    theta = control_parameter(eta=0.01, n=10**6, s=20, r=10, p=200)
    expected = 1e4 / (8000 * math.log(8100))
    assert abs(theta - expected) < 1e-12
    assert abs(theta - 0.1389) < 1e-3


def test_control_parameter_linear_in_n():
    t1 = control_parameter(eta=0.05, n=1000, s=3, r=2, p=40)
    t2 = control_parameter(eta=0.05, n=2000, s=3, r=2, p=40)
    assert abs(t2 - 2 * t1) < 1e-14


@pytest.mark.parametrize("eta, n, r, message", [
    (0.05, 100, -5, "r must be at least 0, got -5"),
    (0.0, 100, 1, "eta must be finite and positive, got 0.0"),
    (math.nan, 100, 1, "eta must be finite and positive, got nan"),
    (math.inf, 100, 1, "eta must be finite and positive, got inf"),
    (0.05, 0, 1, "n must be at least 1, got 0"),
])
def test_lambda_rule_and_control_parameter_name_a_bad_input(eta, n, r, message):
    # These ended in a math domain error, a ZeroDivisionError, a message
    # that named no input, or (eta = nan or inf) no error at all.
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        lambda_pair_from_constants(0.5, 1.0, 6, r, 1, eta, n)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        control_parameter(eta, n, 1, r, 6)


def test_control_parameter_takes_numpy_integer_counts():
    counts = (np.int64(1000), np.int32(3), np.int64(2), np.uint16(40))
    assert control_parameter(0.05, *counts) == control_parameter(0.05, 1000, 3, 2, 40)


def test_lambda_rule_needs_a_model_size_and_control_parameter_an_s():
    message = "the model size (s+2r)p + r^2 must be at least 1, got 0 at s = 0, r = 0, p = 6"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        lambda_pair_from_constants(0.5, 1.0, 6, 0, 0, 0.05, 100)
    with pytest.raises(ConstructionError, match="^s must be at least 1, got 0$"):
        control_parameter(0.05, 100, 0, 2, 6)


def test_control_parameter_needs_a_model_size_of_two():
    # log 1 = 0 would divide Theta by zero; the lambda rule's log(40 * 1) is positive.
    message = "the model size (s+2r)p + r^2 must be at least 2, got 1 at s = 1, r = 0, p = 1"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        control_parameter(0.1, 10, 1, 0, 1)
    lam_a, lam_l = lambda_pair_from_constants(0.5, 1.0, 1, 0, 1, 0.1, 10)
    assert lam_a == 0.5 * math.sqrt(math.log(40.0) / 1.0) and lam_l == lam_a


# ------------------------------------------------- theorem constants


def test_theorem_constants_formula():
    alpha, theta, cmin, dmax, s = 0.5, 0.5, 0.3, 2.0, 4
    lam, l2 = 0.1, 1.5
    nu, rho0 = theorem_constants(alpha, theta, cmin, dmax, s, lam, l2)
    assert abs(nu - (alpha * theta / (2 * dmax) + (8 - theta) * 2.0 / (cmin * 3.5))) < 1e-14
    expected_rho = min(alpha / 4, theta * alpha * lam / (5 * theta * alpha * lam + 16 * dmax * l2))
    assert abs(rho0 - expected_rho) < 1e-14


def test_rho0_bounded_by_alpha_quarter():
    rng = CounterRng(31)
    for trial in range(20):
        alpha, theta, lam, l2 = rng.uniforms(4)
        alpha = 0.1 + 0.8 * alpha
        nu, rho0 = theorem_constants(alpha, 0.1 + 0.8 * theta, 0.5, 2.0, 3,
                                     lam + 1e-3, l2)
        assert rho0 <= alpha / 4 + 1e-15


def test_rho0_vanishes_with_lambda():
    _, rho_small = theorem_constants(0.5, 0.5, 0.3, 2.0, 4, 1e-9, 1.0)
    _, rho_big = theorem_constants(0.5, 0.5, 0.3, 2.0, 4, 1e-2, 1.0)
    assert rho_small < rho_big
    assert rho_small < 1e-9


# ------------------------------------------------- assumption report


def test_assumption_report_random_system():
    params = _random_system(seed=6, p=8, r=2, s=2, eta=0.05)
    report = assumption_report(params, horizon=5000 * params.eta)
    assert report.passes["A1"]
    assert report.D > 0
    assert report.s >= 3  # s off-diagonal entries plus the diagonal
    assert report.mu >= 0 and report.cmin > 0 and report.dmax >= report.cmin
    if all(report.passes.values()):
        assert report.lambda_a_theory > 0
        assert report.lambda_l_theory > 0
        assert report.nu > 0


def test_assumption_report_illustrative_flags_failures():
    # p = 16, r = 2 fails A1 (margin 1 - sqrt(8)/2 < 0) and A2 (alpha = 1.5).
    report = assumption_report(gen_illustrative(16, 2), horizon=100.0)
    assert not report.passes["A1"]
    assert not report.passes["A2"]
    assert report.passes["A3"]
    assert abs(report.mu - 2.0) < 1e-9
    assert abs(report.alpha - 1.5) < 1e-12
    assert abs(report.theta - 2.0 / 3.0) < 1e-10
    assert report.lambda_a_theory is None and report.m is None


def test_assumption_report_passing_illustrative():
    # p = 36, r = 1: p/r < 4 fails... sqrt(36) = 6 -> sqrt(p/r)/2 = 3 > 1,
    # so A1 still fails; use p = 12, r = 4 (sqrt(3)/2 < 1, alpha = 3/sqrt(3*...)).
    params = gen_illustrative(12, 4)
    report = assumption_report(params, horizon=50.0)
    assert report.passes["A1"] and report.passes["A3"]
    # alpha = 3 sqrt(mu r / p) = 3 sqrt(16/12) > 1: A2 fails here; the
    # structured family needs r < sqrt(p)/3 for A2, impossible with r >= 2
    # unless p > 36.
    assert not report.passes["A2"]
