import functools
import json
import re

import numpy as np
import pytest

from sparsedyn.errors import ConstructionError, DataError, DivergenceError
from sparsedyn.evaluate import block_cross_validate, recovery_report
from sparsedyn.generate import GenSpec, gen_illustrative, gen_random_system
from sparsedyn.model import steady_state
from sparsedyn.rng import CounterRng
from sparsedyn.simulate import (
    SufficientStats,
    Trajectory,
    simulate_continuous,
    sufficient_stats,
)
from sparsedyn.solver import (
    MODE_PURE_LASSO,
    Estimate,
    SolverConfig,
    estimate_from_json,
    estimate_to_json,
    fit,
    objective,
    smooth_gradient,
)

from reference import central_difference_gradient, solver_subgradient_reference


def _stats_from_system(seed: int, p: int = 3, r: int = 0, s: int = 1,
                       n: int = 40, eta: float = 0.1):
    params = gen_random_system(GenSpec(p=p, r=r, s=s, seed=seed))
    traj = simulate_continuous(params, eta=eta, n=n, mode="exact", seed=seed + 1)
    return sufficient_stats(traj), traj


# ----------------------------------------------------------- objective


def test_objective_zero_model_is_constant():
    stats, traj = _stats_from_system(seed=1)
    zero = np.zeros((3, 3))
    val = objective(zero, zero, stats, stats.sq_increment_sum, 1.0, 1.0)
    expected = stats.sq_increment_sum / (2 * stats.eta**2 * stats.n)
    assert abs(val - expected) < 1e-12 * max(1.0, expected)


def test_objective_matches_per_sample_sum():
    stats, traj = _stats_from_system(seed=2, n=5)
    rng = CounterRng(7)
    a = rng.normal_matrix(3, 3)
    l_mat = rng.normal_matrix(3, 3)
    lam_a, lam_l = 0.3, 0.7
    val = objective(a, l_mat, stats, stats.sq_increment_sum, lam_a, lam_l)
    m = a + l_mat
    direct = 0.0
    for i in range(traj.n):
        resid = traj.x[i + 1] - traj.x[i] - traj.eta * (m @ traj.x[i])
        direct += float(resid @ resid)
    direct /= 2 * traj.eta**2 * traj.n
    direct += lam_a * np.abs(a).sum()
    direct += lam_l * np.linalg.svd(l_mat, compute_uv=False).sum()
    assert abs(val - direct) < 1e-10 * max(1.0, abs(direct))


def test_objective_approaches_continuous_limit():
    # Simulate fine paths, evaluate the continuous-time loss on each by
    # quadrature (trapezoid for the dt integral, left-point sum for the
    # stochastic one), and check the subsampled discrete objective minus
    # its data constant approaches that value as eta shrinks.  The gap is
    # a path functional, so compare medians over independent paths.
    params = gen_random_system(GenSpec(p=3, r=0, s=1, seed=9))
    h = 0.002
    n_fine = 10000  # T = 20
    m = CounterRng(5).normal_matrix(3, 3) * 0.5
    horizon = n_fine * h

    gaps = {0.1: [], 0.01: []}
    for seed in range(7):
        traj = simulate_continuous(params, eta=h, n=n_fine, mode="exact", seed=33 + seed)
        mx = traj.x @ m.T
        quad = np.sum(mx * mx, axis=1)
        dt_integral = h * (0.5 * quad[0] + quad[1:-1].sum() + 0.5 * quad[-1])
        dx = traj.x[1:] - traj.x[:-1]
        ito_sum = float(np.sum(dx * mx[:-1]))
        continuous_value = dt_integral / (2 * horizon) - ito_sum / horizon
        for eta in (0.1, 0.01):
            stride = round(eta / h)
            sub = Trajectory(x=traj.x[::stride], eta=eta)
            stats = sufficient_stats(sub)
            const = stats.sq_increment_sum / (2 * eta**2 * stats.n)
            val = objective(m, np.zeros((3, 3)), stats, stats.sq_increment_sum, 0.0, 0.0)
            gaps[eta].append(abs(val - const - continuous_value))
    assert np.median(gaps[0.01]) < np.median(gaps[0.1])


# ------------------------------------------------------------ gradient


def test_gradient_zero_at_normal_equations():
    stats, _ = _stats_from_system(seed=3)
    m = stats.S2 @ np.linalg.inv(stats.S1)
    g = smooth_gradient(m, stats)
    assert np.max(np.abs(g)) < 1e-10


@pytest.mark.parametrize("p", [2, 4, 8])
def test_gradient_matches_finite_differences(p):
    stats, _ = _stats_from_system(seed=10 + p, p=p, n=60)
    m = CounterRng(20 + p).normal_matrix(p, p)

    def smooth_value(mm):
        return objective(mm, np.zeros((p, p)), stats, stats.sq_increment_sum, 0.0, 0.0)

    g = smooth_gradient(m, stats)
    fd = central_difference_gradient(smooth_value, m, h=1e-6)
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1.0)) < 1e-5


def test_gradient_zero_data():
    stats = sufficient_stats(Trajectory(x=np.zeros((6, 3)), eta=0.1))
    m = CounterRng(1).normal_matrix(3, 3)
    assert np.all(smooth_gradient(m, stats) == 0)


# ----------------------------------------------------------------- fit


def test_fit_over_regularized_returns_zero():
    stats, _ = _stats_from_system(seed=4, n=60)
    lam_a = float(np.max(np.abs(stats.S2))) * 1.5
    lam_l = float(np.linalg.norm(stats.S2, 2)) * 1.5
    est = fit(stats, stats.sq_increment_sum, SolverConfig(lambda_a=lam_a, lambda_l=lam_l))
    assert np.all(est.Ahat == 0) and np.all(est.Lhat == 0)
    assert est.converged


def test_fit_lasso_over_regularized_returns_zero():
    stats, _ = _stats_from_system(seed=5, n=60)
    lam_a = float(np.max(np.abs(stats.S2))) * 1.5
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lambda_a=lam_a, mode=MODE_PURE_LASSO))
    assert np.all(est.Ahat == 0)


@pytest.mark.parametrize("lasso", [False, True])
def test_fit_matches_subgradient_reference_p2(lasso):
    stats, _ = _stats_from_system(seed=6, p=2, n=30)
    lam_a, lam_l = 0.3, 0.4
    mode = MODE_PURE_LASSO if lasso else "sparse_plus_lowrank"
    config = SolverConfig(lambda_a=lam_a, lambda_l=0.0 if lasso else lam_l,
                          mode=mode, max_iter=20000, tol=1e-12)
    est = fit(stats, stats.sq_increment_sum, config)
    ref = solver_subgradient_reference(
        stats.S1, stats.S2, stats.eta, stats.n, stats.sq_increment_sum,
        lam_a, lam_l, iters=100000, lasso=lasso,
    )
    final = est.objective_trace[-1]
    # The held ADMM iterate must not be worse, and the subgradient best must be close.
    assert final <= ref + 1e-9
    assert abs(final - ref) < 1e-3


def test_fit_trace_never_increases():
    for seed in range(6):
        stats, _ = _stats_from_system(seed=30 + seed, p=4, r=2, s=1, n=80)
        lam = 0.05 + 0.1 * (seed % 3)
        est = fit(stats, stats.sq_increment_sum,
                  SolverConfig(lambda_a=lam, lambda_l=2 * lam, max_iter=500, tol=1e-10))
        trace = np.array(est.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_fit_one_factorization_per_prox_step(monkeypatch):
    # Scoring an iterate reuses the prox step's singular values, so every
    # factorization in a fit is the one inside prox_nuclear, one per
    # iteration.  Here tau is far above 1e-4 sigma_1, so each is the Gram
    # eigendecomposition and no SVD runs at all.
    import sparsedyn.solver as solver_module

    counts = {"svd": 0, "eigh": 0, "prox": 0}
    real_svd, real_eigh = np.linalg.svd, np.linalg.eigh
    real_prox = solver_module.prox_nuclear

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting("svd", real_svd))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", real_eigh))
    # np.linalg.norm(..., "nuc") reaches svd through numpy's implementation module.
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(impl, "svd", counting("svd", real_svd))
    monkeypatch.setattr(solver_module, "prox_nuclear", counting("prox", real_prox))
    stats, _ = _stats_from_system(seed=30, p=4, r=2, s=1, n=80)
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lambda_a=0.05, lambda_l=0.1, max_iter=500, tol=1e-10))
    assert counts["prox"] >= est.iterations > 1
    assert counts["eigh"] == counts["prox"]
    assert counts["svd"] == 0


def test_fit_trace_ends_at_public_objective():
    for seed in range(4):
        stats, _ = _stats_from_system(seed=50 + seed, p=4, r=2, s=1, n=80)
        lam_a, lam_l = 0.05 * (seed + 1), 0.1
        est = fit(stats, stats.sq_increment_sum,
                  SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=500, tol=1e-10))
        assert np.linalg.norm(est.Lhat, "nuc") > 1.0  # the nuclear term is in play
        public = objective(est.Ahat, est.Lhat, stats, stats.sq_increment_sum, lam_a, lam_l)
        assert abs(est.objective_trace[-1] - public) <= 1e-12 * abs(public)


def test_fit_fixed_point_after_convergence():
    # A converged fit is near a fixed point of the proximal gradient map at
    # the joint step 1 / (2 sigma_max(S1)): one such step moves it by no
    # more than the descent lemma allows a step that lowers the objective
    # by tol * max(1, |f|), ||next - current||_F <= sqrt(2 step |delta f|).
    from sparsedyn.linalg import prox_l1, prox_nuclear

    stats, _ = _stats_from_system(seed=41, p=4, r=2, s=1, n=80)
    tol = 1e-10
    config = SolverConfig(lambda_a=0.05, lambda_l=0.1, max_iter=20000, tol=tol)
    est = fit(stats, stats.sq_increment_sum, config)
    assert est.converged
    step = 1.0 / (2.0 * np.linalg.eigvalsh(stats.S1)[-1])
    g = smooth_gradient(est.Ahat + est.Lhat, stats)
    a_next = prox_l1(est.Ahat - step * g, step * config.lambda_a)
    l_next, _ = prox_nuclear(est.Lhat - step * g, step * config.lambda_l)
    move = np.sqrt(np.linalg.norm(a_next - est.Ahat) ** 2
                   + np.linalg.norm(l_next - est.Lhat) ** 2)
    f_final = est.objective_trace[-1]
    assert move <= np.sqrt(2 * step * tol * max(1.0, abs(f_final))) * 10


def test_fit_fixed_point_exact_at_zero_solution():
    # Over-regularized problems converge to the exact fixed point 0, where
    # one further step moves by far less than 10 * tol.
    from sparsedyn.linalg import prox_l1, prox_nuclear

    stats, _ = _stats_from_system(seed=42, n=60)
    lam_a = float(np.max(np.abs(stats.S2))) * 2.0
    lam_l = float(np.linalg.norm(stats.S2, 2)) * 2.0
    config = SolverConfig(lambda_a=lam_a, lambda_l=lam_l, tol=1e-8)
    est = fit(stats, stats.sq_increment_sum, config)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(stats.S1)[-1])
    g = smooth_gradient(est.Ahat + est.Lhat, stats)
    a_next = prox_l1(est.Ahat - step * g, step * lam_a)
    l_next, _ = prox_nuclear(est.Lhat - step * g, step * lam_l)
    move = np.linalg.norm(a_next - est.Ahat) + np.linalg.norm(l_next - est.Lhat)
    assert move < 10 * config.tol


CORNERS = [(0.1, 0.1), (0.1, 1.0), (0.8, 0.1), (0.8, 1.0)]


@functools.cache
def _cv_fold_stats():
    """One cross-validation fold's statistics: p = 40, n = 4,000."""
    params = gen_random_system(GenSpec(p=40, r=2, s=3, seed=31))
    return sufficient_stats(simulate_continuous(params, eta=0.05, n=4000, seed=32))


def _corner_fit(c, d, tol):
    from sparsedyn.model import lambda_pair_from_constants

    stats = _cv_fold_stats()
    lasso = d is None  # lambda_A does not depend on d
    lam_a, lam_l = lambda_pair_from_constants(c, 1.0 if lasso else d, 40, 1, 1, 0.05, stats.n)
    lam_l = 0.0 if lasso else lam_l
    mode = MODE_PURE_LASSO if lasso else "sparse_plus_lowrank"
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lam_a, lam_l, mode, max_iter=20000, tol=tol))
    value = objective(est.Ahat, est.Lhat, stats, stats.sq_increment_sum, lam_a, lam_l)
    return est, value


# d = None is the pure-lasso fit at the grid's c.
@pytest.mark.parametrize("c, d", CORNERS + [pytest.param(0.1, None, id="lasso-0.1"),
                                            pytest.param(0.8, None, id="lasso-0.8")])
def test_fit_at_protocol_tol_is_near_the_optimum(c, d):
    # One cross-validation fold's fit at the corners of the CV grid: the
    # protocol's stop is within 1e-6 relative of the optimum, which a fit
    # at tol = 1e-15 stands for.
    from sparsedyn.evaluate import PROTOCOL_TOL

    values = []
    for tol in (PROTOCOL_TOL, 1e-15):
        est, value = _corner_fit(c, d, tol)
        assert est.converged
        values.append(value)
    stopped, optimum = values
    assert stopped - optimum <= 1e-6 * abs(optimum)


def test_fit_corner_iterations_at_protocol_tol():
    # The over-relaxed ADMM takes 39 + 11 + 11 + 16 = 77 iterations over
    # the four corners; unrelaxed (alpha = 1) it took 40 + 18 + 12 + 31 = 101.
    from sparsedyn.evaluate import PROTOCOL_TOL

    assert sum(_corner_fit(c, d, PROTOCOL_TOL)[0].iterations for c, d in CORNERS) <= 77


def test_fit_divergence_names_first_iteration():
    # At S1 = 1e-3 I, (S1 + rho I)^-1 = 833 I, so the first M update
    # overflows before any objective is scored, and so do the squares in
    # ||S2||_F.  The suite turns every warning into an error.
    for scale, match in [(1.0, "at iteration 1$"),
                         (1e-3, "^M became non-finite at iteration 1$")]:
        stats = SufficientStats(S1=scale * np.eye(3), S2=np.full((3, 3), 1e308), n=10, eta=0.1,
                                sq_increment_sum=1.0)
        with pytest.raises(DivergenceError, match=match):
            fit(stats, stats.sq_increment_sum, SolverConfig(lambda_a=0.1, lambda_l=0.1))


@pytest.mark.parametrize("lasso", [False, True])
def test_fit_is_scale_free_where_the_squares_of_s2_overflow(lasso):
    # Scaling S1, S2, the increment sum and both weights by c scales the
    # objective by c and leaves its minimizer: at c = 1e200 the squares in
    # ||S2||_F overflow, and the stopping rule's S2 floor must not.
    stats, _ = _stats_from_system(seed=6, p=3, n=40)
    c = 1e200
    scaled = SufficientStats(S1=c * stats.S1, S2=c * stats.S2, n=stats.n, eta=stats.eta,
                             sq_increment_sum=c * stats.sq_increment_sum)
    mode = MODE_PURE_LASSO if lasso else "sparse_plus_lowrank"
    lam_a, lam_l = 0.3, 0.0 if lasso else 0.4
    est = fit(stats, stats.sq_increment_sum, SolverConfig(lam_a, lam_l, mode))
    big = fit(scaled, scaled.sq_increment_sum, SolverConfig(c * lam_a, c * lam_l, mode))
    assert big.converged and big.iterations == est.iterations
    assert np.allclose(big.Ahat, est.Ahat, rtol=1e-9, atol=1e-12)
    assert np.allclose(big.Lhat, est.Lhat, rtol=1e-9, atol=1e-12)


def test_fit_mode_equivalence_without_latents():
    stats, _ = _stats_from_system(seed=8, p=4, r=0, s=2, n=4000, eta=0.05)
    lam_a = 0.05
    lam_l_big = float(np.linalg.norm(stats.S2, 2)) * 2.0
    joint = fit(stats, stats.sq_increment_sum,
                SolverConfig(lambda_a=lam_a, lambda_l=lam_l_big,
                             max_iter=20000, tol=1e-13))
    lasso = fit(stats, stats.sq_increment_sum,
                SolverConfig(lambda_a=lam_a, mode=MODE_PURE_LASSO,
                             max_iter=20000, tol=1e-13))
    assert np.all(joint.Lhat == 0)
    assert np.linalg.norm(joint.Ahat - lasso.Ahat) < 1e-6


def test_fit_scaling_covariance():
    stats, traj = _stats_from_system(seed=12, p=3, r=0, s=1, n=200)
    scale = 2.5
    scaled = sufficient_stats(Trajectory(x=traj.x * scale, eta=traj.eta))
    lam_a, lam_l = 0.08, 0.15
    base = fit(stats, stats.sq_increment_sum,
               SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=20000, tol=1e-13))
    rescaled = fit(scaled, scaled.sq_increment_sum,
                   SolverConfig(lambda_a=lam_a * scale**2, lambda_l=lam_l * scale**2,
                                max_iter=20000, tol=1e-13))
    assert np.linalg.norm(base.Ahat - rescaled.Ahat) < 1e-5
    assert np.linalg.norm(base.Lhat - rescaled.Lhat) < 1e-5


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, mode="ridge"),
     "unknown solver mode 'ridge'"),
    (lambda: fit(SufficientStats(S1=np.eye(2), S2=np.eye(3), n=4, eta=0.1, sq_increment_sum=1.0),
                 1.0, SolverConfig(lambda_a=1.0, lambda_l=1.0)),
     "S2 must be 2 x 2, got shape (3, 3)"),
    # 2.5 and True were accepted; '5' ended in a bare TypeError.
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=2.5),
     "max_iter must be an integer, got 2.5"),
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=True),
     "max_iter must be an integer, got True"),
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter="5"),
     "max_iter must be an integer, got '5'"),
    # Accepted, and the first prox_l1 ended in a bare OverflowError.
    (lambda: SolverConfig(lambda_a=10**400, lambda_l=1.0),
     "lambda_a must be finite and positive, got an integer beyond the float range"),
], ids=["mode", "S1-S2", "max-iter-float", "max-iter-bool", "max-iter-str",
        "lambda-a-int-beyond-float"])
def test_solver_checks_name_the_bad_input(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


def test_solver_config_takes_a_numpy_integer_max_iter():
    config = SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=np.int64(7))
    assert config == SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=7)
    assert type(config.max_iter) is int


def test_solver_config_validation():
    with pytest.raises(ConstructionError, match="^lambda_a must be finite and positive, got 0.0$"):
        SolverConfig(lambda_a=0.0, lambda_l=1.0)
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=1.0, lambda_l=0.0)  # required outside lasso mode
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=0)
    with pytest.raises(ConstructionError, match="^tol must be finite and positive, got 0.0$"):
        SolverConfig(lambda_a=1.0, lambda_l=1.0, tol=0.0)
    SolverConfig(lambda_a=1.0, mode=MODE_PURE_LASSO)  # lambda_l optional here


@pytest.mark.parametrize("field", ["lambda_a", "lambda_l", "tol"])
@pytest.mark.parametrize("value, message", [
    pytest.param(float("nan"), "must be finite", id="nan"),
    pytest.param(float("inf"), "must be finite", id="inf"),
    # True was taken as 1.0 and '0.1' ended in a bare TypeError.
    pytest.param(True, "must be a real number, got True$", id="bool"),
    pytest.param("0.1", "must be a real number, got '0\\.1'$", id="str"),
])
def test_solver_config_rejects_non_finite_numbers(field, value, message):
    kwargs = {"lambda_a": 1.0, "lambda_l": 1.0, "tol": 1e-8, field: value}
    with pytest.raises(ConstructionError, match=f"^{field} {message}"):
        SolverConfig(**kwargs)


# ------------------------------------------- statistical recovery runs


def test_fit_illustrative_signed_recovery():
    # Structured system p=16, r=2: the sparse block is -I (minimum
    # magnitude 1), the latent effect is dense low-rank.  With constants
    # chosen by chunked cross-validation on a long exact-mode run
    # (T = 800, far into the recovered regime), the fitted sparse block
    # must reproduce the signed support of -I exactly.  The constant grid
    # is calibrated to the support-recovery range of the weight scale:
    # one-step prediction error alone is flat to within its noise floor
    # across c, so the grid spans c where selection is sign-consistent and
    # CV resolves the latent weight d.
    params = gen_illustrative(16, 2)
    truth = steady_state(params)
    traj = simulate_continuous(params, eta=0.1, n=8000, mode="exact", seed=2718)
    selection = block_cross_validate(
        traj, grid_c=[2.0, 3.0], grid_d=[0.3, 1.0, 3.0], chunk_count=5,
        s_ref=1, r_ref=2,
    )
    stats = sufficient_stats(traj)
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lambda_a=selection.lambda_a, lambda_l=selection.lambda_l,
                           max_iter=5000, tol=1e-10))
    report = recovery_report(est.Ahat, params.A, est.Lhat, truth.L)
    assert report.signed_match, (
        f"signed support not recovered: linf={report.linf_error:.4f}, "
        f"cv=({selection.c}, {selection.d})"
    )


def test_fit_lasso_denser_than_joint_on_latent_systems():
    # With latent series present and matched data/regularizer, the
    # latent-blind estimate must absorb the low-rank effect into many
    # spurious entries: its support is a superset in most trials and never
    # sparser, and strictly denser in the median.
    sparser_or_equal = []
    strictly_denser = []
    for seed in range(10):
        params = gen_random_system(GenSpec(p=20, r=2, s=2, seed=900 + seed))
        traj = simulate_continuous(params, eta=0.05, n=12000, mode="binned", seed=seed)
        stats = sufficient_stats(traj)
        from sparsedyn.evaluate import lambda_pair_from_constants

        lam_a, lam_l = lambda_pair_from_constants(0.6, 0.5, 20, 2, 2, 0.05, traj.n)
        joint = fit(stats, stats.sq_increment_sum,
                    SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=3000, tol=1e-9))
        lasso = fit(stats, stats.sq_increment_sum,
                    SolverConfig(lambda_a=lam_a, mode=MODE_PURE_LASSO,
                                 max_iter=3000, tol=1e-9))
        nnz_joint = int(np.count_nonzero(joint.Ahat))
        nnz_lasso = int(np.count_nonzero(lasso.Ahat))
        sparser_or_equal.append(nnz_joint <= nnz_lasso)
        strictly_denser.append(nnz_lasso > nnz_joint)
    assert np.median(sparser_or_equal) == 1.0
    assert np.median(strictly_denser) == 1.0


# Each value below used to be coerced: "false" read as True, 2.7 as 2,
# True as 1, a number in a string as the number, and a 1-D or mismatched
# Ahat/Lhat, or one holding NaN, loaded as it was, as did -1 iterations.
# A number for objective_trace ended in "'int' object is not iterable".
@pytest.mark.parametrize("field, value", [
    ("converged", "false"), ("converged", 1), ("iterations", 2.7), ("iterations", True),
    ("Ahat", [0.0]), ("Ahat", [[0.0, 1.0]]), ("Lhat", [[0.0]]),
    ("objective_trace", ["1", True]), ("objective_trace", [1.0, True]),
    ("objective_trace", 3), ("Lhat", [[True, 0.0], [0.0, 0.0]]),
    ("Ahat", [["-1", "0"], ["0", "-1"]]), ("Ahat", [[-1.0, 0.0], [0.0, -10**400]]),
    ("Ahat", [[float("nan"), 0.0], [0.0, -1.0]]), ("iterations", -1),
], ids=["converged-string", "converged-int", "iterations-float", "iterations-bool", "Ahat-1d",
        "Ahat-not-square", "Lhat-other-shape", "objective_trace-string", "objective_trace-bool",
        "objective_trace-number", "Lhat-bool", "Ahat-strings", "Ahat-int-beyond-float",
        "Ahat-NaN", "iterations-negative"])
def test_estimate_json_rejects_a_field_of_the_wrong_type_or_shape(field, value):
    est = Estimate(Ahat=-np.eye(2), Lhat=np.zeros((2, 2)), objective_trace=[1.0, 0.5],
                   iterations=1, converged=True)
    doc = json.loads(estimate_to_json(est, {"seed": 1}))
    # Keys the reader does not use are ignored, so files that still carry
    # the old step_used key load.
    restored, config = estimate_from_json(json.dumps({**doc, "step_used": 0.25}))
    assert config == {"seed": 1}
    assert np.array_equal(restored.Lhat, est.Lhat) and restored.iterations == 1
    doc[field] = value
    with pytest.raises(DataError, match=f"^estimate JSON missing or malformed field: .*'{field}'"):
        estimate_from_json(json.dumps(doc))


# A list used to end in "list indices must be integers or slices, not str".
@pytest.mark.parametrize("text", ["[1]", "null", "3", '"Ahat"'])
def test_estimate_json_must_be_an_object(text):
    with pytest.raises(DataError, match="^invalid estimate JSON: the document is not a JSON object$"):
        estimate_from_json(text)

