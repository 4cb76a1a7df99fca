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
    # FISTA must not be worse, and the subgradient best must be close.
    assert final <= ref + 1e-9
    assert abs(final - ref) < 1e-3


def test_fit_trace_non_increasing_with_restart():
    for seed in range(6):
        stats, _ = _stats_from_system(seed=30 + seed, p=4, r=2, s=1, n=80)
        lam = 0.05 + 0.1 * (seed % 3)
        est = fit(stats, stats.sq_increment_sum,
                  SolverConfig(lambda_a=lam, lambda_l=2 * lam, max_iter=500, tol=1e-10))
        trace = np.array(est.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_fit_one_factorization_per_prox_step(monkeypatch):
    # Scoring an iterate reuses the prox step's singular values, so every
    # factorization in a fit is the one inside prox_nuclear (one per
    # iteration, plus one per restart).  Here tau is far above 1e-4 sigma_1,
    # so each is the Gram eigendecomposition and no SVD runs at all.
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


def test_fit_step_is_exact_on_near_degenerate_s1():
    # Top two eigenvalues 1 and 0.999: a power iteration stalls short of
    # lambda_max here, which would make the step larger than 1/L.
    rng = CounterRng(17)
    q, _ = np.linalg.qr(rng.normal_matrix(5, 5))
    s1 = (q * np.array([1.0, 0.999, 0.5, 0.3, 0.1])) @ q.T
    s1 = 0.5 * (s1 + s1.T)
    stats = SufficientStats(S1=s1, S2=0.3 * rng.normal_matrix(5, 5), n=100, eta=0.1,
                            sq_increment_sum=10.0)
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lambda_a=0.01, lambda_l=0.02, max_iter=5))
    assert est.step_used == 1.0 / (2.0 * np.linalg.eigvalsh(s1)[-1])


def test_fit_fixed_point_after_convergence():
    # The stopping rule bounds the one-step movement through the descent
    # lemma: ||next - current||_F <= sqrt(2 step |delta f|) with
    # |delta f| <= tol * max(1, |f|).
    from sparsedyn.linalg import prox_l1, prox_nuclear

    stats, _ = _stats_from_system(seed=41, p=4, r=2, s=1, n=80)
    tol = 1e-10
    config = SolverConfig(lambda_a=0.05, lambda_l=0.1, max_iter=20000, tol=tol)
    est = fit(stats, stats.sq_increment_sum, config)
    assert est.converged
    step = est.step_used
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
    step = est.step_used
    g = smooth_gradient(est.Ahat + est.Lhat, stats)
    a_next = prox_l1(est.Ahat - step * g, step * lam_a)
    l_next, _ = prox_nuclear(est.Lhat - step * g, step * lam_l)
    move = np.linalg.norm(a_next - est.Ahat) + np.linalg.norm(l_next - est.Lhat)
    assert move < 10 * config.tol


def test_fit_divergence_names_first_iteration():
    stats = SufficientStats(S1=np.eye(3), S2=np.full((3, 3), 1e308), n=10, eta=0.1,
                            sq_increment_sum=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="at iteration 1$"):
            fit(stats, stats.sq_increment_sum, SolverConfig(lambda_a=0.1, lambda_l=0.1))


def test_fit_stops_when_a_plain_step_makes_no_progress(monkeypatch):
    # tol = 1e-300 never fires on a moving objective, so the fit ends only
    # when a momentum step overshoots and the plain step from the last
    # accepted iterate cannot lower the objective either: the trace ends
    # in one flat step.  Three overshoots cost one extra prox step each.
    import sparsedyn.solver as solver_module

    calls = {"prox": 0}
    real_prox = solver_module.prox_nuclear

    def counting_prox(*args, **kwargs):
        calls["prox"] += 1
        return real_prox(*args, **kwargs)

    monkeypatch.setattr(solver_module, "prox_nuclear", counting_prox)
    params = gen_random_system(GenSpec(p=10, r=2, s=2, seed=4))
    stats = sufficient_stats(simulate_continuous(params, eta=0.05, n=2000, seed=5))
    est = fit(stats, stats.sq_increment_sum,
              SolverConfig(lambda_a=0.05, lambda_l=0.2, tol=1e-300, max_iter=20000))
    assert (est.iterations, est.converged, len(est.objective_trace)) == (49, True, 50)
    assert calls["prox"] == 52
    assert [v.hex() for v in est.objective_trace[:2]] == [
        "0x1.7eef99b896205p+6", "0x1.738569d110a2fp+6"]
    assert [v.hex() for v in est.objective_trace[-3:]] == [
        "0x1.6ab12f460a09ep+6", "0x1.6ab12f460a09cp+6", "0x1.6ab12f460a09cp+6"]
    assert np.count_nonzero(est.Ahat) == 41 and np.all(est.Lhat == 0)


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
     "S1/S2 shape mismatch"),
    # 2.5 and True were accepted; '5' ended in a bare TypeError.
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=2.5),
     "max_iter must be an integer, got 2.5"),
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=True),
     "max_iter must be an integer, got True"),
    (lambda: SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter="5"),
     "max_iter must be an integer, got '5'"),
], ids=["mode", "S1-S2", "max-iter-float", "max-iter-bool", "max-iter-str"])
def test_solver_checks_name_the_bad_input(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


def test_solver_config_takes_a_numpy_integer_max_iter():
    config = SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=np.int64(7))
    assert config == SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=7)
    assert type(config.max_iter) is int


def test_solver_config_validation():
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=0.0, lambda_l=1.0)
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=1.0, lambda_l=0.0)  # required outside lasso mode
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=1.0, lambda_l=1.0, max_iter=0)
    with pytest.raises(ConstructionError):
        SolverConfig(lambda_a=1.0, lambda_l=1.0, tol=0.0)
    SolverConfig(lambda_a=1.0, mode=MODE_PURE_LASSO)  # lambda_l optional here


@pytest.mark.parametrize("field", ["lambda_a", "lambda_l", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_numbers(field, value):
    kwargs = {"lambda_a": 1.0, "lambda_l": 1.0, "tol": 1e-8, field: value}
    with pytest.raises(ConstructionError, match=f"^{field} must be finite"):
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
# Ahat/Lhat, or one holding NaN, loaded as it was.
@pytest.mark.parametrize("field, value", [
    ("converged", "false"), ("converged", 1), ("iterations", 2.7), ("iterations", True),
    ("Ahat", [0.0]), ("Ahat", [[0.0, 1.0]]), ("Lhat", [[0.0]]),
    ("step_used", "0.25"), ("step_used", True), ("objective_trace", ["1", True]),
    ("objective_trace", [1.0, True]), ("Lhat", [[True, 0.0], [0.0, 0.0]]),
    ("Ahat", [["-1", "0"], ["0", "-1"]]), ("Ahat", [[-1.0, 0.0], [0.0, -10**400]]),
    ("Ahat", [[float("nan"), 0.0], [0.0, -1.0]]), ("step_used", float("inf")),
], ids=["converged-string", "converged-int", "iterations-float", "iterations-bool", "Ahat-1d",
        "Ahat-not-square", "Lhat-other-shape", "step_used-string", "step_used-bool",
        "objective_trace-string", "objective_trace-bool", "Lhat-bool", "Ahat-strings",
        "Ahat-int-beyond-float", "Ahat-NaN", "step_used-Infinity"])
def test_estimate_json_rejects_a_field_of_the_wrong_type_or_shape(field, value):
    est = Estimate(Ahat=-np.eye(2), Lhat=np.zeros((2, 2)), objective_trace=[1.0, 0.5],
                   iterations=1, converged=True, step_used=0.25)
    doc = json.loads(estimate_to_json(est, {"seed": 1}))
    restored, config = estimate_from_json(json.dumps(doc))
    assert config == {"seed": 1}
    assert np.array_equal(restored.Lhat, est.Lhat) and restored.iterations == 1
    doc[field] = value
    with pytest.raises(DataError, match=f"^estimate JSON missing or malformed field: .*'{field}'"):
        estimate_from_json(json.dumps(doc))
