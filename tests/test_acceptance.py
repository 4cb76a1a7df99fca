"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks the structured example against stationary closed forms
that the test derives itself and proves by the Lyapunov residual.
Criterion 5 is red at its large-Theta endpoint: the random ensemble it
runs on does not meet the recovery theorem's hypotheses, so signed-support
recovery fails there even in the infinite-data limit.  Its docstring gives
the measured cause; the test itself is kept as specified.  Genuine
signed-support recovery is demonstrated in test_solver.py.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sparsedyn.cli import run
from sparsedyn.evaluate import (
    block_cross_validate,
    lambda_pair_from_constants,
    phase_transition,
    recovery_report,
)
from sparsedyn.generate import GenSpec, gen_illustrative, gen_random_system
from sparsedyn.linalg import solve_lyapunov_continuous, solve_lyapunov_discrete
from sparsedyn.model import (
    identifiability_alpha,
    incoherence_mu,
    lasso_incoherence_theta,
    population_mle,
    row_supports,
    stability_margin,
    steady_state,
    support_size,
    theorem_constants,
)
from sparsedyn.rng import CounterRng, derive_seed
from sparsedyn.simulate import simulate_continuous, simulate_discrete, sufficient_stats
from sparsedyn.solver import (
    MODE_PURE_LASSO,
    SolverConfig,
    fit,
    smooth_gradient,
    objective,
)

from reference import (
    central_difference_gradient,
    kron_lyapunov_continuous,
    kron_lyapunov_discrete,
    solver_subgradient_reference,
)

MASTER_SEED = 20260810

# Criterion 5 configuration (shared with criterion 7).
PHASE_P, PHASE_R, PHASE_S = 40, 2, 3
PHASE_ETAS = (0.05, 0.1)
PHASE_THETAS = (0.25, 1.0, 4.0, 16.0)
PHASE_TRIALS = 20
PHASE_RULE = (0.4, 0.5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _n_for_theta(theta: float, eta: float, p: int, r: int, s: int) -> int:
    return max(1, round(theta * s**3 * math.log((s + 2 * r) * p + r * r) / eta))


# --------------------------------------------------------------------- 1


def test_criterion_1_illustrative_golden_suite():
    """Golden closed forms for the structured example (p=16, r=2).

    The model is the one ``gen_illustrative`` documents: drift
    ``M = [[-I, B], [0, -I]]`` (``A = -I``, ``C = 0``, ``D = -I``, one 1 per
    row of ``B``), isotropic unit noise, so the joint stationary covariance
    ``Sigma = [[Q, R^T], [R, P]]`` solves ``M Sigma + Sigma M^T + I = 0``.
    Block by block:

    * latent block: ``-2P + I = 0``, so ``P = I/2``;
    * cross block: ``-2R^T + B P = 0``, so ``R = B^T/4``;
    * observed block: ``-2Q + B R + R^T B^T + I = 0``, so
      ``Q = I/2 + BB^T/4``;
    * ``BB^T = (p/r) E`` with ``E`` the projector onto the group
      indicators, so ``L = B R Q^{-1} = (p/r)/(2 + p/r) E
      = r/(p+2r) BB^T``;
    * every row of ``A`` has support ``{k}``; ``Q_kk = 3/4`` and the
      largest off-support entry is ``1/4``, so ``theta = 1 - 1/3 = 2/3``;
    * the symmetric part ``[[-I, B/2], [B^T/2, -I]]`` has top eigenvalue
      ``-1 + sigma_max(B)/2 = -1 + sqrt(p/r)/2``, so
      ``D = 1 - sqrt(p/r)/2`` (about -0.414 here).

    Since ``M`` is Hurwitz the Lyapunov solution is unique, so the suite
    first checks that the closed-form ``Sigma`` solves the equation
    (computed here, not by ``steady_state``), then compares the package
    against it.

    The targets this suite asserted before were ``Q = (I+BB^T)/2``,
    ``R = B^T/2``, ``L = r/(p+r) BB^T``, ``theta = 1/2`` and ``D = 2``.
    The first four are the stationary forms of a different model, one
    whose latent noise has variance 2 (``P = I``): with unit noise their
    joint covariance leaves a Lyapunov residual of ``sqrt(2)`` in
    Frobenius norm, and the package has no latent-noise-2 model.  ``D = 2``
    is unreachable for any system with ``A = -I``: the symmetric part has
    diagonal -1, so the margin is at most 1.
    """
    start = time.perf_counter()
    p, r = 16, 2
    params = gen_illustrative(p, r)
    bbt = params.B @ params.B.T
    q_form = 0.5 * np.eye(p) + 0.25 * bbt
    r_form = 0.25 * params.B.T
    p_form = 0.5 * np.eye(r)
    drift = params.joint()
    sigma = np.block([[q_form, r_form.T], [r_form, p_form]])
    residual = np.linalg.norm(drift @ sigma + sigma @ drift.T + np.eye(p + r))
    ss = steady_state(params)

    checks = {}
    checks["closed forms solve the Lyapunov equation (1e-12 Frob)"] = residual <= 1e-12
    checks["Q = I/2 + BB^T/4 (1e-9 Frob)"] = np.linalg.norm(ss.Q - q_form) <= 1e-9
    checks["R = B^T/4 (1e-9 Frob)"] = np.linalg.norm(ss.R - r_form) <= 1e-9
    checks["L = r/(p+2r) BB^T (1e-9 Frob)"] = (
        np.linalg.norm(ss.L - (r / (p + 2 * r)) * bbt) <= 1e-9
    )
    mu = incoherence_mu(ss.L)
    checks["mu = r (1e-12)"] = abs(mu - r) <= 1e-12
    theta = lasso_incoherence_theta(ss.Q, row_supports(params.A))
    checks["theta = 2/3 (1e-12)"] = abs(theta - 2.0 / 3.0) <= 1e-12
    margin = stability_margin(params)
    checks["D = 1 - sqrt(p/r)/2 (1e-12)"] = (
        abs(margin - (1.0 - math.sqrt(p / r) / 2.0)) <= 1e-12
    )
    alpha = identifiability_alpha(mu, r, p)
    checks["alpha = 3r/sqrt(p) (1e-12)"] = abs(alpha - 3 * r / math.sqrt(p)) <= 1e-12
    elapsed = time.perf_counter() - start
    checks["runtime < 1 s"] = elapsed < 1.0

    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed
    _report(1, ok, f"golden suite: {len(checks) - len(failed)}/{len(checks)} items "
                   f"(Lyapunov residual {residual:.2g}, computed theta={theta:.6g}, "
                   f"D={margin:.6g}, mu={mu:.6g}; {elapsed:.2f} s)")
    assert ok, f"golden targets failed: {failed}"


# --------------------------------------------------------------------- 2


def test_criterion_2_lyapunov_oracle_equivalence():
    """Both Lyapunov solvers match Kronecker vectorization on 50 systems."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    shapes = [(4, 2, 1), (6, 2, 2), (8, 4, 2), (10, 2, 3), (6, 0, 2)]
    for idx in range(50):
        p, r, s = shapes[idx % len(shapes)]
        params = gen_random_system(GenSpec(p=p, r=r, s=s, seed=derive_seed(11, idx)))
        joint = params.joint()
        q_cont = solve_lyapunov_continuous(joint)
        oracle_cont = kron_lyapunov_continuous(joint)
        rel_c = np.linalg.norm(q_cont - oracle_cont) / np.linalg.norm(oracle_cont)
        q_disc = solve_lyapunov_discrete(joint, eta=0.02)
        oracle_disc = kron_lyapunov_discrete(joint, eta=0.02)
        rel_d = np.linalg.norm(q_disc - oracle_disc) / np.linalg.norm(oracle_disc)
        worst = max(worst, rel_c, rel_d)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"{count} systems, worst relative error {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# --------------------------------------------------------------------- 3


def test_criterion_3_latent_bias_empirical_check():
    """Row-wise least squares on simulated data matches A + B R Q^{-1}."""
    start = time.perf_counter()
    params = gen_random_system(GenSpec(p=6, r=2, s=2, seed=314, eta=0.05))
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
    sigma2 = np.mean(resid**2, axis=0)
    se = np.sqrt(np.outer(sigma2, s1_inv_diag) / n)
    frac = float(np.mean(np.abs(mhat - target) <= 3.0 * se))
    elapsed = time.perf_counter() - start
    ok = frac >= 0.95 and elapsed < 30.0
    _report(3, ok, f"{frac:.1%} of entries within 3 SE, {elapsed:.2f} s")
    assert frac >= 0.95
    assert elapsed < 30.0


# --------------------------------------------------------------------- 4


def test_criterion_4_solver_correctness():
    """Gradient vs finite differences, monotone traces, subgradient value."""
    start = time.perf_counter()
    details = []

    # (a) gradient agreement at 1e-5 relative for p in {2, 4, 8}
    worst_rel = 0.0
    for p in (2, 4, 8):
        params = gen_random_system(GenSpec(p=p, r=0, s=1, seed=derive_seed(4, p)))
        traj = simulate_continuous(params, eta=0.1, n=60, mode="exact", seed=p)
        stats = sufficient_stats(traj)
        m = CounterRng(100 + p).normal_matrix(p, p)

        def smooth_value(mm, stats=stats, p=p):
            return objective(mm, np.zeros((p, p)), stats, stats.sq_increment_sum, 0.0, 0.0)

        g = smooth_gradient(m, stats)
        fd = central_difference_gradient(smooth_value, m, h=1e-6)
        worst_rel = max(worst_rel, float(np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1.0))))
    grad_ok = worst_rel < 1e-5
    details.append(f"grad rel err {worst_rel:.2e}")

    # (b) objective trace non-increasing with restart on every instance
    monotone = True
    for seed in range(8):
        params = gen_random_system(GenSpec(p=5, r=2, s=1, seed=derive_seed(44, seed)))
        traj = simulate_continuous(params, eta=0.1, n=150, mode="binned", seed=seed)
        stats = sufficient_stats(traj)
        lam = 0.02 + 0.05 * (seed % 4)
        est = fit(stats, stats.sq_increment_sum,
                  SolverConfig(lambda_a=lam, lambda_l=2 * lam, max_iter=400, tol=1e-12))
        trace = np.array(est.objective_trace)
        if not np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))):
            monotone = False
    details.append(f"monotone traces {'ok' if monotone else 'VIOLATED'}")

    # (c) p=2 objective value vs projected-subgradient reference
    params = gen_random_system(GenSpec(p=2, r=0, s=1, seed=6))
    traj = simulate_continuous(params, eta=0.1, n=30, mode="exact", seed=7)
    stats = sufficient_stats(traj)
    gaps = []
    for lasso in (False, True):
        config = SolverConfig(lambda_a=0.3, lambda_l=0.0 if lasso else 0.4,
                              mode=MODE_PURE_LASSO if lasso else "sparse_plus_lowrank",
                              max_iter=20000, tol=1e-12)
        est = fit(stats, stats.sq_increment_sum, config)
        ref = solver_subgradient_reference(
            stats.S1, stats.S2, stats.eta, stats.n, stats.sq_increment_sum,
            0.3, 0.4, iters=100000, lasso=lasso,
        )
        gaps.append(abs(est.objective_trace[-1] - ref))
    value_ok = max(gaps) < 1e-3
    details.append(f"subgradient gap {max(gaps):.2e}")

    elapsed = time.perf_counter() - start
    ok = grad_ok and monotone and value_ok and elapsed < 30.0
    _report(4, ok, ", ".join(details) + f", {elapsed:.2f} s")
    assert grad_ok and monotone and value_ok
    assert elapsed < 30.0


# ----------------------------------------------------------------- 5 & 7


@pytest.fixture(scope="module")
def phase_sweep_results():
    """Criterion-5 sweep: official phase_transition curves per eta, plus a
    per-trial detail loop with identical seed derivation for criterion 7."""
    results = {}
    details = []
    for eta in PHASE_ETAS:
        master = derive_seed(MASTER_SEED, round(eta * 1000))
        sweep = [{"eta": eta, "n": _n_for_theta(th, eta, PHASE_P, PHASE_R, PHASE_S)}
                 for th in PHASE_THETAS]
        base = GenSpec(p=PHASE_P, r=PHASE_R, s=PHASE_S, seed=0, diag_margin=1.0)
        results[eta] = phase_transition(
            base, sweep, trials=PHASE_TRIALS, lambda_rule=PHASE_RULE,
            master_seed=master,
        )
        # mirror the protocol trial by trial to retain per-trial errors
        for g, point in enumerate(sweep):
            n = point["n"]
            lam_a, lam_l = lambda_pair_from_constants(
                PHASE_RULE[0], PHASE_RULE[1], PHASE_P, PHASE_R, PHASE_S, eta, n
            )
            config = SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=2000, tol=1e-7)
            for t in range(PHASE_TRIALS):
                seed = derive_seed(master, g, t)
                system = gen_random_system(
                    replace(base, seed=seed, eta=0.0)
                )
                truth = steady_state(system)
                traj = simulate_continuous(system, eta=eta, n=n, mode="binned",
                                           seed=derive_seed(seed, 1))
                stats = sufficient_stats(traj)
                est = fit(stats, stats.sq_increment_sum, config)
                report = recovery_report(est.Ahat, system.A, est.Lhat, truth.L)
                s_star = support_size(system.A)
                nu, _ = theorem_constants(
                    identifiability_alpha(incoherence_mu(truth.L), system.r, system.p),
                    lasso_incoherence_theta(truth.Q, row_supports(system.A)),
                    truth.Cmin, truth.Dmax, s_star, lam_a,
                    float(np.linalg.norm(truth.L, 2)),
                )
                details.append({
                    "eta": eta, "n": n, "signed": report.signed_match,
                    "linf": report.linf_error, "bound": nu * lam_a,
                })
    return results, details


def test_criterion_5_phase_transition(phase_sweep_results):
    """Desk-scale recovery phase transition.

    Red at the large-Theta endpoint: 0/20 at Theta = 16 for both eta.  The
    mirror, small-Theta and eta-collapse sub-checks pass.  Signed-support
    recovery needs every nonzero of ``A`` to exceed the estimator's l-inf
    error (Wainwright 2009, IEEE TIT 55(5)), and this ensemble does not meet
    the recovery theorem's hypotheses.  Measured on the 20 systems at
    Theta = 16, eta = 0.05:

    * each fit misses 20-38 of the 120 true off-diagonal entries, and the
      largest missed |A_ij| is up to 0.68, so the misses are not only tiny
      entries; false positives are 0-1 and rank(Lhat) is 12-14, not 2;
    * the smallest |A_ij| per system is 0.0008-0.034 (i.i.d. N(0,1)
      values), and alpha = 2.7-7.4, so assumption A2 (alpha < 1) fails;
    * more data does not help: the n -> infinity limit of the sampled
      (binned) chain's least-squares drift is off A + L by 0.43-0.79
      off the diagonal (0.95-1.89 at eta = 0.1); and even on exact
      continuous-limit statistics (S1 = Q, S2 = (A+L)Q), no
      (lambda_A, lambda_L/lambda_A) in {1e-3, 1e-2, 3e-2, 0.1} x
      {0.5, 1, 3.16, 10, 30} recovers the signed support of 18 of the 20
      systems.

    A green endpoint needs an ensemble that meets the hypotheses
    (magnitudes bounded away from zero, alpha < 1, small eta*||M||), which
    ``gen_random_system`` cannot draw.  The configuration and assertions
    are kept as specified.
    """
    results, details = phase_sweep_results
    for eta in PHASE_ETAS:
        for row in results[eta].rows:
            print(f"ACCEPTANCE 5: curve eta={row.eta} theta={row.theta:.3f} "
                  f"n={row.n} success={row.successes}/{row.trials}")

    # per-trial mirror agrees with the official operation
    for eta in PHASE_ETAS:
        for g, row in enumerate(results[eta].rows):
            mirrored = sum(
                1 for d in details
                if d["eta"] == eta and d["n"] == row.n and d["signed"]
            )
            assert mirrored == row.successes

    small_ok = all(results[eta].rows[0].success_rate <= 0.1 for eta in PHASE_ETAS)

    # eta collapse: per Theta point, rates agree within the sum of
    # binomial 95% half-widths (shrunken rate estimate keeps widths > 0)
    def half_width(successes: int, trials: int) -> float:
        p_tilde = (successes + 0.5) / (trials + 1.0)
        return 1.96 * math.sqrt(p_tilde * (1 - p_tilde) / trials)

    collapse_ok = True
    rows_a = results[PHASE_ETAS[0]].rows
    rows_b = results[PHASE_ETAS[1]].rows
    for ra, rb in zip(rows_a, rows_b):
        band = half_width(ra.successes, ra.trials) + half_width(rb.successes, rb.trials)
        if abs(ra.success_rate - rb.success_rate) > band:
            collapse_ok = False

    large_rates = [results[eta].rows[-1].success_rate for eta in PHASE_ETAS]
    large_ok = all(rate >= 0.9 for rate in large_rates)

    _report(5, small_ok and collapse_ok and large_ok,
            f"small-Theta rate <= 0.1: {small_ok}; eta-collapse in bands: "
            f"{collapse_ok}; large-Theta rate >= 0.9: {large_ok} "
            f"(observed {large_rates})")
    assert small_ok, "success rate at the smallest Theta exceeds 0.1"
    assert collapse_ok, "eta curves disagree beyond binomial bands"
    assert large_ok, (
        "large-Theta success rate below 0.9 (the ensemble fails the theorem's "
        "hypotheses: alpha > 1, near-zero |A_ij|, and a sampled-chain bias "
        f"that more data cannot remove; observed rates {large_rates})"
    )


def test_criterion_7_error_bound_on_recovered_trials(phase_sweep_results):
    """Every criterion-5 trial with signed recovery obeys |Ahat-A*|_inf <=
    nu * lambda_A.  Vacuous when no trial achieves signed recovery."""
    _, details = phase_sweep_results
    recovered = [d for d in details if d["signed"]]
    violations = [d for d in recovered if d["linf"] > d["bound"]]
    ok = not violations
    note = (f"{len(recovered)} recovered trials, {len(violations)} bound violations"
            + ("" if recovered else " (vacuous: no trial achieved signed recovery)"))
    _report(7, ok, note)
    assert ok


# --------------------------------------------------------------------- 6


def test_criterion_6_latent_vs_lasso_sparsity():
    """Joint estimate at most half as dense as the latent-blind baseline.

    Run at a latent-dominant configuration (p=24, r=8, two latent loads
    per row, slow latents): at p=40, r=2 the generator's Gershgorin
    stabilization makes the latent stationary variance ~1/34 and the
    latent-effect matrix is below the estimation noise floor, so both
    estimators behave identically there.  Constants per method by chunked
    cross-validation, as in the price-data protocol.
    """
    start = time.perf_counter()
    p, r, s, eta = 24, 8, 2, 0.05
    n = _n_for_theta(8.0, eta, p, r, s)
    ratios = []
    for trial in range(10):
        seed = derive_seed(66, trial)
        system = gen_random_system(GenSpec(p=p, r=r, s=s, seed=seed, diag_margin=0.3))
        traj = simulate_continuous(system, eta=eta, n=n, mode="binned",
                                   seed=derive_seed(seed, 2))
        stats = sufficient_stats(traj)
        sel_joint = block_cross_validate(
            traj, [0.4, 0.8, 1.6], [0.25, 0.5, 1.0], 5,
            s_ref=s, r_ref=r, max_iter=600, tol=1e-6,
        )
        sel_lasso = block_cross_validate(
            traj, [0.4, 0.8, 1.6], [1.0], 5, mode=MODE_PURE_LASSO,
            s_ref=s, r_ref=r, max_iter=600, tol=1e-6,
        )
        est_joint = fit(stats, stats.sq_increment_sum,
                        SolverConfig(lambda_a=sel_joint.lambda_a,
                                     lambda_l=sel_joint.lambda_l,
                                     max_iter=2000, tol=1e-7))
        est_lasso = fit(stats, stats.sq_increment_sum,
                        SolverConfig(lambda_a=sel_lasso.lambda_a,
                                     mode=MODE_PURE_LASSO,
                                     max_iter=2000, tol=1e-7))
        dens_joint = np.count_nonzero(est_joint.Ahat) / p**2
        dens_lasso = np.count_nonzero(est_lasso.Ahat) / p**2
        ratios.append(dens_joint / dens_lasso if dens_lasso else np.inf)
    median_ratio = float(np.median(ratios))
    elapsed = time.perf_counter() - start
    ok = median_ratio <= 0.5 and elapsed < 600.0
    _report(6, ok, f"median sparsity ratio {median_ratio:.3f} over 10 systems, "
                   f"{elapsed:.1f} s")
    assert median_ratio <= 0.5
    assert elapsed < 600.0


# --------------------------------------------------------------------- 8


def test_criterion_8_end_to_end_pipeline(tmp_path):
    """gen -> simulate -> cv -> fit -> predict(25) with byte-stable artifacts."""
    start = time.perf_counter()
    outdir = tmp_path / "pipeline"

    def pipeline():
        outdir.mkdir(exist_ok=True)
        sys_path = outdir / "system.json"
        traj_path = outdir / "traj.csv"
        cv_path = outdir / "cv.json"
        est_path = outdir / "estimate.json"
        forecast_path = outdir / "forecast.csv"
        assert run(["gen", "--p", "10", "--r", "2", "--s", "2", "--seed", "77",
                    "--out", str(sys_path)]) == 0
        assert run(["simulate", "--system", str(sys_path), "--mode", "binned",
                    "--n", "3000", "--eta", "0.05", "--seed", "78",
                    "--out", str(traj_path)]) == 0
        assert run(["cv", "--data", str(traj_path),
                    "--grid-c", "0.4", "0.8", "--grid-d", "0.5", "1.0",
                    "--chunks", "5", "--out", str(cv_path)]) == 0
        cv = json.loads(cv_path.read_text())
        assert run(["fit", "--data", str(traj_path),
                    "--lambda-a", str(cv["lambda_a"]),
                    "--lambda-l", str(cv["lambda_l"]),
                    "--graph-out", str(outdir / "graph.dot"),
                    "--edges-out", str(outdir / "edges.csv"),
                    "--out", str(est_path)]) == 0
        assert run(["predict", "--data", str(traj_path),
                    "--estimate", str(est_path),
                    "--horizon", "25", "--holdout", "25",
                    "--out", str(forecast_path)]) == 0
        return [sys_path, traj_path, cv_path, est_path, forecast_path,
                outdir / "graph.dot", outdir / "edges.csv"]

    files = pipeline()
    snapshot = {f: f.read_bytes() for f in files}
    pipeline()
    stable = all(f.read_bytes() == snapshot[f] for f in files)
    forecast = (outdir / "forecast.csv").read_text()
    mse_lines = [l for l in forecast.splitlines() if l.startswith("# mse:")]
    mse_ok = len(mse_lines) == 1 and np.isfinite(float(mse_lines[0].split(":")[1]))
    elapsed = time.perf_counter() - start
    ok = stable and mse_ok and elapsed < 120.0
    _report(8, ok, f"7 artifacts byte-stable: {stable}, finite mse: {mse_ok}, "
                   f"{elapsed:.1f} s")
    assert stable and mse_ok
    assert elapsed < 120.0
