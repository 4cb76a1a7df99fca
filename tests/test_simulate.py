import dataclasses

import numpy as np
import pytest

from sparsedyn.errors import ConstructionError, DataError, DivergenceError, StabilityError
from sparsedyn.generate import GenSpec, gen_illustrative, gen_random_system
from sparsedyn.linalg import matrix_exponential, solve_lyapunov_discrete
from sparsedyn.model import SystemParams
from sparsedyn.rng import CounterRng
from sparsedyn.simulate import (
    Trajectory,
    binned_increment_covariance,
    exact_increment_covariance,
    merge_stats,
    simulate_continuous,
    simulate_discrete,
    sufficient_stats,
    trajectory_from_csv,
    trajectory_to_csv,
)


def _scalar_params(a: float = -1.0, eta: float = 0.1) -> SystemParams:
    return SystemParams(A=np.array([[a]]), B=np.zeros((1, 0)),
                        C=np.zeros((0, 1)), D=np.zeros((0, 0)), eta=eta)


# ----------------------------------------------------------- discrete


def test_discrete_one_step_with_injected_noise():
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3, eta=0.05))
    w = CounterRng(9).normal_matrix(1, 6)
    x0 = np.arange(1.0, 5.0)
    u0 = np.array([0.5, -0.5])
    traj = simulate_discrete(params, n=1, x0=x0, u0=u0, noise=w, keep_latent=True)
    state0 = np.concatenate([x0, u0])
    expected = (np.eye(6) + params.eta * params.joint()) @ state0 + w[0]
    assert np.allclose(traj.x[1], expected[:4], atol=0, rtol=0)
    assert np.allclose(traj.u[1], expected[4:], atol=0, rtol=0)


def test_discrete_scalar_stationary_variance():
    # Stationary variance of x(i+1) = (1-eta) x(i) + w is 1/(2-eta); the
    # sample variance of an AR(1) path has standard error
    # sqrt(2 sigma^4 (1+phi^2) / ((1-phi^2) n)) by the Gaussian
    # fourth-moment (Isserlis) expansion.
    eta = 0.1
    n = 200000
    traj = simulate_discrete(_scalar_params(-1.0, eta), n=n, seed=404)
    x = traj.x[n // 10:, 0]  # drop burn-in from the zero start
    target = 1.0 / (2.0 - eta)
    phi = 1.0 - eta
    se = np.sqrt(2.0 * target**2 * (1 + phi**2) / ((1 - phi**2) * x.size))
    assert abs(x.var() - target) < 3.0 * se


def test_discrete_illustrative_covariance_matches_lyapunov():
    base = gen_illustrative(4, 2)
    params = dataclasses.replace(base, eta=0.1)
    n = 200000
    traj = simulate_discrete(params, n=n, seed=11, keep_latent=True)
    q_eta = solve_lyapunov_discrete(params.joint(), params.eta)
    states = np.hstack([traj.x, traj.u])[n // 10:]
    emp = states.T @ states / states.shape[0]
    # conservative entrywise tolerance: slowest mode phi = 1 - eta
    phi = 1.0 - params.eta
    mix = (1 + phi**2) / (1 - phi**2)
    diag = np.diag(q_eta)
    se = np.sqrt((np.outer(diag, diag) + q_eta**2) * mix / states.shape[0])
    assert np.all(np.abs(emp - q_eta) <= 5.0 * se)


def test_discrete_rejects_divergent_step():
    with pytest.raises(StabilityError):
        simulate_discrete(_scalar_params(1.0, 0.5), n=10)


def test_discrete_blowup_detection():
    # Stable spectrum but enormous non-normal transient from a large start.
    params = SystemParams(
        A=np.array([[-1.0, 1e6], [0.0, -1.0]]),
        B=np.zeros((2, 0)), C=np.zeros((0, 2)), D=np.zeros((0, 0)),
        eta=1e-7,
    )
    with pytest.raises(DivergenceError):
        simulate_discrete(params, n=200, x0=np.array([0.0, 9e9]), seed=0)


def test_discrete_requires_positive_eta():
    with pytest.raises(ConstructionError):
        simulate_discrete(_scalar_params(-1.0, 0.0), n=10)


# --------------------------------------------------------- continuous


def test_continuous_noise_free_flow_both_modes():
    params = gen_random_system(GenSpec(p=3, r=0, s=1, seed=5))
    x0 = np.array([1.0, -2.0, 0.5])
    zeros = np.zeros((1, 3))
    flow = matrix_exponential(0.3 * params.joint())
    for mode in ("exact", "binned"):
        traj = simulate_continuous(params, eta=0.3, n=1, mode=mode, x0=x0, noise=zeros)
        assert np.allclose(traj.x[1], flow @ x0, atol=1e-12)


def test_exact_increment_variance_scalar():
    # For dx = -x dt + dw the one-step increment variance is (1-e^{-2 eta})/2.
    for eta in (0.1, 0.5, 1.0):
        g = exact_increment_covariance(np.array([[-1.0]]), eta)
        assert abs(g[0, 0] - (1.0 - np.exp(-2.0 * eta)) / 2.0) < 1e-12


def test_binned_covariance_matches_riemann_sum_scalar():
    a, eta, bins = -0.7, 0.4, 7
    g = binned_increment_covariance(np.array([[a]]), eta, bins)
    expected = (eta / bins) * sum(np.exp(2 * a * eta * j / bins) for j in range(bins))
    assert abs(g[0, 0] - expected) < 1e-14


def test_binned_covariance_converges_to_exact():
    # Gap to the exact increment covariance shrinks as O(eta / K).
    joint = np.diag([-0.5, -1.5])
    eta = 0.5
    exact = exact_increment_covariance(joint, eta)
    gaps = {}
    for bins in (1, 10, 100):
        approx = binned_increment_covariance(joint, eta, bins)
        gaps[bins] = np.linalg.norm(approx - exact)
    assert gaps[1] > gaps[10] > gaps[100]
    rate_10 = gaps[1] / gaps[10]
    rate_100 = gaps[10] / gaps[100]
    assert 5.0 < rate_10 < 20.0
    assert 5.0 < rate_100 < 20.0


def test_continuous_exact_mode_ignores_bins():
    params = gen_random_system(GenSpec(p=3, r=0, s=1, seed=6))
    a = simulate_continuous(params, eta=0.2, n=50, mode="exact", bins=3, seed=1)
    b = simulate_continuous(params, eta=0.2, n=50, mode="exact", bins=50, seed=1)
    assert np.array_equal(a.x, b.x)


def test_continuous_determinism():
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=8))
    a = simulate_continuous(params, eta=0.1, n=100, mode="binned", bins=10, seed=42)
    b = simulate_continuous(params, eta=0.1, n=100, mode="binned", bins=10, seed=42)
    assert np.array_equal(a.x, b.x)
    c = simulate_continuous(params, eta=0.1, n=100, mode="binned", bins=10, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_continuous_rejects_unstable():
    params = SystemParams(A=np.array([[0.1]]), B=np.zeros((1, 0)),
                          C=np.zeros((0, 1)), D=np.zeros((0, 0)), eta=0.0)
    with pytest.raises(StabilityError):
        simulate_continuous(params, eta=0.1, n=10)


def test_continuous_stationary_covariance_consistency():
    # ||S1 - Q(eta)||_inf decreases (median over 10 seeds) through
    # n in {1e3, 1e4, 1e5}; exact mode makes Q(eta) of the sampled chain
    # the continuous-time stationary covariance.
    from sparsedyn.model import steady_state

    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=12))
    q_stat = steady_state(params).Q
    medians = []
    for n in (1000, 10000, 100000):
        errs = []
        for seed in range(10):
            traj = simulate_continuous(params, eta=0.05, n=n, mode="exact", seed=seed)
            s1 = sufficient_stats(traj).S1
            errs.append(np.max(np.abs(s1 - q_stat)))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


# ------------------------------------------------- sufficient stats


def test_sufficient_stats_single_transition():
    x0 = np.array([1.0, 2.0])
    x1 = np.array([0.5, 2.5])
    traj = Trajectory(x=np.vstack([x0, x1]), eta=0.25)
    stats = sufficient_stats(traj)
    assert np.allclose(stats.S1, np.outer(x0, x0))
    assert np.allclose(stats.S2, np.outer(x1 - x0, x0) / 0.25)
    assert abs(stats.sq_increment_sum - np.sum((x1 - x0) ** 2)) < 1e-15
    assert stats.n == 1 and stats.eta == 0.25


def test_merge_stats_equals_full_pass():
    params = gen_random_system(GenSpec(p=3, r=0, s=1, seed=2))
    traj = simulate_continuous(params, eta=0.1, n=90, mode="exact", seed=5)
    full = sufficient_stats(traj)
    chunks = [
        sufficient_stats(Trajectory(x=traj.x[0:31], eta=0.1)),
        sufficient_stats(Trajectory(x=traj.x[30:61], eta=0.1)),
        sufficient_stats(Trajectory(x=traj.x[60:91], eta=0.1)),
    ]
    merged = merge_stats(chunks)
    assert merged.n == full.n
    assert np.allclose(merged.S1, full.S1, atol=1e-12)
    assert np.allclose(merged.S2, full.S2, atol=1e-12)
    assert abs(merged.sq_increment_sum - full.sq_increment_sum) < 1e-10


def test_stationary_init_removes_burn_in():
    # The starting draw already has the stationary covariance: early-path
    # second moments over many seeds match the stationary variance, while
    # the zero start visibly undershoots.
    from sparsedyn.model import steady_state

    params = gen_random_system(GenSpec(p=2, r=0, s=1, seed=15))
    q = steady_state(params).Q
    early_stat, early_zero = [], []
    for seed in range(200):
        ts = simulate_continuous(params, eta=0.1, n=3, mode="exact", seed=seed,
                                 init="stationary")
        tz = simulate_continuous(params, eta=0.1, n=3, mode="exact", seed=seed)
        early_stat.append(np.mean(ts.x[0] ** 2))
        early_zero.append(np.mean(tz.x[0] ** 2))
    target = float(np.mean(np.diag(q)))
    assert abs(np.mean(early_stat) - target) < 0.35 * target
    assert np.mean(early_zero) == 0.0


def test_stationary_init_conflicts_with_explicit_start():
    params = gen_random_system(GenSpec(p=2, r=0, s=1, seed=15))
    with pytest.raises(ConstructionError):
        simulate_continuous(params, eta=0.1, n=4, init="stationary",
                            x0=np.zeros(2))
    with pytest.raises(ConstructionError):
        simulate_continuous(params, eta=0.1, n=4, init="bogus")


def test_discard_drops_leading_samples():
    params = gen_random_system(GenSpec(p=3, r=2, s=1, seed=16, eta=0.05))
    full = simulate_discrete(params, n=50, seed=3, keep_latent=True)
    cut = simulate_discrete(params, n=50, seed=3, keep_latent=True, discard=20)
    assert cut.n == 30
    assert np.array_equal(cut.x, full.x[20:])
    assert np.array_equal(cut.u, full.u[20:])
    with pytest.raises(ConstructionError):
        simulate_discrete(params, n=50, seed=3, discard=50)


def test_trajectory_validation():
    with pytest.raises(ConstructionError):
        Trajectory(x=np.array([[1.0, np.inf], [0.0, 0.0]]), eta=0.1)
    with pytest.raises(ConstructionError):
        Trajectory(x=np.zeros((1, 2)), eta=0.1)
    with pytest.raises(ConstructionError):
        Trajectory(x=np.zeros((3, 2)), eta=0.0)


# ----------------------------------------------------------- CSV io


def test_trajectory_csv_roundtrip():
    params = gen_random_system(GenSpec(p=3, r=2, s=1, seed=77))
    traj = simulate_continuous(params, eta=0.05, n=25, mode="binned", seed=1)
    text = trajectory_to_csv(traj, comments=["config: {}"])
    restored = trajectory_from_csv(text)
    assert restored.eta == traj.eta
    assert np.array_equal(restored.x, traj.x)
    assert text == trajectory_to_csv(traj, comments=["config: {}"])


def test_trajectory_csv_golden_bytes():
    traj = Trajectory(x=np.array([[1.0, -0.5], [0.1, 2.0], [1e-20, 3.0]]), eta=0.1)
    text = trajectory_to_csv(traj, comments=["config: {}"])
    assert text == (
        "# config: {}\n"
        "t,x1,x2\n"
        "0,1,-0.5\n"
        "0.10000000000000001,0.10000000000000001,2\n"
        "0.20000000000000001,9.9999999999999995e-21,3\n"
    )


@pytest.mark.parametrize("cell", ["", "nan", "inf", "-inf", "abc"])
def test_trajectory_csv_rejects_missing_or_non_finite_cell(cell):
    text = f"# comment\nt,x1,x2\n0,1,2\n0.5,{cell},4\n1,1,2\n"
    with pytest.raises(DataError, match="line 4: missing value in column 'x1'"):
        trajectory_from_csv(text)


@pytest.mark.parametrize("cell", ["", "nan", "inf", "abc"])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_trajectory_csv_rejects_time_that_is_not_a_finite_number(cell, row):
    times = ["0", "0.5", "1"]
    times[row] = cell
    text = "t,x1\n" + "".join(f"{t},1\n" for t in times)
    with pytest.raises(DataError, match="^time column must be a uniform, strictly increasing grid$"):
        trajectory_from_csv(text)


def test_trajectory_csv_header_without_series_names_its_line():
    with pytest.raises(DataError, match="^line 2: header must name at least one series$"):
        trajectory_from_csv("# c\nt\n0\n1\n")


def test_trajectory_csv_rejects_malformed():
    with pytest.raises(DataError):
        trajectory_from_csv("t,x1\n0.0,1.0\n0.1\n")
    with pytest.raises(DataError):
        trajectory_from_csv("t,x1\n0.0,1.0\n0.3,2.0\n0.4,3.0\n")  # non-uniform
    with pytest.raises(DataError):
        trajectory_from_csv("x1,x2\n1.0,2.0\n")
