import dataclasses
import gc
import hashlib
import io
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsedyn.csvio as csvio
import sparsedyn.simulate as simulate_module
from sparsedyn.cli import run
from sparsedyn.errors import ConstructionError, DataError, StabilityError
from sparsedyn.generate import GenSpec, gen_illustrative, gen_random_system, system_to_json
from sparsedyn.linalg import (matrix_exponential, solve_lyapunov_continuous,
                              solve_lyapunov_discrete)
from sparsedyn.model import SystemParams
from sparsedyn.rng import CounterRng
from sparsedyn.simulate import (
    SufficientStats,
    Trajectory,
    binned_increment_covariance,
    exact_increment_covariance,
    load_trajectory,
    merge_stats,
    save_trajectory,
    simulate_continuous,
    simulate_discrete,
    simulate_stats,
    sufficient_stats,
    trajectory_blocks,
    trajectory_from_csv,
    trajectory_to_csv,
)

from reference import EDGE_COMMENTS, EDGE_ROWS, B, edge_values, sequential_recursion


def _scalar_params(a: float = -1.0, eta: float = 0.1) -> SystemParams:
    return SystemParams(A=np.array([[a]]), B=np.zeros((1, 0)),
                        C=np.zeros((0, 1)), D=np.zeros((0, 0)), eta=eta)


# ----------------------------------------------------------- discrete


def test_discrete_one_step_with_injected_noise():
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3, eta=0.05))
    w = CounterRng(9).normal_matrix(1, 6)
    x0 = np.arange(1.0, 5.0)
    u0 = np.array([0.5, -0.5])
    state0 = np.concatenate([x0, u0])
    traj = simulate_discrete(params, n=1, init=state0, noise=w)
    expected = (np.eye(6) + params.eta * params.joint()) @ state0 + w[0]
    assert np.allclose(traj.x[1], expected[:4], atol=0, rtol=0)


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
    traj = simulate_discrete(params, n=n, seed=11)
    q_eta = solve_lyapunov_discrete(params.joint(), params.eta)[:params.p, :params.p]
    states = traj.x[n // 10:]
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
    # Stable spectrum but enormous non-normal transient from a large start:
    # x1(k) ~ 0.1 k * 9e9 passes 1e10 at k = 12.  The path is correct, so
    # it comes back finite rather than as an error.
    params = SystemParams(
        A=np.array([[-1.0, 1e6], [0.0, -1.0]]),
        B=np.zeros((2, 0)), C=np.zeros((0, 2)), D=np.zeros((0, 0)),
        eta=1e-7,
    )
    traj = simulate_discrete(params, n=200, init=np.array([0.0, 9e9]), seed=0)
    assert np.isfinite(traj.x).all()
    assert np.abs(traj.x).max() > 1e11


def test_discrete_blowup_detection_past_first_block():
    # The same system at eta = 2e-8: x1(k) ~ 0.02 k * 9e9 first exceeds
    # 1e10 near k = 56, past block 0 of the scan (b = isqrt(201) = 14
    # rows).  The path that crosses it is returned, and it is the one-step
    # recursion's.
    params = SystemParams(
        A=np.array([[-1.0, 1e6], [0.0, -1.0]]),
        B=np.zeros((2, 0)), C=np.zeros((0, 2)), D=np.zeros((0, 0)),
        eta=2e-8,
    )
    x0 = np.array([0.0, 9e9])
    w = np.sqrt(params.eta) * CounterRng(0).normal_matrix(200, 2)
    path = sequential_recursion(np.eye(2) + params.eta * params.A, np.vstack([x0, w]))
    step = int(np.argmax(np.abs(path).max(axis=1) > 1e10))
    assert step > 14
    traj = simulate_discrete(params, n=200, init=x0, noise=w)
    assert np.max(np.abs(traj.x - path)) <= 1e-13 * np.max(np.abs(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_noise_or_init_is_a_construction_error(bad):
    noise = np.zeros((30, 1))
    noise[16, 0] = bad
    with pytest.raises(ConstructionError, match="^noise must be finite"):
        simulate_discrete(_scalar_params(), n=30, noise=noise)
    # The value sits only in the latent coordinate, and B = 0.  Whether it
    # then reaches x depends on the BLAS (NaN * 0 is NaN in IEEE, but a
    # kernel may skip a zero), so the error must come from init's check.
    params = SystemParams(A=-np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                          D=np.array([[-1.0]]), eta=0.1)
    init = np.array([1.0, -1.0, bad])
    with pytest.raises(ConstructionError, match="^init vector must be finite"):
        simulate_discrete(params, n=30, init=init)
    with pytest.raises(ConstructionError, match="^init vector must be finite"):
        simulate_continuous(dataclasses.replace(params, eta=0.0), eta=0.1, n=30, init=init)


def test_discrete_requires_positive_eta():
    with pytest.raises(ConstructionError):
        simulate_discrete(_scalar_params(-1.0, 0.0), n=10)


def test_continuous_rejects_a_discrete_chain():
    # A system with eta > 0 is a discrete chain; it has no flow to subsample.
    with pytest.raises(ConstructionError,
                       match="^continuous simulation needs params.eta = 0, got 0.05$"):
        simulate_continuous(_scalar_params(-1.0, 0.05), eta=0.1, n=10)


# --------------------------------------------------------- continuous


def test_continuous_noise_free_flow_both_modes():
    params = gen_random_system(GenSpec(p=3, r=0, s=1, seed=5))
    x0 = np.array([1.0, -2.0, 0.5])
    zeros = np.zeros((1, 3))
    flow = matrix_exponential(0.3 * params.joint())
    for mode in ("exact", "binned"):
        traj = simulate_continuous(params, eta=0.3, n=1, mode=mode, init=x0, noise=zeros)
        assert np.allclose(traj.x[1], flow @ x0, atol=1e-12)


def test_continuous_one_step_with_injected_increments():
    # ``noise`` is the one-step increments, as in the discrete sampler.
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3))
    w = CounterRng(9).normal_matrix(1, 6)
    x0 = np.arange(1.0, 5.0)
    u0 = np.array([0.5, -0.5])
    state0 = np.concatenate([x0, u0])
    expected = matrix_exponential(0.3 * params.joint()) @ state0 + w[0]
    for mode in ("exact", "binned"):
        traj = simulate_continuous(params, eta=0.3, n=1, mode=mode, init=state0, noise=w)
        assert np.array_equal(traj.x[1], expected[:4])


def test_continuous_blowup_detection():
    # Hurwitz but non-normal: the flow's transient carries a large start
    # past 1e10, as in the discrete case, and the path comes back finite.
    params = SystemParams(
        A=np.array([[-1.0, 1e6], [0.0, -1.0]]),
        B=np.zeros((2, 0)), C=np.zeros((0, 2)), D=np.zeros((0, 0)),
    )
    traj = simulate_continuous(params, eta=1e-7, n=200, mode="exact", init=np.array([0.0, 9e9]))
    assert np.isfinite(traj.x).all()
    assert np.abs(traj.x).max() > 1e11


# True was taken as a step of 1 and '0.1' ended in a bare TypeError.
@pytest.mark.parametrize("eta", [np.nan, np.inf, -0.1, True, "0.1"])
def test_non_finite_eta_is_rejected(eta):
    with pytest.raises(ConstructionError, match="^eta must be "):
        Trajectory(x=np.zeros((3, 2)), eta=eta)
    with pytest.raises(ConstructionError, match="^eta must be "):
        dataclasses.replace(_scalar_params(), eta=eta)
    with pytest.raises(ConstructionError, match="^eta must be "):
        GenSpec(p=3, r=0, s=1, seed=0, eta=eta)
    with pytest.raises(ConstructionError, match="^eta must be "):
        simulate_continuous(_scalar_params(eta=0.0), eta=eta, n=4)


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
    with pytest.raises(StabilityError):
        params = SystemParams(A=np.array([[0.1]]), B=np.zeros((1, 0)),
                              C=np.zeros((0, 1)), D=np.zeros((0, 0)), eta=0.0)
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


# ----------------------------------------------------- golden paths

# Paths of tiny systems (p=3, r=2, n=4, fixed seeds) written as float.hex
# strings, pinned on numpy 2.4.6's PCG64 stream; every sampler change must
# reproduce them bit for bit.
GOLDEN_PATHS = {
    "discrete.x": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.3c84af07381b0p-4", "0x1.7841e0bb4623ap-3", "0x1.2ea528a7a2a05p-4"),
        ("0x1.8ccb368bc00c5p-3", "0x1.9a9b686ae1564p-6", "0x1.9837668c0b256p-3"),
        ("0x1.88adffaa43c3dp-3", "0x1.06232d6a04ef1p-3", "-0x1.57b9a0e813580p-8"),
        ("0x1.475f9f6bd0312p-2", "0x1.d39ad7701f07cp-4", "-0x1.fb81388fd08e7p-5"),
    ],
    "exact.x": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.9afade711d0fap-5", "-0x1.36f77657c42eep-3", "-0x1.bc31a4a78da2cp-4"),
        ("0x1.1526e3636ed38p-2", "-0x1.6c2d8e59bd0bcp-3", "0x1.3a6f93f089334p-3"),
        ("0x1.8be9599ea15fep-2", "-0x1.e638c14861476p-3", "0x1.606d3e0618448p-5"),
        ("0x1.69f7489fa566bp-3", "-0x1.acccd8bae1dc0p-6", "-0x1.9371e62e4b2f1p-4"),
    ],
    "binned.x": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.26af9f2a611b9p-1", "-0x1.8d8e428af7ef5p-1", "0x1.f86a40f8ab898p-4"),
        ("0x1.41c24acbdb000p-2", "-0x1.44519a151816bp+0", "0x1.438bccb3d9976p-5"),
        ("0x1.b790c0796d5a4p-3", "-0x1.186098115b07ep+0", "0x1.3a49fb589dd98p-4"),
        ("-0x1.6c5583ceac148p-6", "-0x1.6a7756d953830p-1", "0x1.d0153acd88b28p-7"),
    ],
    "stationary.x": [
        ("-0x1.f9bb9d7174660p-3", "-0x1.98b11f0ecc510p-7", "0x1.5f7984d16a250p-1"),
        ("-0x1.68d42a973f283p-3", "-0x1.997e79b6849adp-3", "0x1.c7ffabdeccd2cp-2"),
        ("-0x1.89df6676eb7d4p-4", "0x1.355b084a6683cp-2", "0x1.3ebe0992a1c15p-2"),
        ("0x1.0fe58b029ce5cp-1", "-0x1.6c0d587e83468p-2", "0x1.a33aca10bcd8dp-2"),
        ("0x1.6cd3b4782c145p-3", "-0x1.1510594318178p-1", "0x1.4260a3a49b6b0p-2"),
    ],
    "latent.x": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("-0x1.6f3deb03e1972p-3", "-0x1.2f3e30ad79a27p-2", "-0x1.c6f210647b580p-5"),
        ("-0x1.2ce6147d74517p-3", "-0x1.6c2b1842594f0p-2", "-0x1.fd3fcabb374b2p-3"),
        ("-0x1.2fb4f329193f1p-4", "-0x1.0ce27165e9268p-1", "-0x1.f185212fb54bdp-2"),
        ("-0x1.e72f402db5f7cp-2", "-0x1.853acb5dda9dep-2", "-0x1.81595795fd571p-1"),
    ],
}


def _golden_systems():
    discrete = gen_random_system(GenSpec(p=3, r=2, s=1, seed=21, eta=0.05))
    continuous = gen_random_system(GenSpec(p=3, r=2, s=1, seed=22))
    return discrete, continuous


def _golden(name):
    return np.array([[float.fromhex(v) for v in row] for row in GOLDEN_PATHS[name]])


@pytest.mark.parametrize("case", ["discrete", "exact", "binned", "stationary"])
def test_sampler_golden_paths(case):
    discrete, continuous = _golden_systems()
    traj = {
        "discrete": lambda: simulate_discrete(discrete, n=4, seed=1),
        "exact": lambda: simulate_continuous(continuous, eta=0.1, n=4, mode="exact", seed=2),
        "binned": lambda: simulate_continuous(continuous, eta=0.1, n=4, mode="binned",
                                              bins=3, seed=3),
        "stationary": lambda: simulate_continuous(continuous, eta=0.1, n=4, mode="exact",
                                                  seed=4, init="stationary"),
    }[case]()
    assert np.array_equal(traj.x, _golden(f"{case}.x"))


def test_sampler_golden_latent_path():
    discrete, _ = _golden_systems()
    traj = simulate_discrete(discrete, n=4, seed=5)
    assert np.array_equal(traj.x, _golden("latent.x"))


# ------------------------------------------------- sequential oracle


def _nonnormal_params() -> SystemParams:
    # Upper-triangular drift: I + eta*A amplifies a start 18-fold before
    # it decays, which stresses the carried block-end states.
    return SystemParams(A=np.array([[-1.0, 50.0], [0.0, -1.0]]), B=np.zeros((2, 0)),
                        C=np.zeros((0, 2)), D=np.zeros((0, 0)), eta=0.01)


# n+1 = 9 is a perfect square and n+1 = 101 a prime.
@pytest.mark.parametrize("n", [1, 2, 3, 8, 100, 3050])
@pytest.mark.parametrize("case", ["discrete", "exact", "binned", "stationary", "nonnormal"])
def test_sampler_matches_sequential_recursion(case, n):
    discrete, continuous = _golden_systems()
    params = {"discrete": discrete, "nonnormal": _nonnormal_params()}.get(case, continuous)
    m = params.p + params.r
    eta = params.eta if case in ("discrete", "nonnormal") else 0.1
    w = np.sqrt(eta) * CounterRng(n).normal_matrix(n, m)
    start = np.concatenate([np.linspace(1.0, -1.0, params.p), np.full(params.r, 0.5)])
    init = start
    if case == "stationary":
        # The sampler's own start: the first p+r normals of the seed's stream.
        init = "stationary"
        chol = np.linalg.cholesky(solve_lyapunov_continuous(params.joint()))
        start = chol @ CounterRng(n).normals(m)
    if case in ("discrete", "nonnormal"):
        traj = simulate_discrete(params, n=n, noise=w, init=init)
        f = np.eye(m) + eta * params.joint()
    else:
        mode = "binned" if case == "binned" else "exact"
        traj = simulate_continuous(params, eta=eta, n=n, mode=mode, bins=3, seed=n,
                                   noise=w, init=init)
        f = matrix_exponential(eta * params.joint())
    expected = sequential_recursion(f, np.vstack([start, w]))
    assert traj.x.shape == (n + 1, params.p)
    assert np.array_equal(traj.x[0], start[:params.p])
    assert np.max(np.abs(traj.x - expected[:, :params.p])) <= 1e-13 * np.max(np.abs(expected))


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


def test_init_rejects_unknown_name_and_wrong_length():
    # The start is the joint vector [x(0); u(0)], p + r = 4 entries.
    params = gen_random_system(GenSpec(p=2, r=2, s=1, seed=15))
    with pytest.raises(ConstructionError):
        simulate_continuous(params, eta=0.1, n=4, init="bogus")
    for bad in (np.zeros(2), np.zeros(5), np.zeros((1, 4))):
        with pytest.raises(ConstructionError, match="shape \\(4,\\)"):
            simulate_continuous(params, eta=0.1, n=4, init=bad)
        with pytest.raises(ConstructionError, match="shape \\(4,\\)"):
            simulate_discrete(dataclasses.replace(params, eta=0.05), n=4, init=bad)


def _stats(eta: float, p: int = 1) -> SufficientStats:
    return SufficientStats(S1=np.eye(p), S2=np.zeros((p, p)), n=4, eta=eta, sq_increment_sum=1.0)


def _discrete(**kw):
    return lambda: simulate_discrete(_scalar_params(), **{"n": 4, **kw})


def _continuous(**kw):
    return lambda: simulate_continuous(_scalar_params(eta=0.0), eta=0.1, **{"n": 4, **kw})


@pytest.mark.parametrize("call, message", [
    (lambda: simulate_discrete(_scalar_params(), n=0), "n must be at least 1, got 0"),
    (lambda: simulate_discrete(_scalar_params(eta=0.0), n=4),
     "discrete simulation needs params.eta > 0, got 0"),
    (lambda: simulate_continuous(_scalar_params(eta=0.0), eta=0.1, n=0),
     "n must be at least 1, got 0"),
    (lambda: simulate_continuous(_scalar_params(eta=0.0), eta=0.1, n=4, bins=0),
     "bins must be at least 1, got 0"),
    (lambda: binned_increment_covariance(-np.eye(2), 0.1, 0), "bins must be at least 1, got 0"),
    (lambda: simulate_continuous(_scalar_params(eta=0.0), eta=0.1, n=4, mode="euler"),
     "unknown mode 'euler' (expected 'exact' or 'binned')"),
    (lambda: merge_stats([]), "merge_stats needs at least one chunk"),
    (lambda: merge_stats([_stats(0.1), _stats(0.2)]), "cannot merge statistics with different eta"),
    # Chunks of one trajectory share one eta exactly; an absolute tolerance
    # of 1e-15 merged these, and parts of two p ended in numpy's broadcast error.
    (lambda: merge_stats([_stats(1e-18), _stats(2e-18)]),
     "cannot merge statistics with different eta"),
    (lambda: merge_stats([_stats(0.1, p=2), _stats(0.1, p=3)]),
     "a merged chunk's S1 must be 2 x 2, got shape (3, 3)"),
    # A count must be an integer: 2.5 and '4' ended in a bare TypeError, True ran as 1.
    (_discrete(n=2.5), "n must be an integer, got 2.5"),
    (_discrete(n=True), "n must be an integer, got True"),
    (_discrete(n="4"), "n must be an integer, got '4'"),
    (_discrete(seed=0.5), "seed must be an integer, got 0.5"),
    (_discrete(seed=True), "seed must be an integer, got True"),
    (_discrete(seed="1"), "seed must be an integer, got '1'"),
    (_continuous(n=2.5), "n must be an integer, got 2.5"),
    (_continuous(n=True), "n must be an integer, got True"),
    (_continuous(n="4"), "n must be an integer, got '4'"),
    (_continuous(bins=2.5), "bins must be an integer, got 2.5"),
    (_continuous(bins=True), "bins must be an integer, got True"),
    (_continuous(bins="10"), "bins must be an integer, got '10'"),
    (_continuous(seed=0.5), "seed must be an integer, got 0.5"),
    (_continuous(seed=True), "seed must be an integer, got True"),
    (_continuous(seed="1"), "seed must be an integer, got '1'"),
    (lambda: binned_increment_covariance(-np.eye(2), 0.1, 2.5), "bins must be an integer, got 2.5"),
    (lambda: simulate_continuous(_scalar_params(eta=0.0), eta=0.0, n=4),
     "eta must be finite and positive, got 0.0"),
    (lambda: simulate_stats(_scalar_params(eta=0.0), eta=0.1, n=0), "n must be at least 1, got 0"),
    (lambda: simulate_stats(_scalar_params(eta=0.0), eta=0.1, n=4, mode="euler"),
     "unknown mode 'euler' (expected 'exact' or 'binned')"),
    (lambda: simulate_stats(_scalar_params(), eta=0.1, n=4),
     "continuous simulation needs params.eta = 0, got 0.1"),
    (lambda: Trajectory(x=np.zeros((3, 2)), eta="0.1"), "eta must be a real number, got '0.1'"),
    # A NaN eta was named as a non-finite matrix_exponential input, an
    # infinite one warned of an invalid value, and -0.5 returned a matrix.
    (lambda: exact_increment_covariance(-np.eye(2), np.nan),
     "eta must be finite and positive, got nan"),
    (lambda: exact_increment_covariance(-np.eye(2), -0.5),
     "eta must be finite and positive, got -0.5"),
    (lambda: binned_increment_covariance(-np.eye(2), np.nan, 2),
     "eta must be finite and positive, got nan"),
    (lambda: binned_increment_covariance(-np.eye(2), np.inf, 2),
     "eta must be finite and positive, got inf"),
    # Its time column was written with an overflow warning, as inf, which
    # the CSV reader rejects.
    (lambda: Trajectory(x=np.zeros((3, 1)), eta=1e308),
     "the horizon eta * n must be finite, got inf"),
    (lambda: Trajectory(x=np.zeros((3, 1)), eta=np.float64(1e308)),
     "the horizon eta * n must be finite, got inf"),
], ids=["discrete-n", "discrete-eta-0", "continuous-n", "continuous-bins", "binned-bins", "mode", "merge-none",
        "merge-eta", "merge-eta-tiny", "merge-p", "discrete-n-float", "discrete-n-bool",
        "discrete-n-str", "discrete-seed-float", "discrete-seed-bool", "discrete-seed-str", "continuous-n-float", "continuous-n-bool",
        "continuous-n-str", "continuous-bins-float", "continuous-bins-bool", "continuous-bins-str",
        "continuous-seed-float", "continuous-seed-bool", "continuous-seed-str", "binned-bins-float",
        "continuous-eta-0", "stats-n", "stats-mode", "stats-discrete", "trajectory-eta-str", "exact-eta-nan", "exact-eta-negative",
        "binned-eta-nan", "binned-eta-inf", "trajectory-horizon-inf",
        "trajectory-horizon-inf-numpy"])
def test_sampler_and_reduction_checks_name_the_bad_input(call, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("eta", [0.001, 0.05, 0.5])
@pytest.mark.parametrize("mode", ["binned", "exact"])
@pytest.mark.parametrize("r", [0, 2])
def test_simulate_stats_are_the_statistics_of_the_path(r, mode, eta):
    # The chain reduced in its noise basis against the path reduced as it
    # is: the same normals, so the same statistics up to rounding, which
    # grows like 1e-16 / eta; the bound was fixed before the first run.
    params = gen_random_system(GenSpec(p=6, r=r, s=2, seed=31 + r))
    want = sufficient_stats(simulate_continuous(params, eta=eta, n=3000, mode=mode, seed=5))
    got = simulate_stats(params, eta=eta, n=3000, mode=mode, seed=5)
    assert (got.n, got.eta) == (want.n, want.eta)
    for a, b in ((got.S1, want.S1), (got.S2, want.S2)):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert abs(got.sq_increment_sum - want.sq_increment_sum) <= 1e-10 * want.sq_increment_sum
    assert np.array_equal(got.S1, got.S1.T)


def test_simulate_stats_refuses_a_count_numpy_cannot_allocate():
    params = gen_random_system(GenSpec(p=4, r=2, s=1, seed=3))
    with pytest.raises(ConstructionError, match="more than numpy can allocate"):
        simulate_stats(params, eta=1e-300, n=10**300)


def test_samplers_take_numpy_integer_counts():
    params = _scalar_params()
    assert np.array_equal(simulate_discrete(params, n=np.int64(6), seed=np.uint64(3)).x,
                          simulate_discrete(params, n=6, seed=3).x)
    cont = _scalar_params(eta=0.0)
    assert np.array_equal(
        simulate_continuous(cont, eta=0.1, n=np.int32(6), bins=np.int64(4), seed=np.int64(-2)).x,
        simulate_continuous(cont, eta=0.1, n=6, bins=4, seed=-2).x)
    assert np.array_equal(binned_increment_covariance(-np.eye(2), 0.1, np.int16(3)),
                          binned_increment_covariance(-np.eye(2), 0.1, 3))


def test_trajectory_validation():
    with pytest.raises(ConstructionError):
        Trajectory(x=np.array([[1.0, np.inf], [0.0, 0.0]]), eta=0.1)
    with pytest.raises(ConstructionError):
        Trajectory(x=np.zeros((1, 2)), eta=0.1)
    with pytest.raises(ConstructionError):
        Trajectory(x=np.zeros((3, 2)), eta=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_a_non_finite_entry_anywhere(bad):
    for index in [(0, 0), (2, 1), (4, 2)]:
        x = np.zeros((5, 3))
        x[index] = bad
        with pytest.raises(ConstructionError):
            Trajectory(x=x, eta=0.1)
    # No series at all is finite.
    assert Trajectory(x=np.zeros((5, 0)), eta=0.1).p == 0


def test_trajectory_check_makes_no_temporary_of_the_path():
    # An isfinite mask would be an n x p bool array, an eighth of x.nbytes.
    x = np.full((20000, 40), 0.5)
    tracemalloc.start()
    try:
        Trajectory(x=x, eta=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 64


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


def test_trajectory_blocks_at_block_edges_join_to_the_pinned_bytes():
    # A trajectory has at least two samples, so the 0- and 1-row edges are
    # left to the csvio test.
    assert csvio._BLOCK_ROWS == B
    digest = hashlib.sha256()
    for rows in EDGE_ROWS[2:]:
        for comments in EDGE_COMMENTS:
            traj = Trajectory(x=edge_values(rows, 2), eta=0.1)
            blocks = list(trajectory_blocks(traj, comments))
            assert len(blocks) == 1 + -(-rows // B)
            text = trajectory_to_csv(traj, comments)
            assert "".join(blocks) == text
            digest.update(text.encode())
    # Pinned: no block size or change to the formatter may move these bytes.
    assert digest.hexdigest() == "f985883223a31843e3fb955ca9db8fb372b55c76e2f2c55a5928b1224af8df01"


def _system_file(tmp_path, params) -> str:
    path = tmp_path / "system.json"
    path.write_text(system_to_json(params, {}))
    return str(path)


def test_cli_simulate_writes_the_bytes_of_trajectory_to_csv(tmp_path, capsys):
    params = gen_random_system(GenSpec(p=5, r=2, s=2, seed=4))
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--system", _system_file(tmp_path, params), "--eta", "0.05",
                "--n", str(2 * B), "--seed", "8", "--out", str(out)]) == 0
    text = out.read_text()
    traj = simulate_continuous(params, eta=0.05, n=2 * B, seed=8)
    assert text == trajectory_to_csv(traj, comments=[text.splitlines()[0].removeprefix("# ")])


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


@pytest.mark.parametrize("times", [
    # Its steps differ by less than 1e-9, which a step rule took as uniform.
    ["0", "1e-12", "5e-10"],
    ["0", "1", "2", "3.00001"],
    ["5", "4", "3"],
    ["1", "1", "1"],
])
def test_trajectory_csv_times_must_lie_on_the_grid_of_the_first_step(times):
    text = "t,x1\n" + "".join(f"{t},{k}\n" for k, t in enumerate(times))
    with pytest.raises(DataError, match="^time column must be a uniform, strictly increasing grid$"):
        trajectory_from_csv(text)


@pytest.mark.parametrize("offset", [0, 1000])
@pytest.mark.parametrize("rows", [2, 3, 1001, 100_000])
def test_trajectory_csv_reads_a_decimal_grid(offset, rows):
    # Hand-written times ``offset + 0.1 k`` are not the floats ``t0 + k eta``,
    # but lie within 1e-6 eta of them.
    text = "t,x1\n" + "".join(f"{offset + k // 10}.{k % 10},{k}\n" for k in range(rows))
    traj = trajectory_from_csv(text)
    assert math.isclose(traj.eta, 0.1, rel_tol=1e-12)
    assert np.array_equal(traj.x[:, 0], np.arange(rows))


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


# ------------------------------------------------------------- sidecar


def _simulated_csv(tmp_path, mode="binned", n=300, seed=8, name="traj.csv"):
    """A trajectory CSV and its sidecar as ``sparsedyn simulate`` writes them."""
    params = gen_random_system(GenSpec(p=5, r=2, s=2, seed=4,
                                       eta=0.05 if mode == "discrete" else 0.0))
    out = tmp_path / name
    step = [] if mode == "discrete" else ["--eta", "0.05"]
    assert run(["simulate", "--system", _system_file(tmp_path, params), "--mode", mode, *step,
                "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return out


def _same_bits(a: Trajectory, b: Trajectory) -> bool:
    return (a.x.shape == b.x.shape and a.x.tobytes() == b.x.tobytes()
            and type(a.eta) is type(b.eta) is float and a.eta.hex() == b.eta.hex())


@pytest.mark.parametrize("mode, n", [("discrete", 300), ("binned", 300), ("exact", 300),
                                     ("binned", 1)])
def test_sidecar_loads_what_the_csv_parses_bit_for_bit(tmp_path, csv_parses, mode, n):
    csv = _simulated_csv(tmp_path, mode, n)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "system.json", "traj.csv", "traj.csv.npy"]
    parsed = trajectory_from_csv(csvio.read_text(csv))
    loaded = load_trajectory(csv)
    assert csv_parses == []
    assert _same_bits(loaded, parsed)
    a, b = sufficient_stats(loaded), sufficient_stats(parsed)
    assert a.S1.tobytes() == b.S1.tobytes() and a.S2.tobytes() == b.S2.tobytes()
    assert a.sq_increment_sum == b.sq_increment_sum


def test_sidecar_bytes_carry_no_time_stamp(tmp_path):
    csv = _simulated_csv(tmp_path)
    first = (tmp_path / "traj.csv.npy").read_bytes()
    _simulated_csv(tmp_path)
    assert (tmp_path / "traj.csv.npy").read_bytes() == first
    record = np.load(tmp_path / "traj.csv.npy", allow_pickle=False)
    assert record.shape == () and record.dtype.names == ("sha256", "eta", "x")
    assert record["sha256"].tobytes() == hashlib.sha256(csv.read_bytes()).digest()
    assert record["x"].shape == (301, 5) and record["eta"] == 0.05


@settings(max_examples=40, deadline=None)
@given(log_eta=st.floats(-320.0, 300.0), n=st.integers(1, 3000))
def test_every_trajectory_written_is_read_back_by_its_sidecar_and_its_csv(log_eta, n):
    # eta is log-uniform from subnormal to 1e300 and the horizon eta * n finite.
    traj = Trajectory(x=CounterRng(n).normal_matrix(n + 1, 2), eta=10.0 ** log_eta)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "traj.csv"
        save_trajectory(csv, traj, comments=["config: {}"])
        assert sorted(path.name for path in csv.parent.iterdir()) == ["traj.csv", "traj.csv.npy"]
        assert _same_bits(trajectory_from_csv(csvio.read_text(csv)), traj)
        with mock.patch.object(simulate_module, "trajectory_from_csv", side_effect=AssertionError):
            assert _same_bits(load_trajectory(csv), traj)
        (csv.parent / "traj.csv.npy").unlink()
        assert _same_bits(load_trajectory(csv), traj)


@pytest.mark.parametrize("comment", ["a\nt,x1,x2\n9,9,9", "a\n", "a\rb", "a\u2028b"],
                         ids=["rows", "trailing-lf", "cr", "line-separator"])
def test_a_comment_with_a_line_break_leaves_no_file(tmp_path, comment):
    # The first comment wrote a CSV whose own reader rejected its line 4,
    # beside a sidecar that loaded.
    csv = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="holds a line break"):
        save_trajectory(csv, Trajectory(x=np.arange(6.0).reshape(3, 2), eta=0.5),
                        comments=[comment])
    assert list(tmp_path.iterdir()) == []


def test_a_comment_that_utf8_cannot_encode_leaves_no_file(tmp_path):
    # The CSV was opened before its first block was encoded, and stayed 0 bytes.
    csv = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        save_trajectory(csv, Trajectory(x=np.zeros((3, 1)), eta=0.1), comments=["\ud800"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_into_a_pipe_writes_no_sidecar(tmp_path):
    # A pipe cannot be read back, so no copy may claim to match it.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()))
    reader.start()
    _simulated_csv(tmp_path, name="pipe")
    reader.join()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe", "system.json"]
    assert trajectory_from_csv(received[0].decode()).n == 300


def _rewrite_sidecar(csv, **fields):
    """Replace the sidecar by a 0-d record of the given fields, led by the
    CSV's own digest unless ``sha256`` is given."""
    digest = np.frombuffer(hashlib.sha256(csv.read_bytes()).digest(), np.uint8)
    fields = {name: np.asarray(value) for name, value in {"sha256": digest, **fields}.items()}
    record = np.empty((), [(name, value.dtype, value.shape) for name, value in fields.items()])
    for name, value in fields.items():
        record[name] = value
    np.save(f"{csv}.npy", record)


def _old_sidecar(csv) -> bytes:
    """The ``.npz`` archive of ``x``, ``eta`` and the CSV's digest that an
    earlier version wrote beside the CSV as ``<csv>.npz``."""
    good = trajectory_from_csv(csvio.read_text(csv))
    with io.BytesIO() as archive:
        np.savez(archive, eta=np.float64(good.eta), x=good.x,
                 sha256=np.frombuffer(hashlib.sha256(csv.read_bytes()).digest(), np.uint8))
        return archive.getvalue()


def _tamper_sidecar(kind, csv, tmp_path):
    sidecar = tmp_path / "traj.csv.npy"
    good = load_trajectory(csv)
    x, eta = good.x, np.float64(good.eta)
    if kind == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
    elif kind == "not-npy":
        sidecar.write_bytes(b"t,x1\n0,1\n")
    elif kind == "bare-array":
        np.save(sidecar, x)
    elif kind == "missing-key":
        _rewrite_sidecar(csv, x=x)
    elif kind == "extra-key":
        _rewrite_sidecar(csv, eta=eta, x=x, n=np.int64(good.n))
    elif kind == "x-shape":
        _rewrite_sidecar(csv, eta=eta, x=x.reshape(-1))
    elif kind == "x-dtype":
        _rewrite_sidecar(csv, eta=eta, x=x.astype(np.float32))
    elif kind == "eta-shape":
        _rewrite_sidecar(csv, eta=np.array([good.eta]), x=x)
    elif kind == "non-finite":
        _rewrite_sidecar(csv, eta=eta, x=np.where(x > 0, np.nan, x))
    elif kind == "pickled":
        _rewrite_sidecar(csv, eta=eta, x=np.array([None], dtype=object))
    elif kind == "other-digest":
        _simulated_csv(tmp_path, seed=9, name="other.csv")
        sidecar.write_bytes((tmp_path / "other.csv.npy").read_bytes())
    elif kind == "old-npz":
        sidecar.unlink()
        (tmp_path / "traj.csv.npz").write_bytes(_old_sidecar(csv))
    elif kind == "npz-as-npy":
        sidecar.write_bytes(_old_sidecar(csv))
    else:
        raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["truncated", "not-npy", "bare-array", "missing-key",
                                  "extra-key", "x-shape", "x-dtype", "eta-shape", "non-finite",
                                  "pickled", "other-digest", "old-npz", "npz-as-npy"])
def test_a_bad_sidecar_falls_back_to_the_parse(tmp_path, csv_parses, kind):
    csv = _simulated_csv(tmp_path)
    _tamper_sidecar(kind, csv, tmp_path)
    loaded = load_trajectory(csv)
    text = csvio.read_text(csv)
    assert csv_parses == [len(text)]
    assert _same_bits(loaded, trajectory_from_csv(text))


def test_a_corrupt_zip_as_sidecar_leaves_no_file_open(tmp_path, csv_parses):
    # np.load would open this file as an archive, fail on the missing end
    # of the zip and leave its handle for the garbage collector to close.
    csv = _simulated_csv(tmp_path)
    (tmp_path / "traj.csv.npy").write_bytes(_old_sidecar(csv)[:-100])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_trajectory(csv)
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    text = csvio.read_text(csv)
    assert csv_parses == [len(text)]
    assert _same_bits(loaded, trajectory_from_csv(text))


def test_np_save_of_the_good_fields_writes_the_sidecar_bytes(tmp_path):
    # The writer's header and record are those of ``np.save``, and each
    # tamper above differs from the good record in its tamper alone.
    csv = _simulated_csv(tmp_path)
    sidecar = tmp_path / "traj.csv.npy"
    written = sidecar.read_bytes()
    good = np.load(sidecar, allow_pickle=False)
    _rewrite_sidecar(csv, eta=good["eta"], x=good["x"])
    assert sidecar.read_bytes() == written


def test_an_edited_csv_is_parsed_as_it_now_reads(tmp_path, csv_parses):
    csv = _simulated_csv(tmp_path)
    stale = load_trajectory(csv)
    lines = csv.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[1] = "12.5"
    lines[-1] = ",".join(cells)
    csv.write_text("".join(lines))
    loaded = load_trajectory(csv)
    assert len(csv_parses) == 1
    assert loaded.x[-1, 0] == 12.5 != stale.x[-1, 0]
    assert _same_bits(loaded, trajectory_from_csv(csvio.read_text(csv)))


def test_a_csv_copied_without_its_sidecar_is_parsed(tmp_path, csv_parses):
    csv = _simulated_csv(tmp_path)
    copy = tmp_path / "copy.csv"
    copy.write_bytes(csv.read_bytes())
    assert _same_bits(load_trajectory(copy), load_trajectory(csv))
    assert len(csv_parses) == 1


def test_load_trajectory_names_a_file_that_is_not_utf8(tmp_path):
    # The sidecar's digest does not match, so the bytes are decoded as
    # ``csvio.read_text`` decodes them.
    csv = _simulated_csv(tmp_path)
    csv.write_bytes(csv.read_bytes().replace(b"t,x1", b"t,x\xff", 1))
    with pytest.raises(DataError, match=r"traj\.csv is not UTF-8 text: invalid start byte at byte"):
        load_trajectory(csv)


# ------------------------------------------------------ bounded memory


@pytest.mark.parametrize("p, r, n, init", [
    (3, 2, 1, "zero"), (3, 2, 4097, "zero"), (40, 2, 4097, "zero"), (40, 2, 4100, "stationary"),
    (40, 2, 8193, "zero"), (40, 2, 12289, "zero")])
def test_sampler_increments_are_one_product_over_all_rows(p, r, n, init):
    # The normals are turned into increments in row chunks inside the
    # state array; a chunk count that left a short tail (here n % 4096 of
    # 1 or 4 rows) would let the BLAS take another kernel for it.  The
    # path must equal the one built from one full-length product, drawn
    # after the stationary start when there is one.
    params = gen_random_system(GenSpec(p=p, r=r, s=1, seed=n))
    chol = np.linalg.cholesky(binned_increment_covariance(params.joint(), 0.05, 10))
    rng = CounterRng(n)
    if init == "stationary":
        rng.normals(p + r)
    w = rng.normal_matrix(n, p + r) @ chol.T
    drawn = simulate_continuous(params, eta=0.05, n=n, seed=n, init=init)
    given = simulate_continuous(params, eta=0.05, n=n, seed=n, init=init, noise=w)
    assert drawn.x.tobytes() == given.x.tobytes()


def _traced_peaks():
    """Traced peak bytes of ``simulate_continuous`` and then of
    ``sufficient_stats`` on its path, at n = 20,000 and p+r = 42; and the
    bytes of the path's state array."""
    params = gen_random_system(GenSpec(p=40, r=2, s=3, seed=7))
    n = 20000
    simulate_continuous(params, eta=0.05, n=2)  # scipy and the BLAS loaded before tracing
    tracemalloc.start()
    try:
        traj = simulate_continuous(params, eta=0.05, n=n, seed=8)
        simulate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sufficient_stats(traj)
        stats_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return simulate_peak, stats_peak, (n + 1) * 42 * 8


def test_simulate_peak_is_bounded_by_the_state_array():
    # The normals are drawn into the state array and become increments
    # there through one 4,096-row buffer: no second array of the path's
    # size (a separate normals matrix made this 2.0x).
    simulate_peak, _, state_bytes = _traced_peaks()
    assert simulate_peak <= 1.5 * state_bytes


def test_sufficient_stats_peak_is_bounded_by_the_state_array():
    # The path plus its increments, squared in place (squaring into a new
    # array made this 2.9x).
    _, stats_peak, state_bytes = _traced_peaks()
    assert stats_peak <= 2.1 * state_bytes


def test_simulate_stats_peak_is_the_state_array():
    # No increment buffer and no increment temporary: the scan array and
    # a few p x p matrices (the path and then its statistics peaked at 2.1x).
    params = gen_random_system(GenSpec(p=40, r=2, s=3, seed=7))
    n = 20000
    simulate_stats(params, eta=0.05, n=2)  # scipy and the BLAS loaded before tracing
    tracemalloc.start()
    try:
        simulate_stats(params, eta=0.05, n=n, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (n + 1) * 42 * 8


def test_cli_simulate_peak_is_bounded_by_the_state_array(tmp_path):
    # The file is written one block of rows at a time, so the write adds
    # little to the sampler's own peak (at most 1.5x, above).  A command
    # that built the whole text, and the list of blocks it was joined from,
    # peaked at 7.0x.
    params = gen_random_system(GenSpec(p=40, r=2, s=3, seed=7))
    system, n = _system_file(tmp_path, params), 20000
    simulate_continuous(params, eta=0.05, n=2)  # scipy and the BLAS loaded before tracing
    tracemalloc.start()
    try:
        assert run(["simulate", "--system", system, "--eta", "0.05", "--n", str(n),
                    "--seed", "8", "--out", str(tmp_path / "traj.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (n + 1) * 42 * 8


def test_sufficient_stats_square_sum_is_the_product_sum():
    params = gen_random_system(GenSpec(p=5, r=2, s=2, seed=4))
    traj = simulate_continuous(params, eta=0.05, n=3001, seed=9)
    dx = np.diff(traj.x, axis=0)
    assert sufficient_stats(traj).sq_increment_sum == float(np.sum(dx * dx))


def test_sufficient_stats_overflow_is_a_data_error_naming_the_scale():
    x = np.array([[1e200, -2e200], [3e200, 1e200], [-1e200, 2e200], [2e200, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"largest \|x\| is 3e\+200"):
            sufficient_stats(Trajectory(x=x, eta=0.1))
