import numpy as np
import pytest

from sparsedyn.errors import ConstructionError, NumericalError, StabilityError
from sparsedyn.linalg import (
    matrix_exponential,
    power_spectral_norm,
    prox_l1,
    prox_nuclear,
    solve_lyapunov_continuous,
    solve_lyapunov_discrete,
)
from sparsedyn.rng import CounterRng

from reference import (
    kron_lyapunov_continuous,
    kron_lyapunov_discrete,
    prox_l1_grid,
    prox_nuclear_subgradient,
    random_stable_matrix,
    taylor_expm,
)


# ------------------------------------------------- matrix exponential


def test_expm_zero():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = matrix_exponential(np.diag([0.3, -1.2]))
    assert np.allclose(out, np.diag(np.exp([0.3, -1.2])), rtol=1e-14)


def test_expm_matches_taylor_oracle():
    m = CounterRng(55).normal_matrix(4, 4)
    m *= 0.9 / np.linalg.norm(m, 2)  # spectral norm < 1
    out = matrix_exponential(m)
    oracle = taylor_expm(m, terms=50)
    assert np.linalg.norm(out - oracle) / np.linalg.norm(oracle) < 1e-10


def test_expm_semigroup_property():
    rng = CounterRng(12)
    for trial in range(5):
        m = random_stable_matrix(rng, 4)
        s, t = rng.uniforms(2)
        s, t = s + 1e-3, t + 1e-3
        lhs = matrix_exponential((s + t) * m)
        rhs = matrix_exponential(s * m) @ matrix_exponential(t * m)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(lhs))


def test_expm_overflow_raises():
    with pytest.raises(NumericalError):
        matrix_exponential(np.array([[2000.0]]))


def test_expm_requires_square():
    with pytest.raises(ConstructionError):
        matrix_exponential(np.zeros((2, 3)))


# ---------------------------------------------------- Lyapunov solvers


def test_lyapunov_continuous_identity_case():
    q = solve_lyapunov_continuous(-np.eye(2))
    assert np.allclose(q, 0.5 * np.eye(2), atol=1e-12)


def test_lyapunov_continuous_vs_kronecker():
    rng = CounterRng(99)
    for trial in range(10):
        a = random_stable_matrix(rng, 5)
        q = solve_lyapunov_continuous(a)
        oracle = kron_lyapunov_continuous(a)
        assert np.linalg.norm(q - oracle) / np.linalg.norm(oracle) < 1e-9


def test_lyapunov_continuous_symmetric_pd_residual():
    rng = CounterRng(3)
    for trial in range(10):
        a = random_stable_matrix(rng, 6)
        q = solve_lyapunov_continuous(a)
        assert np.linalg.norm(q - q.T) < 1e-12
        assert np.min(np.linalg.eigvalsh(q)) > 0
        res = np.linalg.norm(a @ q + q @ a.T + np.eye(6))
        assert res <= 1e-10 * np.linalg.norm(q)


def test_lyapunov_continuous_rejects_unstable():
    with pytest.raises(StabilityError):
        solve_lyapunov_continuous(np.eye(3))


def test_lyapunov_discrete_scalar():
    q = solve_lyapunov_discrete(np.array([[-1.0]]), eta=0.5)
    assert abs(q[0, 0] - 2.0 / 3.0) < 1e-12


def test_lyapunov_discrete_continuous_limit():
    # Q(eta) converges to the continuous solution linearly in eta.
    target = solve_lyapunov_continuous(-np.eye(2))
    gaps = []
    for eta in (0.1, 0.01, 0.001):
        q = solve_lyapunov_discrete(-np.eye(2), eta)
        gaps.append(np.linalg.norm(q - target))
    assert gaps[0] > gaps[1] > gaps[2]
    # linear rate: gap / eta roughly constant
    ratios = [g / eta for g, eta in zip(gaps, (0.1, 0.01, 0.001))]
    assert max(ratios) / min(ratios) < 1.5


def test_lyapunov_discrete_vs_kronecker():
    rng = CounterRng(123)
    for trial in range(10):
        a = random_stable_matrix(rng, 5)
        q = solve_lyapunov_discrete(a, eta=0.05)
        oracle = kron_lyapunov_discrete(a, eta=0.05)
        assert np.linalg.norm(q - oracle) / np.linalg.norm(oracle) < 1e-9


def test_lyapunov_discrete_rejects_unstable():
    with pytest.raises(StabilityError):
        solve_lyapunov_discrete(np.array([[1.0]]), eta=0.5)


def test_lyapunov_discrete_symmetric_pd():
    rng = CounterRng(77)
    a = random_stable_matrix(rng, 4)
    q = solve_lyapunov_discrete(a, eta=0.02)
    assert np.linalg.norm(q - q.T) < 1e-12
    assert np.min(np.linalg.eigvalsh(q)) > 0


# ------------------------------------------------------ proximal maps


def test_prox_l1_values():
    m = np.array([[3.0, -0.5], [1.0, -2.0]])
    out = prox_l1(m, 1.0)
    assert np.allclose(out, [[2.0, 0.0], [0.0, -1.0]])


def test_prox_l1_zero_tau_is_identity():
    m = CounterRng(4).normal_matrix(3, 3)
    assert np.array_equal(prox_l1(m, 0.0), m)


def test_prox_l1_tie_maps_to_zero():
    assert prox_l1(np.array([[0.7]]), 0.7)[0, 0] == 0.0


def test_prox_l1_matches_grid_oracle():
    m = CounterRng(42).normal_matrix(3, 3)
    out = prox_l1(m, 0.7)
    oracle = prox_l1_grid(m, 0.7, step=1e-5)
    assert np.max(np.abs(out - oracle)) < 2e-5


def test_prox_l1_nonexpansive():
    rng = CounterRng(8)
    for trial in range(10):
        x = rng.normal_matrix(4, 4)
        y = rng.normal_matrix(4, 4)
        lhs = np.linalg.norm(prox_l1(x, 0.3) - prox_l1(y, 0.3))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_prox_nuclear_diagonal():
    out, shrunk = prox_nuclear(np.diag([3.0, 0.5]), 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)
    assert np.array_equal(shrunk, [2.0, 0.0])
    assert np.count_nonzero(shrunk) == 1


def test_prox_nuclear_large_tau_gives_zero():
    m = CounterRng(5).normal_matrix(4, 4)
    tau = np.linalg.norm(m, 2) + 0.1
    out, shrunk = prox_nuclear(m, tau)
    assert np.count_nonzero(shrunk) == 0
    assert np.allclose(out, 0.0)


def test_prox_nuclear_matches_subgradient_oracle():
    m = CounterRng(88).normal_matrix(4, 4)
    out, _ = prox_nuclear(m, 0.3)
    oracle = prox_nuclear_subgradient(m, 0.3, iters=2000)
    assert np.linalg.norm(out - oracle) < 1e-4


def test_prox_nuclear_nonexpansive():
    rng = CounterRng(9)
    for trial in range(10):
        x = rng.normal_matrix(4, 4)
        y = rng.normal_matrix(4, 4)
        px, _ = prox_nuclear(x, 0.4)
        py, _ = prox_nuclear(y, 0.4)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_prox_nuclear_unitarily_invariant():
    rng = CounterRng(10)
    m = rng.normal_matrix(4, 4)
    qu, _ = np.linalg.qr(rng.normal_matrix(4, 4))
    qv, _ = np.linalg.qr(rng.normal_matrix(4, 4))
    direct, _ = prox_nuclear(qu @ m @ qv.T, 0.5)
    inner, _ = prox_nuclear(m, 0.5)
    assert np.linalg.norm(direct - qu @ inner @ qv.T) < 1e-10


def test_prox_nuclear_shrunk_values_are_output_singular_values():
    m = CounterRng(13).normal_matrix(5, 5)
    out, shrunk = prox_nuclear(m, 0.6)
    assert np.all(np.diff(shrunk) <= 0)
    assert np.allclose(np.linalg.svd(out, compute_uv=False), shrunk, atol=1e-12)
    assert abs(np.linalg.norm(out, "nuc") - shrunk.sum()) < 1e-12 * shrunk.sum()


def test_prox_nuclear_rejects_nonfinite():
    with pytest.raises(ConstructionError):
        prox_nuclear(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


def test_prox_rejects_negative_tau():
    with pytest.raises(ConstructionError):
        prox_l1(np.eye(2), -0.1)
    with pytest.raises(ConstructionError):
        prox_nuclear(np.eye(2), -0.1)


# ------------------------------------------------------ step size


def test_power_spectral_norm_matches_eigvalsh():
    rng = CounterRng(66)
    m = rng.normal_matrix(6, 6)
    s = m @ m.T  # symmetric PSD
    est = power_spectral_norm(s)
    truth = float(np.max(np.linalg.eigvalsh(s)))
    assert abs(est - truth) < 1e-7 * truth


def test_power_spectral_norm_ramp_start_handles_ones_nullspace():
    # Top eigenvector orthogonal to the all-ones vector.
    s = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert abs(power_spectral_norm(s) - 2.0) < 1e-10


def test_power_spectral_norm_zero_matrix():
    assert power_spectral_norm(np.zeros((3, 3))) == 0.0
