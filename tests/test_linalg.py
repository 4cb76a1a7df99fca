import re

import numpy as np
import pytest

from sparsedyn.errors import ConstructionError, NumericalError, StabilityError
from sparsedyn.evaluate import (
    default_support_threshold,
    export_dependency_graph,
    predict,
    recovery_report,
)
from sparsedyn.generate import GenSpec, gen_random_system
from sparsedyn.linalg import (
    as_matrix,
    matrix_exponential,
    power_spectral_norm,
    prox_l1,
    prox_nuclear,
    require_stable,
    solve_lyapunov_continuous,
    solve_lyapunov_discrete,
)
from sparsedyn.model import (
    SystemParams,
    incoherence_mu,
    lasso_incoherence_theta,
    max_row_l1,
    row_supports,
    support_size,
)
from sparsedyn.rng import CounterRng
from sparsedyn.simulate import (
    SufficientStats,
    Trajectory,
    binned_increment_covariance,
    exact_increment_covariance,
)
from sparsedyn.solver import SolverConfig, fit

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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_lyapunov_continuous_bound_is_scale_free(monkeypatch, scale):
    # Q shrinks like 1/||A||, so a bound relative to ||Q||_F rejected good
    # solves of large drifts and passed bad ones of small drifts; the
    # residual is bounded by the constant term, 1e-10 ||I||_F.
    import scipy.linalg

    a = scale * gen_random_system(GenSpec(p=40, r=2, s=3, seed=7)).joint()
    q = solve_lyapunov_continuous(a)
    assert np.linalg.norm(a @ q + q @ a.T + np.eye(len(a))) <= 1e-10 * np.sqrt(len(a))
    noise = CounterRng(11).normal_matrix(*q.shape)
    bump = 1e-8 * np.linalg.norm(q) * (noise + noise.T) / np.linalg.norm(noise + noise.T)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", lambda *_: q + bump)
    with pytest.raises(NumericalError, match="^continuous Lyapunov solve failed: residual "):
        solve_lyapunov_continuous(a)


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


# require_stable, which the solve calls, ended in a bare LinAlgError on a
# NaN eta and warned of an invalid value on an infinite one.
@pytest.mark.parametrize("call, eta, message", [
    (solve_lyapunov_discrete, np.nan, "eta must be finite and positive, got nan"),
    (solve_lyapunov_discrete, np.inf, "eta must be finite and positive, got inf"),
    (solve_lyapunov_discrete, 0.0, "eta must be finite and positive, got 0.0"),
    (solve_lyapunov_discrete, True, "eta must be a real number, got True"),
    (solve_lyapunov_discrete, "0.1", "eta must be a real number, got '0.1'"),
    (require_stable, np.nan, "eta must be finite and non-negative, got nan"),
    (require_stable, np.inf, "eta must be finite and non-negative, got inf"),
], ids=["nan", "inf", "zero", "bool", "str", "require_stable-nan", "require_stable-inf"])
def test_lyapunov_discrete_rejects_nonfinite_eta(call, eta, message):
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call(-np.eye(2), eta)


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


def _svt_by_svd(m, tau):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vh, shrunk


def _count_svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def _svt_inputs():
    rng = CounterRng(21)
    return {"square": rng.normal_matrix(6, 6), "wide": rng.normal_matrix(4, 7),
            "tall": rng.normal_matrix(7, 4),
            "rank-2": rng.normal_matrix(6, 2) @ rng.normal_matrix(2, 6)}


@pytest.mark.parametrize("shape", ["square", "wide", "tall", "rank-2"])
@pytest.mark.parametrize("rel_tau", [0.5, 0.1, 1e-3, 2e-4, 0.0])
def test_prox_nuclear_matches_svd_thresholding(shape, rel_tau, monkeypatch):
    m = _svt_inputs()[shape]
    sigma_1 = np.linalg.norm(m, 2)
    tau = rel_tau * sigma_1
    ref_out, ref_shrunk = _svt_by_svd(m, tau)
    svd_calls = _count_svd_calls(monkeypatch)
    out, shrunk = prox_nuclear(m, tau)
    # Only tau = 0 (below 1e-4 sigma_1) leaves the Gram route.
    assert len(svd_calls) == (rel_tau == 0.0)
    assert out.shape == m.shape and shrunk.shape == (min(m.shape),)
    assert np.abs(out - ref_out).max() <= 1e-12 * sigma_1
    assert np.abs(shrunk - ref_shrunk).max() <= 1e-12 * sigma_1
    assert np.all(np.diff(shrunk) <= 0)
    # Thresholded values are exact zeros, in the same places as the SVD's.
    assert np.array_equal(shrunk == 0, ref_shrunk == 0)


# The Gram matrix overflows at entries of 1e200 and is subnormal at 1e-160.
@pytest.mark.parametrize("scale, rel_tau", [(1.0, 0.5e-4), (1e200, 0.1), (1e-160, 0.1)],
                         ids=["tau-below-1e-4-sigma", "entries-1e200", "entries-1e-160"])
def test_prox_nuclear_falls_back_to_the_exact_svd(scale, rel_tau, monkeypatch):
    m = scale * _svt_inputs()["square"]
    tau = rel_tau * np.linalg.norm(m, 2)
    ref_out, ref_shrunk = _svt_by_svd(m, tau)
    svd_calls = _count_svd_calls(monkeypatch)
    out, shrunk = prox_nuclear(m, tau)
    assert svd_calls == [m.shape]
    assert np.array_equal(out, ref_out) and np.array_equal(shrunk, ref_shrunk)


def _failing(name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")
    return fail


def test_prox_nuclear_takes_the_exact_svd_when_eigh_fails(monkeypatch):
    m = _svt_inputs()["square"]
    tau = 0.1 * np.linalg.norm(m, 2)
    ref_out, ref_shrunk = _svt_by_svd(m, tau)
    monkeypatch.setattr(np.linalg, "eigh", _failing("eigh"))
    svd_calls = _count_svd_calls(monkeypatch)
    out, shrunk = prox_nuclear(m, tau)
    assert svd_calls == [m.shape]
    assert np.array_equal(out, ref_out) and np.array_equal(shrunk, ref_shrunk)


def test_prox_nuclear_raises_numerical_error_when_the_svd_fails(monkeypatch):
    m = _svt_inputs()["square"]
    monkeypatch.setattr(np.linalg, "eigh", _failing("eigh"))
    monkeypatch.setattr(np.linalg, "svd", _failing("svd"))
    with pytest.raises(NumericalError, match="^SVD did not converge: svd did not converge$"):
        prox_nuclear(m, 0.1)


def test_as_matrix_rejects_an_array_that_is_not_2d():
    with pytest.raises(ConstructionError, match=r"^A must be 2-D, got shape \(3,\)$"):
        as_matrix(np.zeros(3), "A")


@pytest.mark.parametrize("shape, expected", [
    (None, None), ((2, 3), None), ((2, None), None), ((None, 3), None), ((None, None), None),
    ("square", "square"), ((3, None), "3 x any"), ((None, 2), "any x 2"), ((3, 2), "3 x 2"),
])
def test_as_matrix_checks_the_expected_shape(shape, expected):
    m = np.zeros((2, 3))
    if expected is None:
        assert as_matrix(m, "M", shape) is m
    else:
        with pytest.raises(ConstructionError,
                           match=f"^M must be {expected}, got shape \\(2, 3\\)$"):
            as_matrix(m, "M", shape)


def _system(**blocks):
    return SystemParams(**{"A": -np.eye(2), "B": np.zeros((2, 1)), "C": np.zeros((1, 2)),
                           "D": -np.eye(1), **blocks})


def _stats(**blocks):
    return SufficientStats(**{"S1": np.eye(2), "S2": np.zeros((2, 2)), **blocks}, n=4, eta=0.1,
                           sq_increment_sum=1.0)


_HISTORY = Trajectory(x=np.ones((3, 2)), eta=0.1)
_EYE = np.eye(2)

# Every matrix argument of a public function, as (where, the name its error
# gives, the expected shape as the error states it, a matrix of that shape,
# the call with ``m`` in the argument's place).  The sampled path, the
# start vector and the noise of ``simulate`` keep their own memory-bounded
# checks, and ``objective``/``smooth_gradient`` run inside ``fit`` on
# matrices it has checked.
MATRIX_ARGUMENTS = [
    ("as_matrix", "M", "2 x any", _EYE, lambda m: as_matrix(m, "M", (2, None))),
    ("require_stable", "A", "square", -_EYE, lambda m: require_stable(m)),
    ("matrix_exponential", "matrix_exponential input", "square", _EYE, matrix_exponential),
    ("lyapunov_continuous", "A", "square", -_EYE, solve_lyapunov_continuous),
    ("lyapunov_discrete", "A", "square", -_EYE, lambda m: solve_lyapunov_discrete(m, 0.1)),
    ("prox_l1", "prox_l1 input", "2-D", _EYE, lambda m: prox_l1(m, 0.1)),
    ("prox_nuclear", "prox_nuclear input", "2-D", _EYE, lambda m: prox_nuclear(m, 0.1)),
    ("power_spectral_norm", "power_spectral_norm input", "square", _EYE, power_spectral_norm),
    ("SystemParams-A", "A", "square", -_EYE, lambda m: _system(A=m)),
    ("SystemParams-B", "B", "2 x any", np.zeros((2, 1)), lambda m: _system(B=m)),
    ("SystemParams-C", "C", "1 x 2", np.zeros((1, 2)), lambda m: _system(C=m)),
    ("SystemParams-D", "D", "1 x 1", -np.eye(1), lambda m: _system(D=m)),
    ("incoherence_mu", "L", "square", _EYE, incoherence_mu),
    ("row_supports", "A", "2-D", _EYE, row_supports),
    ("support_size", "A", "2-D", _EYE, support_size),
    ("lasso_incoherence_theta", "Q", "square", _EYE,
     lambda m: lasso_incoherence_theta(m, [(0,)])),
    ("max_row_l1", "B", "2-D", _EYE, max_row_l1),
    ("exact_increment_covariance", "joint", "square", -_EYE,
     lambda m: exact_increment_covariance(m, 0.1)),
    ("binned_increment_covariance", "joint", "square", -_EYE,
     lambda m: binned_increment_covariance(m, 0.1, 2)),
    ("fit-S1", "S1", "square", _EYE, lambda m: fit(_stats(S1=m), 1.0, SolverConfig(0.1, 0.1))),
    ("fit-S2", "S2", "2 x 2", _EYE, lambda m: fit(_stats(S2=m), 1.0, SolverConfig(0.1, 0.1))),
    ("default_support_threshold", "Ahat", "2-D", _EYE, default_support_threshold),
    ("recovery_report-Ahat", "Ahat", "2-D", _EYE, lambda m: recovery_report(m, _EYE, _EYE, _EYE)),
    ("recovery_report-Astar", "Astar", "2 x 2", _EYE,
     lambda m: recovery_report(_EYE, m, _EYE, _EYE)),
    ("recovery_report-Lhat", "Lhat", "2-D", _EYE, lambda m: recovery_report(_EYE, _EYE, m, _EYE)),
    ("recovery_report-Lstar", "Lstar", "2 x 2", _EYE,
     lambda m: recovery_report(_EYE, _EYE, _EYE, m)),
    ("predict-Ahat", "Ahat", "2 x 2", -_EYE, lambda m: predict(m, 0 * _EYE, _HISTORY, 2)),
    ("predict-Lhat", "Lhat", "2 x 2", 0 * _EYE, lambda m: predict(-_EYE, m, _HISTORY, 2)),
    ("predict-actuals", "actuals", "2 x 2", _EYE,
     lambda m: predict(-_EYE, 0 * _EYE, _HISTORY, 2, actuals=m)),
    ("export_dependency_graph", "Ahat", "square", _EYE, export_dependency_graph),
]


@pytest.mark.parametrize("case", ["1-D", "NaN", "shape"])
@pytest.mark.parametrize("name, expected, good, call", [row[1:] for row in MATRIX_ARGUMENTS],
                         ids=[row[0] for row in MATRIX_ARGUMENTS])
def test_every_matrix_argument_fails_in_one_form(name, expected, good, call, case):
    # Another shape has one more row, or is 3-D where any 2-D shape passes.
    if case == "NaN":
        bad = good.copy()
        bad[0, 0] = np.nan
        message = f"{name} contains non-finite entries"
    else:
        bad = (np.ones(2) if case == "1-D" else np.zeros((1, *good.shape)) if expected == "2-D"
               else np.zeros((good.shape[0] + 1, good.shape[1])))
        message = f"{name} must be {expected}, got shape {bad.shape}"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_prox_nuclear_rejects_nonfinite():
    with pytest.raises(ConstructionError):
        prox_nuclear(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


def test_prox_rejects_negative_tau():
    # tau = inf returned zeros, True thresholded at 1, and '0.1' and 10**400
    # ended in a bare TypeError and OverflowError.
    for tau, message in ((-0.1, "tau must be finite and non-negative, got -0.1"),
                         (np.nan, "tau must be finite and non-negative, got nan"),
                         (np.inf, "tau must be finite and non-negative, got inf"),
                         (True, "tau must be a real number, got True"),
                         ("0.1", "tau must be a real number, got '0.1'"),
                         (10**400, "tau must be finite and non-negative, "
                                   "got an integer beyond the float range")):
        for prox in (prox_l1, prox_nuclear):
            with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
                prox(np.eye(2), tau)


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
