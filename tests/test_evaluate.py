import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from sparsedyn.errors import ConfigError, ConstructionError, DivergenceError
from sparsedyn.evaluate import (
    PROTOCOL_MAX_ITER,
    PROTOCOL_TOL,
    PhasePoint,
    PhaseResult,
    block_cross_validate,
    default_support_threshold,
    export_dependency_graph,
    lambda_pair_from_constants,
    phase_transition,
    predict,
    recovery_report,
)
from sparsedyn.generate import GenSpec, gen_random_system
from sparsedyn.model import control_parameter, steady_state
from sparsedyn.rng import CounterRng, derive_seed
from sparsedyn.simulate import Trajectory, simulate_continuous, sufficient_stats
from sparsedyn.solver import SolverConfig, fit


# ------------------------------------------------------ recovery report


@pytest.mark.parametrize("zeta, message", [
    (-1.0, "zeta must be finite and non-negative, got -1.0"),
    (float("nan"), "zeta must be finite and non-negative, got nan"),
    (float("inf"), "zeta must be finite and non-negative, got inf"),
    # True was a threshold of 1 and '0.1' ended in a bare TypeError.
    (True, "zeta must be a real number, got True"),
    ("0.1", "zeta must be a real number, got '0.1'"),
], ids=["-1.0", "nan", "inf", "bool", "str"])
def test_support_threshold_must_be_finite_and_non_negative(zeta, message):
    eye = np.eye(2)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        recovery_report(eye, eye, eye, eye, zeta=zeta)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        export_dependency_graph(eye, zeta=zeta)


@pytest.mark.parametrize("ahat, lhat, message", [
    (np.eye(3), np.eye(2), r"^Astar must be 3 x 3, got shape \(2, 2\)$"),
    (np.eye(2), np.eye(3), r"^Lstar must be 3 x 3, got shape \(2, 2\)$"),
], ids=["A", "L"])
def test_recovery_report_rejects_shapes_that_differ_from_the_truth(ahat, lhat, message):
    with pytest.raises(ConstructionError, match=message):
        recovery_report(ahat, np.eye(2), lhat, np.eye(2))


def test_recovery_report_perfect():
    rng = CounterRng(1)
    a = rng.normal_matrix(4, 4)
    l_mat = rng.normal_matrix(4, 4)
    rep = recovery_report(a, a, l_mat, l_mat)
    assert rep.support_subset and rep.signed_match
    assert rep.linf_error == 0.0 and rep.spectral_error_L == 0.0


def test_recovery_report_extra_entry_breaks_subset():
    a = np.diag([1.0, -2.0, 3.0])
    zeta = 0.1
    ahat = a.copy()
    ahat[0, 1] = 2 * zeta
    rep = recovery_report(ahat, a, np.zeros((3, 3)), np.zeros((3, 3)), zeta=zeta)
    assert not rep.support_subset
    assert not rep.signed_match


def test_recovery_report_missing_entry_keeps_subset():
    a = np.diag([1.0, -2.0, 3.0])
    ahat = a.copy()
    ahat[2, 2] = 0.0
    rep = recovery_report(ahat, a, np.zeros((3, 3)), np.zeros((3, 3)), zeta=1e-9)
    assert rep.support_subset
    assert not rep.signed_match


def test_recovery_report_sign_flip_detected():
    a = np.diag([1.0, -2.0])
    ahat = np.diag([1.0, 2.0])
    rep = recovery_report(ahat, a, np.zeros((2, 2)), np.zeros((2, 2)), zeta=1e-9)
    assert rep.support_subset  # same support
    assert not rep.signed_match


def test_recovery_report_norms():
    a = np.zeros((2, 2))
    ahat = np.array([[0.5, 0.0], [0.0, -0.25]])
    lstar = np.eye(2)
    rep = recovery_report(ahat, a, np.zeros((2, 2)), lstar, zeta=1.0)
    assert rep.linf_error == 0.5
    assert abs(rep.spectral_error_L - 1.0) < 1e-14


def test_default_support_threshold_scales():
    assert default_support_threshold(np.zeros((2, 2))) == 1e-6
    assert abs(default_support_threshold(5.0 * np.eye(2)) - 5e-6) < 1e-18


# ------------------------------------------------------ phase transition


def _tiny_sweep():
    base = GenSpec(p=8, r=2, s=1, seed=0, eta=0.0)
    sweep = [{"eta": 0.1, "n": 50}, {"eta": 0.1, "n": 400}]
    return base, sweep


def test_phase_transition_deterministic():
    base, sweep = _tiny_sweep()
    a = phase_transition(base, sweep, trials=2, lambda_rule=(0.6, 0.5), master_seed=7)
    b = phase_transition(base, sweep, trials=2, lambda_rule=(0.6, 0.5), master_seed=7)
    assert a == b  # bit-identical rows across repeated runs


def test_phase_transition_rows_and_theta():
    base, sweep = _tiny_sweep()
    result = phase_transition(base, sweep, trials=1, lambda_rule=(0.6, 0.5), master_seed=1)
    assert len(result.rows) == 2
    for row, point in zip(result.rows, sweep):
        assert row.n == point["n"] and row.eta == point["eta"]
        assert row.trials == 1
        assert 0 <= row.successes <= row.trials
        expected_theta = control_parameter(point["eta"], point["n"], base.s, base.r, base.p)
        assert abs(row.theta - expected_theta) < 1e-12


def test_phase_transition_csv_header():
    base, sweep = _tiny_sweep()
    result = phase_transition(base, sweep, trials=1, lambda_rule=(0.6, 0.5), master_seed=1)
    text = result.to_csv(comments=["config: {}"])
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "p,r,s,eta,n,theta,trials,successes,success_rate"
    assert len(lines) == 2 + len(sweep)


def test_phase_csv_golden_bytes():
    point = PhasePoint(p=8, r=2, s=1, eta=0.1, n=123, theta=1 / 3, trials=3, successes=1)
    assert PhaseResult(rows=[point]).to_csv(comments=["config: {}"]) == (
        "# config: {}\n"
        "p,r,s,eta,n,theta,trials,successes,success_rate\n"
        "8,2,1,0.10000000000000001,123,0.33333333333333331,3,1,0.33333333333333331\n"
    )


def test_phase_csv_without_rows_is_its_header():
    assert PhaseResult(rows=[]).to_csv() == "p,r,s,eta,n,theta,trials,successes,success_rate\n"


def test_phase_transition_sweeps_dimensions():
    # Grid points may override s and r; Theta uses the point's values.
    base = GenSpec(p=12, r=2, s=1, seed=0, eta=0.0)
    sweep = [
        {"eta": 0.1, "n": 100, "s": 2},
        {"eta": 0.1, "n": 100, "r": 4},
    ]
    result = phase_transition(base, sweep, trials=1, lambda_rule=(0.6, 0.5),
                              master_seed=2)
    assert result.rows[0].s == 2 and result.rows[0].r == 2
    assert result.rows[1].s == 1 and result.rows[1].r == 4
    assert abs(result.rows[0].theta
               - control_parameter(0.1, 100, 2, 2, 12)) < 1e-12
    assert abs(result.rows[1].theta
               - control_parameter(0.1, 100, 1, 4, 12)) < 1e-12


def test_phase_transition_validates_inputs(monkeypatch):
    # Every point is checked before the first trial: each bad point comes
    # after the good ones, and no system is ever drawn.
    import sparsedyn.evaluate as ev_module

    calls = []

    def counted(spec):
        calls.append(spec)
        return gen_random_system(spec)

    monkeypatch.setattr(ev_module, "gen_random_system", counted)
    base, sweep = _tiny_sweep()
    with pytest.raises(ConstructionError):
        phase_transition(base, sweep, trials=0, lambda_rule=(0.5, 0.5), master_seed=0)
    with pytest.raises(ConstructionError):
        phase_transition(base, [], trials=1, lambda_rule=(0.5, 0.5), master_seed=0)
    for point, message in [
        ({"eta": 0.1}, "sample count 'n'"),
        ({"n": 200}, "sampling step 'eta'"),
        ({"eta": 0.1, "n": 50, "diag_margin": 5.0, "bogus": 1},
         r"unrecognised keys \['bogus', 'diag_margin'\]"),
        ({"eta": 0.1, "n": 50, "s": 0}, "^s must be at least 1, got 0$"),
        ({"eta": float("nan"), "n": 50},
         "^sweep point 2: eta must be finite and positive, got nan$"),
        ({"eta": -0.1, "n": 50}, "^sweep point 2: eta must be finite and positive, got -0.1$"),
        ({"eta": 0.1, "n": 0}, "^n must be at least 1, got 0$"),
    ]:
        with pytest.raises(ConstructionError, match=message):
            phase_transition(base, sweep + [point], trials=2, lambda_rule=(0.6, 0.5),
                             master_seed=7)
    assert calls == []


@pytest.mark.parametrize("point, trials, message", [
    ({"eta": 0.1, "n": 40.9}, 1, "^sweep point 2: n must be an integer, got 40.9$"),
    ({"eta": 0.1, "n": "40"}, 1, "^sweep point 2: n must be an integer, got '40'$"),
    ({"eta": 0.1, "n": True}, 1, "^sweep point 2: n must be an integer, got True$"),
    ({"eta": 0.1, "n": 40, "p": 8.0}, 1, "^sweep point 2: p must be an integer, got 8.0$"),
    ({"eta": "0.1", "n": 40}, 1, "^sweep point 2: eta must be a real number, got '0.1'$"),
    ({"eta": True, "n": 40}, 1, "^sweep point 2: eta must be a real number, got True$"),
    ({"eta": 0.1, "n": 40}, 2.5, "^trials must be an integer, got 2.5$"),
    ({"eta": 0.1, "n": 40}, True, "^trials must be an integer, got True$"),
], ids=["n-float", "n-str", "n-bool", "p-float", "eta-str", "eta-bool", "trials-float",
        "trials-bool"])
def test_phase_transition_rejects_counts_that_are_not_integers(point, trials, message):
    # 40.9 was read as 40 samples, '40' and '0.1' were parsed, True ran one
    # sample or one trial, and trials = 2.5 ended in a bare TypeError.
    base, sweep = _tiny_sweep()
    with pytest.raises(ConstructionError, match=message):
        phase_transition(base, sweep + [point], trials=trials, lambda_rule=(0.6, 0.5),
                         master_seed=7)


def test_phase_transition_takes_numpy_integers_and_reals():
    base, sweep = _tiny_sweep()
    numpy_sweep = [{"eta": np.float64(pt["eta"]), "n": np.int64(pt["n"]), "s": np.int32(1)}
                   for pt in sweep]
    result = phase_transition(base, numpy_sweep, trials=np.int64(2), lambda_rule=(0.6, 0.5),
                              master_seed=7)
    assert result == phase_transition(base, sweep, trials=2, lambda_rule=(0.6, 0.5),
                                      master_seed=7)
    assert all(type(row.n) is int and type(row.trials) is int and type(row.eta) is float
               for row in result.rows)


# ------------------------------------------------------ cross-validation


def _cv_trajectory(seed: int = 5, n: int = 600):
    params = gen_random_system(GenSpec(p=6, r=2, s=2, seed=seed))
    return simulate_continuous(params, eta=0.1, n=n, mode="binned", seed=seed + 1)


def test_cv_single_candidate_returned():
    traj = _cv_trajectory()
    sel = block_cross_validate(traj, grid_c=[0.7], grid_d=[1.3], chunk_count=3)
    assert sel.c == 0.7 and sel.d == 1.3
    lam_a, lam_l = lambda_pair_from_constants(0.7, 1.3, traj.p, 1, 1, traj.eta, traj.n)
    assert abs(sel.lambda_a - lam_a) < 1e-15
    assert abs(sel.lambda_l - lam_l) < 1e-15


def test_cv_prefers_informative_over_overregularized():
    # A c so large the fit returns zero loses to a moderate c on data with
    # strong signal.
    traj = _cv_trajectory(seed=9, n=1200)
    sel = block_cross_validate(traj, grid_c=[0.5, 500.0], grid_d=[1.0], chunk_count=4)
    assert sel.c == 0.5


def test_cv_deterministic():
    traj = _cv_trajectory(seed=11)
    a = block_cross_validate(traj, grid_c=[0.5, 1.0], grid_d=[0.5, 1.0], chunk_count=3)
    b = block_cross_validate(traj, grid_c=[0.5, 1.0], grid_d=[0.5, 1.0], chunk_count=3)
    assert a == b


def test_cv_fold_spans_disjoint_and_cover():
    traj = _cv_trajectory(n=601)
    sel = block_cross_validate(traj, grid_c=[1.0], grid_d=[1.0], chunk_count=5)
    spans = sel.fold_spans
    assert spans[0][0] == 0 and spans[-1][1] == traj.n
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 == b0  # contiguous, hence disjoint half-open ranges
        assert a1 > a0
    assert spans[-1][1] > spans[-1][0]


def test_cv_tie_breaks_toward_sparser():
    # Force exact ties by scoring against constant-zero data: every c
    # yields the zero estimate, so errors tie and the largest (c, d) wins.
    x = np.zeros((61, 3))
    traj = Trajectory(x=x + 1e-12, eta=0.1)
    sel = block_cross_validate(traj, grid_c=[0.5, 1.0, 2.0], grid_d=[0.5, 1.0], chunk_count=3)
    assert sel.c == 2.0 and sel.d == 1.0


def test_cv_validates_arguments():
    traj = _cv_trajectory()
    with pytest.raises(ConfigError):
        block_cross_validate(traj, grid_c=[], grid_d=[1.0])
    with pytest.raises(ConfigError):
        block_cross_validate(traj, grid_c=[1.0], grid_d=[1.0], chunk_count=1)


@pytest.mark.parametrize("chunk_count", [2.5, True, "3"])
def test_cv_rejects_a_chunk_count_that_is_not_an_integer(chunk_count):
    message = f"^chunk_count must be an integer, got {re.escape(repr(chunk_count))}$"
    with pytest.raises(ConfigError, match=message):
        block_cross_validate(_cv_trajectory(), grid_c=[1.0], grid_d=[1.0],
                             chunk_count=chunk_count)


def test_cv_takes_a_numpy_integer_chunk_count():
    traj = _cv_trajectory()
    assert (block_cross_validate(traj, grid_c=[1.0], grid_d=[1.0], chunk_count=np.int64(3))
            == block_cross_validate(traj, grid_c=[1.0], grid_d=[1.0], chunk_count=3))


def test_cv_reference_sizes_are_checked_by_the_rule():
    with pytest.raises(ConstructionError, match="^r must be at least 0, got -5$"):
        block_cross_validate(_cv_trajectory(), grid_c=[1.0], grid_d=[1.0], r_ref=-5)


@pytest.mark.parametrize("grid_c, grid_d, r_ref, message", [
    ([0.5, -1.0], [1.0], 1, "^c must be finite and positive, got -1.0$"),
    ([0.5], [1.0, -1.0], 1, "^d must be finite and non-negative, got -1.0$"),
    ([0.5], [1.0], -5, "^r must be at least 0, got -5$"),
], ids=["bad-c", "bad-d", "bad-r-ref"])
def test_cv_checks_the_whole_grid_before_any_work(monkeypatch, grid_c, grid_d, r_ref, message):
    # The bad candidate comes last, yet no chunk is reduced and no fold fitted.
    import sparsedyn.evaluate as ev_module

    calls = []

    def counting(name):
        real = getattr(ev_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("sufficient_stats", "fit"):
        monkeypatch.setattr(ev_module, name, counting(name))
    traj = _cv_trajectory()
    with pytest.raises(ConstructionError, match=message):
        block_cross_validate(traj, grid_c=grid_c, grid_d=grid_d, chunk_count=3, r_ref=r_ref)
    assert calls == []


def test_cv_pure_lasso_mode():
    traj = _cv_trajectory(seed=13)
    sel = block_cross_validate(traj, grid_c=[0.5, 1.0], grid_d=[9.9],
                               chunk_count=3, mode="pure_lasso")
    assert sel.d == 0.0  # latent weight unused in the latent-blind mode


def test_cv_warns_once_naming_the_fits_that_did_not_converge(caplog):
    traj = _cv_trajectory()
    with caplog.at_level(logging.WARNING, logger="sparsedyn"):
        block_cross_validate(traj, grid_c=[0.5, 1.0], grid_d=[1.0], chunk_count=3, max_iter=1)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING and record.name == "sparsedyn"
    triples = [(c, 1.0, fold) for c in (0.5, 1.0) for fold in range(3)]
    assert record.getMessage() == (
        "cross-validation: 6 fits stopped at max_iter=1 without converging, "
        f"(c, d, fold): {triples}")


def test_cv_converged_grid_logs_no_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="sparsedyn"):
        block_cross_validate(_cv_trajectory(seed=11), grid_c=[0.5, 1.0], grid_d=[0.5, 1.0],
                             chunk_count=3)
    assert caplog.records == []


def test_cv_merges_each_fold_once(monkeypatch):
    import sparsedyn.evaluate as evaluate_module

    calls = []
    real_merge = evaluate_module.merge_stats

    def counting_merge(parts):
        calls.append(len(parts))
        return real_merge(parts)

    monkeypatch.setattr(evaluate_module, "merge_stats", counting_merge)
    block_cross_validate(_cv_trajectory(), grid_c=[0.5, 1.0], grid_d=[0.5, 1.0], chunk_count=5)
    assert calls == [4] * 5


# -------------------------------------------------------------- predict


def test_predict_zero_model_constant():
    x = np.vstack([np.linspace(0, 1, 5), np.linspace(1, 2, 5)]).T
    traj = Trajectory(x=x, eta=0.5)
    zero = np.zeros((2, 2))
    actuals = np.tile(traj.x[-1] + 0.1, (4, 1))
    preds, mse = predict(zero, zero, traj, horizon=4, actuals=actuals)
    assert np.all(preds == traj.x[-1])
    assert abs(mse - 0.1**2) < 1e-12


def test_predict_exact_on_noise_free_dynamics():
    rng = CounterRng(3)
    m = rng.normal_matrix(3, 3) * 0.1 - 0.5 * np.eye(3)
    eta = 0.05
    x = [np.array([1.0, -1.0, 0.5])]
    for _ in range(30):
        x.append(x[-1] + eta * (m @ x[-1]))
    x = np.asarray(x)
    history = Trajectory(x=x[:21], eta=eta)
    preds, mse = predict(m, np.zeros((3, 3)), history, horizon=10, actuals=x[21:31])
    assert mse < 1e-16
    assert np.allclose(preds, x[21:31], atol=1e-10)


def test_predict_split_between_A_and_L_is_irrelevant():
    rng = CounterRng(4)
    a = rng.normal_matrix(2, 2)
    l_mat = rng.normal_matrix(2, 2)
    traj = Trajectory(x=rng.normal_matrix(5, 2), eta=0.1)
    p1, _ = predict(a, l_mat, traj, horizon=3)
    p2, _ = predict(a + l_mat, np.zeros((2, 2)), traj, horizon=3)
    assert np.allclose(p1, p2, atol=1e-12)


def test_predict_validates():
    traj = Trajectory(x=np.zeros((3, 2)), eta=0.1)
    with pytest.raises(ConstructionError):
        predict(np.zeros((2, 2)), np.zeros((2, 2)), traj, horizon=0)
    with pytest.raises(ConstructionError):
        predict(np.zeros((2, 2)), np.zeros((2, 2)), traj, horizon=2,
                actuals=np.zeros((3, 2)))


@pytest.mark.parametrize("horizon", [2.5, True, "2"])
def test_predict_rejects_a_horizon_that_is_not_an_integer(horizon):
    traj = Trajectory(x=np.zeros((3, 2)), eta=0.1)
    with pytest.raises(ConstructionError,
                       match=f"^horizon must be an integer, got {re.escape(repr(horizon))}$"):
        predict(np.zeros((2, 2)), np.zeros((2, 2)), traj, horizon=horizon)


def test_predict_takes_a_numpy_integer_horizon():
    traj = Trajectory(x=np.ones((3, 2)), eta=0.1)
    preds, _ = predict(-np.eye(2), np.zeros((2, 2)), traj, horizon=np.int64(2))
    assert np.array_equal(preds, predict(-np.eye(2), np.zeros((2, 2)), traj, horizon=2)[0])


@pytest.mark.parametrize("a_shape,l_shape", [((3, 3), (3, 3)), ((2, 2), (3, 3)), ((2, 3), (2, 3))])
def test_predict_rejects_estimate_of_another_dimension(a_shape, l_shape):
    traj = Trajectory(x=np.zeros((3, 2)), eta=0.1)
    with pytest.raises(ConstructionError, match=r"^[AL]hat must be 2 x 2, got shape"):
        predict(np.zeros(a_shape), np.zeros(l_shape), traj, horizon=2)


# ------------------------------------------------------ dependency graph


def test_graph_diagonal_matrix_has_no_edges():
    graph = export_dependency_graph(np.diag([1.0, -2.0, 3.0]), zeta=1e-9)
    assert graph.edges == []
    assert abs(graph.sparsity - 3 / 9) < 1e-15


def test_graph_single_pair():
    a = np.diag([1.0, 1.0, 1.0])
    a[0, 2] = 0.5
    graph = export_dependency_graph(a, zeta=1e-9, labels=["u", "v", "w"])
    assert graph.edges == [(0, 2)]
    dot = graph.to_dot()
    assert "n0 -- n2;" in dot and 'label="u"' in dot
    csv = graph.to_edge_csv()
    assert csv.splitlines() == ["source,target", "u,w"]


def test_graph_exports_golden_bytes():
    # An entry above zeta on either side of the diagonal makes one edge,
    # listed by row, then column, of the upper triangle.
    a = np.zeros((4, 4))
    a[0, 3], a[2, 1], a[1, 2], a[3, 2], a[1, 1] = 1.0, -1.0, 1.0, 1.0, 1.0
    graph = export_dependency_graph(a, zeta=0.5, labels=["a", "b", "c", "d"])
    assert graph.edges == [(0, 3), (1, 2), (2, 3)]
    assert graph.to_dot() == (
        "graph dependencies {\n"
        '  n0 [label="a"];\n  n1 [label="b"];\n  n2 [label="c"];\n  n3 [label="d"];\n'
        "  n0 -- n3;\n  n1 -- n2;\n  n2 -- n3;\n"
        "}\n"
    )
    assert graph.to_edge_csv() == "source,target\na,d\nb,c\nc,d\n"


def test_graph_dot_escapes_quotes_and_backslashes():
    graph = export_dependency_graph(np.eye(2), zeta=0.5, labels=['A"x', "B\\y"])
    dot = graph.to_dot()
    assert 'n0 [label="A\\"x"];' in dot
    assert 'n1 [label="B\\\\y"];' in dot


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
def test_graph_rejects_labels_the_edge_list_cannot_carry(label):
    with pytest.raises(ConstructionError, match=re.escape(f"label {label!r}")):
        export_dependency_graph(np.array([[1, 0.5], [0, 1]]), zeta=0.1, labels=[label, "c"])


def test_graph_rejects_duplicate_labels():
    # ["a", "a"] wrote the edge between two nodes as the self-loop "a,a".
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ConstructionError, match=re.escape("duplicate label(s) ['a']")):
        export_dependency_graph(a, zeta=0.1, labels=["a", "a"])
    with pytest.raises(ConstructionError, match=re.escape("duplicate label(s) ['a', 'b']")):
        export_dependency_graph(np.eye(4), zeta=0.1, labels=["b", "a", "b", "a"])


@pytest.mark.parametrize("labels, message", [
    ([1, 2], "label 1 must be a string"),
    (["a", None], "label None must be a string"),
    ([["a"], "b"], "label ['a'] must be a string"),
], ids=["int", "none", "list"])
def test_graph_rejects_labels_that_are_not_strings(labels, message):
    # These ended in a bare TypeError.
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        export_dependency_graph(np.eye(2), zeta=0.1, labels=labels)


def test_graph_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ConstructionError, match=r"^Ahat must be square, got shape \(2, 3\)$"):
        export_dependency_graph(np.zeros((2, 3)))


def test_graph_symmetric_detection():
    a = np.zeros((3, 3))
    a[2, 1] = -0.4  # one direction only
    graph = export_dependency_graph(a, zeta=0.1)
    assert graph.edges == [(1, 2)]


def test_graph_threshold_excludes_small_entries():
    a = np.zeros((2, 2))
    a[0, 1] = 0.05
    assert export_dependency_graph(a, zeta=0.1).edges == []
    assert export_dependency_graph(a, zeta=0.01).edges == [(0, 1)]


def test_graph_label_validation():
    with pytest.raises(ConstructionError):
        export_dependency_graph(np.eye(3), labels=["a", "b"])


def test_phase_transition_builds_no_path(monkeypatch):
    # Each trial reduces its chain in the noise basis: neither the path
    # sampler nor the path reducer runs.
    import sparsedyn.evaluate as ev_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a phase trial built a path")

    monkeypatch.setattr(ev_module, "simulate_continuous", forbidden)
    monkeypatch.setattr(ev_module, "sufficient_stats", forbidden)
    base, sweep = _tiny_sweep()
    result = phase_transition(base, sweep, trials=2, lambda_rule=(0.6, 0.5), master_seed=7)
    assert [row.trials for row in result.rows] == [2, 2]


def test_phase_transition_gives_the_rows_and_fits_of_the_path_protocol(monkeypatch):
    # The documented protocol on whole paths, trial by trial.  No trial of
    # this ensemble recovers its support, so each fit is compared too: the
    # same iterations, and estimates equal to rounding.
    import sparsedyn.evaluate as ev_module

    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(ev_module, "fit", recorded)
    base, sweep = _tiny_sweep()
    trials, (c, d), master_seed = 4, (0.6, 0.5), 7
    result = phase_transition(base, sweep, trials=trials, lambda_rule=(c, d),
                              master_seed=master_seed)
    rows, mirror = [], []
    for g, point in enumerate(sweep):
        eta, n = point["eta"], point["n"]
        lam_a, lam_l = lambda_pair_from_constants(c, d, base.p, base.r, base.s, eta, n)
        config = SolverConfig(lambda_a=lam_a, lambda_l=lam_l, max_iter=PROTOCOL_MAX_ITER,
                              tol=PROTOCOL_TOL)
        successes = 0
        for t in range(trials):
            seed = derive_seed(master_seed, g, t)
            system = gen_random_system(replace(base, seed=seed))
            stats = sufficient_stats(simulate_continuous(system, eta=eta, n=n, mode="binned",
                                                         bins=10, seed=derive_seed(seed, 1)))
            est = fit(stats, stats.sq_increment_sum, config)
            mirror.append(est)
            report = recovery_report(est.Ahat, system.A, est.Lhat, steady_state(system).L)
            successes += int(report.signed_match)
        rows.append(PhasePoint(p=base.p, r=base.r, s=base.s, eta=eta, n=n,
                               theta=control_parameter(eta, n, base.s, base.r, base.p),
                               trials=trials, successes=successes))
    assert result.rows == rows
    assert [est.iterations for est in fits] == [est.iterations for est in mirror]
    for est, ref in zip(fits, mirror, strict=True):
        for got, want in ((est.Ahat, ref.Ahat), (est.Lhat, ref.Lhat)):
            assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_phase_transition_counts_a_diverged_fit_as_a_failure(monkeypatch):
    # The fits of trials 1, 2 (first point) and 5 (second point) diverge;
    # every other trial is scored a success.  The sweep still finishes.
    import sparsedyn.evaluate as ev_module

    fits, scored = [], []
    real_fit = ev_module.fit

    def diverging(*args, **kwargs):
        fits.append(len(fits))
        if fits[-1] in (1, 2, 5):
            raise DivergenceError("injected")
        return real_fit(*args, **kwargs)

    def always_recovered(*args, **kwargs):
        scored.append(fits[-1])
        return replace(recovery_report(*args, **kwargs), signed_match=True)

    monkeypatch.setattr(ev_module, "fit", diverging)
    monkeypatch.setattr(ev_module, "recovery_report", always_recovered)
    base, sweep = _tiny_sweep()
    result = phase_transition(base, sweep, trials=4, lambda_rule=(0.6, 0.5), master_seed=7)
    assert len(fits) == 8
    assert scored == [0, 3, 4, 6, 7]
    assert [(row.trials, row.successes) for row in result.rows] == [(4, 2), (4, 3)]


def _phase_warnings(caplog, monkeypatch, fit=None):
    import sparsedyn.evaluate as ev_module

    if fit is not None:
        monkeypatch.setattr(ev_module, "fit", fit)
    base, sweep = _tiny_sweep()
    with caplog.at_level(logging.WARNING, logger="sparsedyn"):
        phase_transition(base, sweep, trials=3, lambda_rule=(0.6, 0.5), master_seed=7)
    return [(record.name, record.levelno, record.getMessage()) for record in caplog.records]


def test_phase_transition_warns_once_naming_the_fits_that_diverged(caplog, monkeypatch):
    # Fits are numbered in sweep order: fit 4 is trial 1 of point 1.
    import sparsedyn.evaluate as ev_module

    fits, real_fit = [], ev_module.fit

    def diverging(*args, **kwargs):
        fits.append(len(fits))
        if fits[-1] in (0, 4):
            raise DivergenceError("injected")
        return real_fit(*args, **kwargs)

    assert _phase_warnings(caplog, monkeypatch, diverging) == [(
        "sparsedyn", logging.WARNING,
        "phase sweep: 2 fits diverged, (point, trial): [(0, 0), (1, 1)]; 0 stopped at "
        "max_iter=2000 without converging, (point, trial): []")]


def test_phase_transition_warns_once_naming_the_fits_that_did_not_converge(caplog,
                                                                          monkeypatch):
    import sparsedyn.evaluate as ev_module

    fits, real_fit = [], ev_module.fit

    def unconverged(*args, **kwargs):
        fits.append(len(fits))
        est = real_fit(*args, **kwargs)
        return replace(est, converged=False) if fits[-1] in (1, 2, 5) else est

    assert _phase_warnings(caplog, monkeypatch, unconverged) == [(
        "sparsedyn", logging.WARNING,
        "phase sweep: 0 fits diverged, (point, trial): []; 3 stopped at max_iter=2000 "
        "without converging, (point, trial): [(0, 1), (0, 2), (1, 2)]")]


def test_phase_transition_clean_sweep_logs_no_warning(caplog, monkeypatch):
    assert _phase_warnings(caplog, monkeypatch) == []
