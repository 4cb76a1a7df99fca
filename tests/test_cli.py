import argparse
import datetime
import inspect
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsedyn.cli as cli_module
import sparsedyn.evaluate as ev_module
from sparsedyn.cli import ingest_csv, run
from sparsedyn.errors import ConfigError, DataError
from sparsedyn.model import assumption_report
from sparsedyn.rng import CounterRng


def test_cli_import_does_not_load_scipy():
    # Only the matrix exponential and the Lyapunov solvers use scipy, and
    # they import it when called; gen, cv, fit and predict never pay for it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    probe = "import sys, sparsedyn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


# -------------------------------------------------------------- ingest


def test_ingest_roundtrip(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA,BBB\n2020-01-01,10.0,20.5\n2020-01-02,10.5,19.75\n"
                    "2020-01-03,11.25,20.0\n")
    labels, series = ingest_csv(path)
    assert labels == ["AAA", "BBB"]
    assert np.array_equal(series, [[10.0, 20.5], [10.5, 19.75], [11.25, 20.0]])


def test_ingest_missing_cell_rejected_with_row(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA,BBB\n2020-01-01,10.0,20.5\n2020-01-02,,19.0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path)


def test_ingest_forward_fill(tmp_path, caplog):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA\n2020-01-01,10.0\n2020-01-02,\n2020-01-03,12.0\n")
    with caplog.at_level(logging.INFO, logger="sparsedyn"):
        _, series = ingest_csv(path, missing="ffill")
    assert "forward-filled 1 missing cells" in caplog.text
    assert np.array_equal(series[:, 0], [10.0, 10.0, 12.0])


def test_ingest_requires_increasing_times(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA\n2020-01-02,10.0\n2020-01-01,11.0\n")
    with pytest.raises(DataError, match="strictly increasing"):
        ingest_csv(path)


def _write_prices(directory, stamps) -> Path:
    path = Path(directory) / "prices.csv"
    lines = ["date,A"] + [f"{t},{10.0 + i}" for i, t in enumerate(stamps)]
    path.write_text("\n".join(lines) + "\n")
    return path


_DATES = st.dates(min_value=datetime.date(1900, 1, 1), max_value=datetime.date(2100, 12, 31))


@settings(max_examples=60, deadline=None)
@given(st.lists(_DATES, min_size=2, max_size=8, unique=True))
def test_ingest_accepts_iso_dates_only_in_calendar_order(dates):
    stamps = [d.isoformat() for d in dates]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_prices(tmp, stamps)
        if dates == sorted(dates):
            _, series = ingest_csv(path)
            assert np.array_equal(series[:, 0], 10.0 + np.arange(len(stamps)))
        else:
            with pytest.raises(DataError, match="strictly increasing"):
                ingest_csv(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(_DATES, min_size=2, max_size=8, unique=True))
def test_ingest_never_orders_unpadded_dates_as_strings(dates):
    # Written without zero padding, "2024-10-1" < "2024-9-30" as strings:
    # rows in string order must be rejected unless that is calendar order.
    by_stamp = {f"{d.year}-{d.month}-{d.day}": d for d in dates}
    stamps = sorted(by_stamp)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_prices(tmp, stamps)
        try:
            ingest_csv(path)
        except DataError:
            return
    in_file_order = [by_stamp[t] for t in stamps]
    assert in_file_order == sorted(in_file_order)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=8).filter(lambda kinds: len(set(kinds)) == 2))
def test_ingest_rejects_mixed_time_kinds(kinds):
    start = datetime.date(2020, 1, 1)
    stamps = [(start + datetime.timedelta(days=i)).isoformat() if is_date else str(i)
              for i, is_date in enumerate(kinds)]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_prices(tmp, stamps)
        with pytest.raises(DataError, match="mixes dates and numbers"):
            ingest_csv(path)


@pytest.mark.parametrize("header,names", [
    ("date,A,A,C", "duplicate series name(s) ['A']"),
    ("date,B,A,B,A", "duplicate series name(s) ['A', 'B']"),
    ("date,A,,C", "empty series name in column(s) [3]"),
    ("date,A, ,C", "empty series name in column(s) [3]"),
])
def test_ingest_rejects_empty_or_duplicate_series_names(tmp_path, header, names):
    path = tmp_path / "prices.csv"
    width = header.count(",")
    path.write_text(f"{header}\n" + "".join(f"{i}" + ",1.0" * width + "\n" for i in range(3)))
    with pytest.raises(DataError) as info:
        ingest_csv(path)
    assert str(info.value) == f"line 1: {names}"


def test_ingest_header_without_series_names_its_line(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("# source: test\ndate\n1,2.0\n2,3.0\n")
    with pytest.raises(DataError, match="^line 2: header must name at least one series$"):
        ingest_csv(path)


def test_ingest_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("# source: test\n\ndate, A ,B\n1, 2.5 ,3\n\n# gap\n2,4,5\n")
    labels, series = ingest_csv(path)
    assert labels == ["A", "B"]
    assert np.array_equal(series, [[2.5, 3.0], [4.0, 5.0]])


@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan"])
def test_ingest_rejects_non_finite_time_keys(tmp_path, stamp):
    path = tmp_path / "prices.csv"
    path.write_text(f"date,A\n1,2.0\n{stamp},3.0\n")
    with pytest.raises(DataError, match=f"^line 3: cannot order time value '{stamp}'"):
        ingest_csv(path)


def test_ingest_synthetic_paper_scale(tmp_path):
    # 255 business days by 50 series.
    rng = CounterRng(10)
    values = 50.0 + np.cumsum(rng.normal_matrix(255, 50) * 0.5, axis=0)
    lines = ["date," + ",".join(f"S{k:02d}" for k in range(50))]
    for day in range(255):
        lines.append(f"{day}," + ",".join(f"{v:.6f}" for v in values[day]))
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    labels, series = ingest_csv(path)
    assert series.shape == (255, 50)
    assert len(labels) == 50


def test_ingest_conversions(tmp_path):
    rng = CounterRng(11)
    values = np.abs(rng.normal_matrix(6, 2)) + 1.0
    lines = ["date," + ",".join(f"c{j}" for j in range(values.shape[1]))]
    for i, row in enumerate(values):
        lines.append(f"{i}," + ",".join(f"{v:.17g}" for v in row))
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(ingest_csv(path, convert="raw")[1], values)
    assert np.allclose(ingest_csv(path, convert="log")[1], np.log(values))
    assert np.allclose(ingest_csv(path, convert="returns")[1],
                       np.diff(values, axis=0) / values[:-1])


def test_ingest_rejects_unknown_conversion_before_reading(tmp_path):
    # The file does not exist: the conversion is checked first.
    with pytest.raises(ConfigError, match="^unknown conversion 'pct'$"):
        ingest_csv(tmp_path / "missing.csv", convert="pct")


def test_ingest_rejects_unknown_missing_policy_before_reading(tmp_path):
    with pytest.raises(ConfigError,
                       match="^missing policy must be 'reject' or 'ffill', got 'drop'$"):
        ingest_csv(tmp_path / "missing.csv", missing="drop")


# ------------------------------------------------------------- commands


def test_cli_gen_check_illustrative(tmp_path):
    sys_path = tmp_path / "system.json"
    report_path = tmp_path / "report.json"
    assert run(["gen", "--kind", "illustrative", "--p", "16", "--r", "2",
                "--out", str(sys_path)]) == 0
    assert run(["check", "--system", str(sys_path), "--horizon", "100",
                "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    # honest constants of the structured example (see test_model for the
    # closed-form derivations)
    assert abs(report["mu"] - 2.0) < 1e-9
    assert abs(report["alpha"] - 1.5) < 1e-12
    assert abs(report["theta"] - 2.0 / 3.0) < 1e-9
    assert abs(report["D"] - (1.0 - np.sqrt(8.0) / 2.0)) < 1e-12
    assert report["passes"] == {"A1": False, "A2": False, "A3": True}


def test_cli_full_pipeline_and_reproducibility(tmp_path):
    def pipeline(outdir):
        outdir.mkdir(exist_ok=True)
        sys_path = outdir / "system.json"
        traj_path = outdir / "traj.csv"
        cv_path = outdir / "cv.json"
        est_path = outdir / "estimate.json"
        forecast_path = outdir / "forecast.csv"
        assert run(["gen", "--p", "8", "--r", "2", "--s", "2", "--seed", "11",
                    "--out", str(sys_path)]) == 0
        assert run(["simulate", "--system", str(sys_path), "--mode", "binned",
                    "--n", "2000", "--eta", "0.05", "--seed", "21",
                    "--out", str(traj_path)]) == 0
        assert run(["cv", "--data", str(traj_path), "--grid-c", "0.5", "1.0",
                    "--grid-d", "0.5", "1.0", "--chunks", "4",
                    "--out", str(cv_path)]) == 0
        cv = json.loads(cv_path.read_text())
        assert run(["fit", "--data", str(traj_path),
                    "--lambda-a", str(cv["lambda_a"]),
                    "--lambda-l", str(cv["lambda_l"]),
                    "--graph-out", str(outdir / "graph.dot"),
                    "--edges-out", str(outdir / "edges.csv"),
                    "--out", str(est_path)]) == 0
        assert run(["predict", "--data", str(traj_path),
                    "--estimate", str(est_path), "--horizon", "25",
                    "--holdout", "25", "--out", str(forecast_path)]) == 0
        return [sys_path, traj_path, cv_path, est_path, forecast_path,
                outdir / "graph.dot", outdir / "edges.csv"]

    # Artifacts embed their full config (paths included), so byte
    # reproducibility means re-running the same invocation in place.
    outdir = tmp_path / "run"
    files = pipeline(outdir)
    snapshot = {f: f.read_bytes() for f in files}
    pipeline(outdir)
    for f, before in snapshot.items():
        assert f.read_bytes() == before, f"{f.name} not reproducible"
    # forecast must carry a finite mse comment
    forecast = (outdir / "forecast.csv").read_text()
    mse_line = [l for l in forecast.splitlines() if l.startswith("# mse:")]
    assert len(mse_line) == 1
    assert np.isfinite(float(mse_line[0].split(":")[1]))


def test_cli_phase_csv_contract(tmp_path):
    out = tmp_path / "phase.csv"
    assert run(["phase", "--p", "8", "--r", "2", "--s", "1",
                "--etas", "0.1", "--thetas", "0.5", "2.0",
                "--trials", "2", "--c", "0.6", "--d", "0.5",
                "--master-seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "p,r,s,eta,n,theta,trials,successes,success_rate"
    assert len(lines) == 4


def test_cli_error_reports_tag_and_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = run(["check", "--system", str(missing), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ":" in err.split("error:", 1)[1]


def test_cli_fit_rejects_missing_input(tmp_path, capsys):
    code = run(["fit", "--lambda-a", "0.1", "--lambda-l", "0.1",
                "--out", str(tmp_path / "est.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:ConfigError")


def test_cli_config_file_defaults_and_overrides(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"p": 8, "r": 2, "s": 2, "seed": 5}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    assert run(["gen", "--config", str(config), "--out", str(out_a)]) == 0
    assert run(["gen", "--p", "8", "--r", "2", "--s", "2", "--seed", "5",
                "--out", str(out_b)]) == 0
    assert json.loads(out_a.read_text())["A"] == json.loads(out_b.read_text())["A"]
    # explicit flag beats the config value
    assert run(["gen", "--config", str(config), "--seed", "6",
                "--out", str(out_c)]) == 0
    assert json.loads(out_c.read_text())["A"] != json.loads(out_a.read_text())["A"]


def test_cli_config_file_rejects_unknown_field(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"not_a_field": 1}))
    code = run(["gen", "--config", str(config), "--p", "4",
                "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:ConfigError:unrecognized arguments: --not-a-field 1\n")
    assert not (tmp_path / "x.json").exists()


def test_cli_config_file_must_exist(tmp_path, capsys):
    # A missing input file ends as every other one does, in the OS's own words.
    missing = tmp_path / "missing.json"
    code = run(["gen", "--config", str(missing), "--p", "4",
                "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error:OSError:[Errno 2] No such file or directory: '{missing}'\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("form", ["repeated", "equals"])
def test_cli_config_file_given_once(tmp_path, capsys, form):
    # Only one ``--config FILE`` is spliced into the command line; any
    # other spelling would be parsed and dropped, so it is an error.
    first = tmp_path / "first.json"
    first.write_text(json.dumps({"p": 4, "r": 2, "s": 1}))
    second = tmp_path / "second.json"
    second.write_text(json.dumps({"seed": 9}))
    given = {"repeated": ["--config", str(first), "--config", str(second)],
             "equals": ["--p", "4", "--r", "2", "--s", "1", f"--config={second}"]}[form]
    out = tmp_path / "system.json"
    assert run(["gen", *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error:ConfigError:--config may be given only once, as '--config FILE'\n")
    assert not out.exists()


def test_cli_fit_on_prices(tmp_path, monkeypatch):
    calls = []
    real_ingest = cli_module.ingest_csv

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return real_ingest(*args, **kwargs)

    monkeypatch.setattr(cli_module, "ingest_csv", counting_ingest)
    rng = CounterRng(31)
    values = 20.0 + np.cumsum(rng.normal_matrix(60, 3) * 0.1, axis=0)
    lines = ["date,A,B,C"]
    for i, row in enumerate(values):
        lines.append(f"{i}," + ",".join(f"{v:.10f}" for v in row))
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(lines) + "\n")
    est_path = tmp_path / "est.json"
    edges_path = tmp_path / "edges.csv"
    graph_path = tmp_path / "graph.dot"
    assert run(["fit", "--prices", str(prices), "--convert", "log",
                "--lambda-a", "0.05", "--lambda-l", "0.1", "--graph-out", str(graph_path),
                "--edges-out", str(edges_path), "--out", str(est_path)]) == 0
    doc = json.loads(est_path.read_text())
    assert np.asarray(doc["Ahat"]).shape == (3, 3)
    assert edges_path.read_text().startswith("source,target")
    # One parse serves the trajectory and the graph labels.
    assert len(calls) == 1
    assert all(f'label="{name}"' in graph_path.read_text() for name in "ABC")


@pytest.mark.parametrize("stamps", [
    ["2024-10-01", "2024-9-30"],
    ["1", "2024-01-02"],
    ["2024-01-01", "2"],
])
def test_cli_bad_time_column_is_one_error_line(tmp_path, capsys, stamps):
    prices = _write_prices(tmp_path, stamps)
    code = run(["fit", "--prices", str(prices), "--lambda-a", "0.1", "--lambda-l", "0.1",
                "--out", str(tmp_path / "est.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:DataError:")
    assert err.count("\n") == 1


def test_failed_fit_writes_no_artifact(tmp_path, capsys):
    # The estimate was written before the graph export rejected --zeta.
    prices = _write_prices(tmp_path, [str(i) for i in range(40)])
    out = tmp_path / "est.json"
    code = run(["fit", "--prices", str(prices), "--lambda-a", "0.05", "--lambda-l", "0.1",
                "--zeta", "-1", "--graph-out", str(tmp_path / "g.dot"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:ConstructionError:zeta must be finite and non-negative, got -1.0\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["prices.csv"]


@pytest.mark.parametrize("flag,values,message", [
    # ``model.control_parameter`` owns eta's rule; no library function takes Theta.
    ("--etas", ["0"], "ConstructionError:eta must be finite and positive, got 0.0"),
    ("--etas", ["0.1", "-0.05"], "ConstructionError:eta must be finite and positive, got -0.05"),
    ("--etas", ["inf"], "ConfigError:--etas must be finite, got inf"),
    ("--thetas", ["nan"], "ConfigError:--thetas must be finite, got nan"),
    ("--thetas", ["0"], "ConfigError:--thetas must be finite and positive, got [0.0]"),
    ("--thetas", ["1", "-1"], "ConfigError:--thetas must be finite and positive, got [1.0, -1.0]"),
], ids=["--etas-values0", "--etas-values1", "--etas-values2", "--thetas-values3",
        "--thetas-values4", "--thetas-values5"])
def test_cli_phase_rejects_bad_eta_or_theta(tmp_path, capsys, flag, values, message):
    grid = {"--etas": ["0.1"], "--thetas": ["1"]}
    grid[flag] = values
    code = run(["phase", "--p", "8", "--r", "2", "--s", "1", "--etas", *grid["--etas"],
                "--thetas", *grid["--thetas"], "--trials", "1", "--c", "0.6", "--d", "0.5",
                "--out", str(tmp_path / "phase.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error:{message}\n"
    assert not (tmp_path / "phase.csv").exists()


def _inline_phase_n(theta, eta, p, r, s):
    """The sample count ``sparsedyn phase`` computed inline before it asked
    ``control_parameter`` for the Theta of one sample."""
    return max(1, round(theta * s**3 * math.log((s + 2 * r) * p + r**2) / eta))


def test_cli_phase_n_matches_the_inline_formula(tmp_path, monkeypatch):
    sweeps = []

    def record(base, sweep, **kwargs):
        sweeps.append(sweep)
        return ev_module.PhaseResult(rows=[])

    monkeypatch.setattr(ev_module, "phase_transition", record)
    readme = (40, 2, 3, [0.05, 0.1], [0.25, 1.0, 4.0, 16.0])
    rng = CounterRng(12)
    grid = []
    for _ in range(60):
        u = rng.uniforms(9).tolist()
        s, r = 1 + int(u[0] * 12), 2 * int(u[1] * 5)  # GenSpec needs r = 0 or even
        p = s + 1 + int(u[2] * 200)
        p = -(-p // r) * r if r else p  # and r dividing 2p
        grid.append((p, r, s, [10 ** (-3 + 3 * v) for v in u[3:6]],
                     [10 ** (-1 + 4 * v) for v in u[6:9]]))
    for p, r, s, etas, thetas in [readme, *grid]:
        argv = ["phase", "--p", str(p), "--r", str(r), "--s", str(s),
                "--etas", *map(repr, etas), "--thetas", *map(repr, thetas),
                "--c", "0.4", "--d", "0.5", "--out", str(tmp_path / "phase.csv")]
        assert run(argv) == 0
        assert [point["n"] for point in sweeps.pop()] == [
            _inline_phase_n(theta, eta, p, r, s) for eta in etas for theta in thetas]


@pytest.mark.parametrize("eta", ["nan", "inf"])
@pytest.mark.parametrize("command", ["gen", "fit"])
def test_cli_non_finite_eta_is_one_error_line(tmp_path, capsys, eta, command):
    if command == "gen":
        argv, flag = ["gen", "--p", "4", "--r", "2", "--s", "1", "--eta", eta], "--eta"
    else:
        prices = _write_prices(tmp_path, ["1", "2", "3", "4"])
        argv = ["fit", "--prices", str(prices), "--price-eta", eta, "--lambda-a", "0.1"]
        flag = "--price-eta"
    code = run(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:ConfigError:{flag} must be finite, got {eta}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _write_forecast_inputs(directory, p_estimate):
    Path(directory, "traj.csv").write_text("t,x1,x2\n0,1,2\n0.5,2,4\n1,1,2\n1.5,0.5,1.5\n")
    doc = {"Ahat": (-np.eye(p_estimate)).tolist(), "Lhat": np.zeros((p_estimate, p_estimate)).tolist(),
           "objective_trace": [], "iterations": 0, "converged": True}
    Path(directory, "est.json").write_text(json.dumps(doc))


def test_cli_forecast_csv_golden_bytes(tmp_path, monkeypatch):
    # x(k+1) = x(k) + 0.5 * (-x(k)) from the last history row (2, 4).
    monkeypatch.chdir(tmp_path)
    _write_forecast_inputs(tmp_path, 2)
    assert run(["predict", "--data", "traj.csv", "--estimate", "est.json",
                "--horizon", "2", "--holdout", "2", "--out", "forecast.csv"]) == 0
    assert Path("forecast.csv").read_text() == (
        '# config: {"convert": "raw", "data": "traj.csv", "estimate": "est.json", '
        '"holdout": 2, "horizon": 2, "missing": "reject", "price_eta": 1.0, "prices": null}\n'
        "# mse: 0.0625\n"
        "step,x1,x2\n"
        "1,1,2\n"
        "1.5,0.5,1\n"
    )


def test_cli_predict_estimate_of_another_dimension_is_one_error_line(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_forecast_inputs(tmp_path, 3)
    code = run(["predict", "--data", "traj.csv", "--estimate", "est.json",
                "--horizon", "2", "--out", "forecast.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error:ConstructionError:Ahat must be 2 x 2, got shape (3, 3)\n"


# ------------------------------------------------------ config replay


def _replay_commands(d: Path) -> dict[str, list[str]]:
    """One invocation per artifact kind; each writes ``d / f"{name}.out"``."""
    system, traj, prices = (str(d / name) for name in ("gen-random.out", "simulate-binned.out",
                                                       "prices.csv"))
    price_flags = ["--prices", prices, "--convert", "log", "--missing", "ffill",
                   "--price-eta", "0.05"]
    return {
        "gen-random": ["gen", "--p", "6", "--r", "2", "--s", "1", "--seed", "3"],
        "gen-illustrative": ["gen", "--kind", "illustrative", "--p", "4", "--r", "2"],
        "simulate-binned": ["simulate", "--system", system, "--n", "600", "--eta", "0.05",
                            "--seed", "4"],
        "simulate-discrete": ["simulate", "--system", system, "--mode", "discrete",
                              "--n", "600", "--eta", "0.05", "--seed", "5"],
        "cv-data": ["cv", "--data", traj, "--grid-c", "0.5", "1.0", "--chunks", "3"],
        "cv-prices": ["cv", *price_flags, "--grid-c", "0.5", "1.0", "--grid-d", "0.5",
                      "--chunks", "3"],
        "fit-data": ["fit", "--data", traj, "--lambda-a", "0.05", "--lambda-l", "0.2",
                     "--zeta", "0.01", "--graph-out", str(d / "graph.dot")],
        "fit-prices": ["fit", *price_flags, "--lambda-a", "0.05", "--mode", "pure_lasso",
                       "--edges-out", str(d / "edges.csv")],
        "predict-data": ["predict", "--data", traj, "--estimate", str(d / "fit-data.out"),
                         "--horizon", "5", "--holdout", "5"],
        "predict-prices": ["predict", *price_flags, "--estimate", str(d / "fit-prices.out"),
                           "--horizon", "5", "--holdout", "5"],
        "phase": ["phase", "--p", "8", "--r", "2", "--s", "1", "--etas", "0.1",
                  "--thetas", "0.5", "--trials", "1", "--c", "0.6", "--d", "0.5"],
        "check": ["check", "--system", system, "--horizon", "50"],
    }


_REPLAY_NAMES = list(_replay_commands(Path(".")))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _config_block(text: str) -> dict:
    """The config of a CSV artifact (``# config:`` line) or a JSON one, read
    by a strict JSON reader that refuses ``NaN`` and ``Infinity``."""
    first = text.splitlines()[0]
    if first.startswith("# config: "):
        return json.loads(first[len("# config: "):], parse_constant=_reject_constant)
    return json.loads(text, parse_constant=_reject_constant)["config"]


@pytest.fixture(scope="module")
def replay_runs(tmp_path_factory):
    d = tmp_path_factory.mktemp("replay")
    rng = CounterRng(41)
    values = 20.0 + np.cumsum(rng.normal_matrix(120, 3) * 0.1, axis=0)
    lines = ["date,A,B,C"] + [f"{i}," + ",".join(f"{v:.10f}" for v in row)
                              for i, row in enumerate(values)]
    lines[30] = "29,,20.5,20.5"  # one missing cell, filled forward by --missing ffill
    (d / "prices.csv").write_text("\n".join(lines) + "\n")
    commands = _replay_commands(d)
    for name, argv in commands.items():
        assert run(argv + ["--out", str(d / f"{name}.out")]) == 0, name
    return d, commands


@pytest.mark.parametrize("name", _REPLAY_NAMES)
def test_cli_config_block_replays_artifact_byte_for_byte(replay_runs, name):
    d, commands = replay_runs
    original = (d / f"{name}.out").read_bytes()
    config = d / f"{name}.config.json"
    config.write_text(json.dumps(_config_block(original.decode())))
    replayed = d / f"{name}.replayed"
    assert run([commands[name][0], "--config", str(config), "--out", str(replayed)]) == 0
    assert replayed.read_bytes() == original


@pytest.mark.parametrize("name, removed", [
    ("phase", {"bins": 10, "zeta": None}),
    ("cv-data", {"r_ref": 1, "s_ref": 1}),
    ("simulate-binned", {"bins": 10}),
])
def test_cli_config_block_with_removed_flags_is_one_error_line(replay_runs, capsys, name,
                                                               removed):
    # phase, cv and simulate artifacts written while --bins, --zeta, --s-ref
    # and --r-ref existed carry those keys in their config blocks.
    d, commands = replay_runs
    config = d / f"{name}.old-config.json"
    config.write_text(json.dumps({**_config_block((d / f"{name}.out").read_text()), **removed}))
    replayed = d / f"{name}.old-replayed"
    capsys.readouterr()
    assert run([commands[name][0], "--config", str(config), "--out", str(replayed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:ConfigError:unrecognized arguments:")
    assert err.count("\n") == 1
    assert not replayed.exists()


def _subparsers() -> dict:
    parser = cli_module.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_cli_config_keys_are_the_parser_dests(replay_runs):
    d, commands = replay_runs
    subparsers = _subparsers()
    assert {argv[0] for argv in commands.values()} == set(subparsers)
    for name, argv in commands.items():
        dests = {action.dest for action in subparsers[argv[0]]._actions} - {"help"}
        config = _config_block((d / f"{name}.out").read_text())
        assert set(config) == dests - cli_module._NOT_CONFIG, name


def _float_options() -> list:
    """Every (subcommand, option) that takes floats, read from the parser."""
    return [pytest.param(name, action.option_strings[0],
                         id=f"{name}-{action.option_strings[0][2:]}")
            for name, sub in _subparsers().items()
            for action in sub._actions if action.type is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_options())
def test_cli_every_float_flag_must_be_finite(replay_runs, capsys, command, flag, value):
    # Even a flag that the command's mode ignores would reach the config block.
    d, commands = replay_runs
    argv = next(argv for argv in commands.values() if argv[0] == command)
    before = {path: path.read_bytes() for path in d.iterdir()}
    capsys.readouterr()
    assert run([*argv, f"{flag}={value}", "--out", str(d / "non-finite.out")]) == 1
    assert capsys.readouterr().err == (
        f"error:ConfigError:{flag} must be finite, got {float(value)}\n")
    assert {path: path.read_bytes() for path in d.iterdir()} == before


@pytest.mark.parametrize("argv,message", [
    (["gen", "--kind", "illustrative", "--p", "4", "--r", "2", "--eta", "nan"],
     "ConfigError:--eta must be finite"),
    (["gen", "--kind", "illustrative", "--p", "4", "--r", "2", "--diag-margin", "inf"],
     "ConfigError:--diag-margin must be finite"),
    (["gen", "--p", "4", "--r", "2", "--s", "1", "--diag-margin", "nan"],
     "ConfigError:--diag-margin must be finite, got nan"),
    (["fit", "--data", "traj.csv", "--lambda-a", "0.1", "--lambda-l", "0.1", "--tol", "inf"],
     "ConfigError:--tol must be finite, got inf"),
    (["fit", "--data", "traj.csv", "--lambda-a", "0.1", "--lambda-l", "0.1", "--tol", "nan"],
     "ConfigError:--tol must be finite, got nan"),
    (["fit", "--data", "traj.csv", "--lambda-a", "0.1", "--lambda-l", "0.1", "--zeta", "nan",
      "--graph-out", "out/graph.dot"],
     "ConfigError:--zeta must be finite"),
    (["phase", "--p", "8", "--r", "2", "--s", "1", "--etas", "0.1", "--thetas", "1",
      "--trials", "1", "--c", "nan", "--d", "0.5"],
     "ConfigError:--c must be finite, got nan"),
    (["check", "--system", "system.json", "--delta", "nan"],
     "ConfigError:--delta must be finite, got nan"),
    (["check", "--system", "system.json", "--horizon", "inf"],
     "ConfigError:--horizon must be finite, got inf"),
], ids=["gen-illustrative-eta", "gen-illustrative-diag-margin", "gen-random-diag-margin",
        "fit-tol-inf", "fit-tol-nan", "fit-zeta", "phase-c", "check-delta", "check-horizon"])
def test_cli_non_finite_number_is_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    _write_forecast_inputs(tmp_path, 2)
    assert run(["gen", "--p", "4", "--r", "2", "--s", "1", "--out", "system.json"]) == 0
    capsys.readouterr()
    Path("out").mkdir()
    code = run(argv + ["--out", "out/artifact"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:{message}")
    assert err.count("\n") == 1
    assert list(Path("out").iterdir()) == []


_OUT = "out/artifact"
_FIT = ["--lambda-a", "0.1", "--lambda-l", "0.1", "--out", _OUT]
_PREDICT = ["predict", "--data", "traj.csv", "--estimate", "est.json"]


def _error_path_inputs(directory):
    """``traj.csv`` (4 rows, p = 2), ``est.json``, ``system.json`` and the
    malformed files of the error-path cases."""
    _write_forecast_inputs(directory, 2)
    assert run(["gen", "--p", "4", "--r", "2", "--s", "1", "--out",
                str(Path(directory, "system.json"))]) == 0
    assert run(["gen", "--kind", "illustrative", "--p", "18", "--r", "2", "--out",
                str(Path(directory, "illustrative.json"))]) == 0
    files = {
        "one_row.csv": "t,x1,x2\n0,1,2\n",
        "one_price.csv": "date,a,b\n2020-01-01,1,2\n",
        "two_prices.csv": "date,a,b\n2020-01-01,1,2\n2020-01-02,2,3\n",
        "negative.csv": "date,a,b\n2020-01-01,1,-2\n2020-01-02,2,3\n",
        "zero.csv": "date,a,b\n2020-01-01,0,2\n2020-01-02,2,3\n2020-01-03,3,4\n",
        "discrete.json": json.dumps({"p": 1, "r": 0, "eta": 0.05, "A": [[-1.0]],
                                     "B": [], "C": [], "D": []}),
        "not_json.json": "{",
        "partial.json": json.dumps({"Ahat": [[-1.0, 0.0], [0.0, -1.0]]}),
        "converged_string.json": Path(directory, "est.json").read_text().replace(
            '"converged": true', '"converged": "false"'),
        "p_float.json": json.dumps({"p": 1.9, "r": 0, "eta": 0.0, "A": [[-1.0]],
                                    "B": [], "C": [], "D": []}),
        "trace_number.json": json.dumps({**json.loads(Path(directory, "est.json").read_text()),
                                         "objective_trace": 3}),
        "entry_string.json": json.dumps({"p": 1, "r": 0, "eta": 0.0, "A": [["-1"]],
                                         "B": [], "C": [], "D": []}),
        "list.json": "[1]",
        "bool.json": json.dumps({"seed": True}),
        "empty_list.json": json.dumps({"seed": []}),
        "long_int.json": '{"seed": ' + "1" * 5000 + "}",
    }
    for name, text in files.items():
        Path(directory, name).write_text(text)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--system", "system.json", "--n", "10", "--out", _OUT],
     "ConfigError:--eta (sampling step) is required"),
    # A discrete chain has no continuous flow to subsample.
    (["simulate", "--system", "discrete.json", "--n", "10", "--eta", "0.1", "--out", _OUT],
     "ConstructionError:continuous simulation needs params.eta = 0, got 0.05\n"),
    # A continuous system (eta = 0) has no discrete step.
    (["simulate", "--system", "system.json", "--mode", "discrete", "--n", "10", "--out", _OUT],
     "ConstructionError:discrete simulation needs params.eta > 0, got 0\n"),
    ([*_PREDICT, "--horizon", "3", "--holdout", "2", "--out", _OUT],
     "ConfigError:--holdout must be at least --horizon"),
    ([*_PREDICT, "--horizon", "2", "--holdout", "3", "--out", _OUT],
     "ConfigError:not enough samples for the requested holdout"),
    (["gen", "--out", _OUT, "--p", "4", "--config"], "ConfigError:--config requires a file path"),
    (["--config", "list.json", "gen", "--p", "4", "--out", _OUT],
     "ConfigError:--config must follow a subcommand"),
    (["gen", "--config", "not_json.json", "--out", _OUT],
     "ConfigError:config file is not valid JSON"),
    (["gen", "--config", "list.json", "--out", _OUT],
     "ConfigError:config file must hold a JSON object"),
    (["gen", "--p", "4", "--config", "bool.json", "--out", _OUT],
     "ConfigError:config field 'seed': boolean values are not supported"),
    (["gen", "--p", "4", "--config", "empty_list.json", "--out", _OUT],
     "ConfigError:config field 'seed': empty list"),
    (["gen", "--p", "4", "--config", "long_int.json", "--out", _OUT],
     "ConfigError:config file is not valid JSON: Exceeds the limit (4300 digits)"),
    (["fit", "--prices", "missing.csv", *_FIT],
     "OSError:[Errno 2] No such file or directory: 'missing.csv'\n"),
    (["fit", "--prices", "one_price.csv", *_FIT],
     "DataError:price CSV needs a header and at least two data rows"),
    (["fit", "--data", "one_row.csv", *_FIT],
     "DataError:trajectory CSV needs a header and at least two rows"),
    (["fit", "--prices", "negative.csv", "--convert", "log", *_FIT],
     "DataError:log conversion requires strictly positive prices"),
    (["fit", "--prices", "zero.csv", "--convert", "returns", *_FIT],
     "DataError:returns conversion divides by zero price"),
    (["fit", "--prices", "two_prices.csv", "--convert", "returns", *_FIT],
     "DataError:not enough rows after conversion"),
    (["predict", "--data", "traj.csv", "--estimate", "not_json.json", "--out", _OUT],
     "DataError:invalid estimate JSON"),
    (["predict", "--data", "traj.csv", "--estimate", "partial.json", "--out", _OUT],
     "DataError:estimate JSON missing or malformed field"),
    (["predict", "--data", "traj.csv", "--estimate", "converged_string.json", "--out", _OUT],
     "DataError:estimate JSON missing or malformed field: 'converged' must be a JSON bool, "
     "got 'false'"),
    (["simulate", "--system", "p_float.json", "--n", "10", "--eta", "0.1", "--out", _OUT],
     "DataError:system JSON missing or malformed field: 'p' must be an integer, got 1.9"),
    (["predict", "--data", "traj.csv", "--estimate", "trace_number.json", "--out", _OUT],
     "DataError:estimate JSON missing or malformed field: 'objective_trace' must be a JSON "
     "list, got 3"),
    (["predict", "--data", "traj.csv", "--estimate", "list.json", "--out", _OUT],
     "DataError:invalid estimate JSON: the document is not a JSON object"),
    (["simulate", "--system", "entry_string.json", "--n", "10", "--eta", "0.1", "--out", _OUT],
     "DataError:system JSON missing or malformed field: 'A' must be a real number, got '-1'"),
    # Pure lasso pins L = 0, so the nuclear-norm weights would go unused.
    (["fit", "--data", "traj.csv", "--mode", "pure_lasso", *_FIT],
     "ConstructionError:lambda_l must be 0 in pure_lasso mode, got 0.1\n"),
    (["cv", "--data", "traj.csv", "--mode", "pure_lasso", "--grid-c", "1", "--grid-d", "0.25",
      "0.5", "--chunks", "2", "--out", _OUT],
     "ConfigError:cv --mode pure_lasso does not use --grid-d, got [0.25, 0.5]"),
    (["gen", "--p", "0", "--out", _OUT], "ConstructionError:p must be at least 1, got 0"),
    (["gen", "--p", "4", "--r", "-1", "--out", _OUT], "ConstructionError:r must be at least 0, got -1"),
    (["gen", "--p", "4", "--r", "2", "--s", "1", "--eta", "5", "--out", _OUT],
     "StabilityError:eta = 5: I + eta*drift has spectral radius 15.3171 >= 1"),
    (["gen", "--kind", "illustrative", "--p", "4", "--r", "2", "--eta", "0.05", "--seed", "9",
      "--s", "3", "--diag-margin", "2", "--out", _OUT],
     "ConfigError:gen --kind illustrative does not use --diag-margin, --eta, --s, --seed"),
    (["cv", "--data", "traj.csv", "--grid-c", "1", "--chunks", "100", "--out", _OUT],
     "ConfigError:not enough transitions for the requested chunk count"),
    (["check", "--system", "system.json", "--horizon", "0", "--out", _OUT],
     "ConstructionError:horizon must be finite and positive, got 0.0\n"),
    (["check", "--system", "system.json", "--horizon", "-5", "--out", _OUT],
     "ConstructionError:horizon must be finite and positive, got -5.0\n"),
    # A1 fails on this system, so no constant would have used delta.
    (["check", "--system", "illustrative.json", "--delta", "5", "--out", _OUT],
     "ConstructionError:delta must be finite and in (0, 1), got 5.0\n"),
    (["phase", "--p", "8", "--r", "2", "--s", "0", "--etas", "0.1", "--thetas", "1",
      "--trials", "3", "--c", "0.6", "--d", "0.5", "--out", _OUT],
     "ConstructionError:s must be at least 1, got 0"),
    (["phase", "--p", "8", "--r", "2", "--s", "1", "--etas", "0.1", "--thetas", "1e308",
      "--trials", "1", "--c", "0.6", "--d", "0.5", "--out", _OUT],
     "ConfigError:--thetas 1e+308 at --etas 0.1 needs n = inf samples"),
    # n = 3.8e300 rows: numpy refuses the shape before it allocates anything.
    (["phase", "--p", "8", "--r", "2", "--s", "1", "--etas", "1e-300", "--thetas", "1",
      "--trials", "1", "--c", "0.6", "--d", "0.5", "--out", _OUT],
     "ConstructionError:n = 3784189633918260"),
    # Usage errors that argparse finds end the same way.
    (["gen", "--p", "x", "--out", _OUT], "ConfigError:argument --p: invalid int value: 'x'"),
    (["gen", "--out", _OUT], "ConfigError:the following arguments are required: --p"),
    (["gen", "--p", "4", "--bogus", "1", "--out", _OUT],
     "ConfigError:unrecognized arguments: --bogus 1"),
    (["simulate", "--system", "system.json", "--n", "10", "--mode", "weird", "--out", _OUT],
     "ConfigError:argument --mode: invalid choice: 'weird'"),
    # The binned sampler's 10 bins are fixed.
    (["simulate", "--system", "system.json", "--n", "10", "--eta", "0.1", "--bins", "10",
      "--out", _OUT], "ConfigError:unrecognized arguments: --bins 10"),
    # One data source: --data and --prices exclude each other, and one is required.
    (["fit", "--data", "traj.csv", "--prices", "two_prices.csv", *_FIT],
     "ConfigError:argument --prices: not allowed with argument --data"),
    (["fit", *_FIT], "ConfigError:one of the arguments --data --prices is required"),
    (["cv", "--data", "traj.csv", "--prices", "two_prices.csv", "--grid-c", "1", "--chunks",
      "2", "--out", _OUT], "ConfigError:argument --prices: not allowed with argument --data"),
    (["cv", "--grid-c", "1", "--chunks", "2", "--out", _OUT],
     "ConfigError:one of the arguments --data --prices is required"),
    ([*_PREDICT, "--prices", "two_prices.csv", "--horizon", "1", "--out", _OUT],
     "ConfigError:argument --prices: not allowed with argument --data"),
    (["predict", "--estimate", "est.json", "--horizon", "1", "--out", _OUT],
     "ConfigError:one of the arguments --data --prices is required"),
], ids=["simulate-no-eta", "simulate-discrete-file-continuous",
        "simulate-continuous-file-discrete", "holdout-below-horizon",
        "holdout-too-long", "config-no-path", "config-before-command", "config-not-json", "config-not-object", "config-boolean",
        "config-empty-list", "config-int-too-long", "prices-missing", "prices-one-row", "trajectory-one-row",
        "log-negative", "returns-zero", "returns-too-few-rows", "estimate-not-json",
        "estimate-missing-field", "estimate-converged-string", "system-p-float",
        "estimate-trace-number", "estimate-not-object", "system-entry-string",
        "fit-lasso-lambda-l", "cv-lasso-grid-d", "gen-p-0", "gen-r-negative", "gen-eta-too-large",
        "gen-illustrative-random-only-flags",
        "cv-too-many-chunks", "check-horizon-0", "check-horizon-negative",
        "check-delta-A1-fails", "phase-s-0", "phase-thetas-overflow", "phase-etas-tiny",
        "usage-bad-int", "usage-missing-required",
        "usage-unknown-flag", "usage-bad-choice", "simulate-bins", "fit-both-sources",
        "fit-no-source", "cv-both-sources", "cv-no-source", "predict-both-sources",
        "predict-no-source"])
def test_cli_error_path_is_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    _error_path_inputs(tmp_path)
    Path("out").mkdir()
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:{message}")
    assert err.count("\n") == 1
    assert list(Path("out").iterdir()) == []


@pytest.mark.parametrize("command", [
    ["fit", "--data", "traj.csv", *_FIT],
    ["cv", "--data", "traj.csv", "--grid-c", "1", "--chunks", "2", "--out", _OUT],
    [*_PREDICT, "--horizon", "1", "--out", _OUT],
], ids=["fit", "cv", "predict"])
def test_cli_data_rejects_the_price_only_flags(tmp_path, capsys, monkeypatch, command):
    # A trajectory CSV is read as it is, so these flags would only be
    # recorded in the artifact's config as if they had been applied.
    monkeypatch.chdir(tmp_path)
    _write_forecast_inputs(tmp_path, 2)
    Path("out").mkdir()
    argv = [*command, "--convert", "log", "--missing", "ffill", "--price-eta", "7"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error:ConfigError:{command[0]} --data does not use --missing, --convert, --price-eta\n")
    assert list(Path("out").iterdir()) == []
    # The defaults, as a replayed config passes them, are accepted.
    assert run([*command, "--convert", "raw", "--missing", "reject", "--price-eta", "1"]) == 0


def test_cli_defaults_are_the_library_defaults():
    parser = cli_module.build_parser()
    data = ["--data", "traj.csv", "--out", "o"]
    ingest = inspect.signature(ingest_csv).parameters
    cv = parser.parse_args(["cv", *data, "--grid-c", "1"])
    assert cv.chunks == inspect.signature(ev_module.block_cross_validate).parameters[
        "chunk_count"].default
    check = parser.parse_args(["check", "--system", "s.json", "--out", "o"])
    assert check.delta == inspect.signature(assumption_report).parameters["delta"].default
    for args in (cv, parser.parse_args(["fit", *data, "--lambda-a", "1"]),
                 parser.parse_args(["predict", *data, "--estimate", "e.json"])):
        assert (args.missing, args.convert) == (ingest["missing"].default,
                                                ingest["convert"].default)


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["gen", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sparsedyn gen")


@pytest.mark.parametrize("flag", ["--data", "--prices", "--system", "--config", "--estimate"])
def test_cli_non_utf8_input_is_one_error_line(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    _write_forecast_inputs(tmp_path, 2)
    Path("bad").write_bytes(b"t,x1\n0,\xff\n")
    Path("out").mkdir()
    argv = {
        "--data": ["fit", "--data", "bad", *_FIT],
        "--prices": ["fit", "--prices", "bad", *_FIT],
        "--system": ["simulate", "--system", "bad", "--n", "10", "--eta", "0.1", "--out", _OUT],
        "--config": ["gen", "--config", "bad", "--out", _OUT],
        "--estimate": ["predict", "--data", "traj.csv", "--estimate", "bad", "--out", _OUT],
    }[flag]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:DataError:bad is not UTF-8 text")
    assert err.count("\n") == 1
    assert list(Path("out").iterdir()) == []


def test_cli_check_reports_theory_constants_when_assumptions_hold(tmp_path):
    # The one small system found where A1-A3 all hold: the regularizer and
    # error-bound constants are filled in rather than null.
    system, report = tmp_path / "system.json", tmp_path / "report.json"
    assert run(["gen", "--p", "10", "--r", "0", "--s", "1", "--seed", "3",
                "--diag-margin", "2", "--out", str(system)]) == 0
    assert run(["check", "--system", str(system), "--horizon", "100",
                "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passes"] == {"A1": True, "A2": True, "A3": True}
    assert all(doc[key] is not None for key in ("lambda_a_theory", "nu", "rho0"))


def test_cli_check_solves_a_system_with_a_large_diag_margin(tmp_path, capsys):
    # Q shrinks like 1/||A||: a residual bound relative to ||Q||_F rejected
    # this system's good Lyapunov solve (2.5e-14 against 3.2e-15).
    system, report = tmp_path / "system.json", tmp_path / "report.json"
    assert run(["gen", "--p", "40", "--r", "2", "--s", "3", "--seed", "7",
                "--diag-margin", "1e5", "--out", str(system)]) == 0
    assert run(["check", "--system", str(system), "--out", str(report)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["D"] > 1e5


# -------------------------------------------------------------- README


def _readme_commands() -> list[str]:
    """Every ``sparsedyn`` command in README's shell blocks, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sparsedyn "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = cli_module.build_parser()
    parsed = []
    for command in commands:
        try:
            parsed.append(parser.parse_args(shlex.split(command)[1:]))
        except ConfigError:
            pytest.fail(f"README command does not parse: {command}")
    assert {args.command for args in parsed} == set(_subparsers())
    assert sum(bool(getattr(args, "prices", None)) for args in parsed) >= 2


def _run_all(commands, capsys) -> list[str]:
    """Run each command; its stdout lines."""
    printed = []
    for command in commands:
        assert run(shlex.split(command)[1:]) == 0, command
        printed.append(capsys.readouterr().out)
    return printed


def test_readme_steps_3_to_5_write_the_same_bytes_without_the_sidecar(tmp_path, monkeypatch,
                                                                     capsys, csv_parses):
    # Steps 3-5 load the sidecar that step 2 writes; once it is deleted they
    # parse traj.csv, and every artifact and message stays the same.
    monkeypatch.chdir(tmp_path)
    steps = _readme_commands()[:5]
    _run_all(steps[:2], capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "system.json", "traj.csv", "traj.csv.npy"]
    artifacts = ["cv.json", "estimate.json", "graph.dot", "edges.csv", "forecast.csv"]
    printed = _run_all(steps[2:], capsys)
    assert csv_parses == []
    written = {name: Path(name).read_bytes() for name in artifacts}
    Path("traj.csv.npy").unlink()
    assert _run_all(steps[2:], capsys) == printed
    assert len(csv_parses) == 3
    assert {name: Path(name).read_bytes() for name in artifacts} == written


def _edit_last_cell(path: Path, tail: str) -> None:
    """Replace the file's text from its last ``,`` on by ``tail``."""
    text = path.read_text()
    path.write_text(text[: text.rindex(",")] + tail)


@pytest.mark.parametrize("edit", ["cell", "truncated"])
def test_an_edited_trajectory_csv_gives_the_result_of_its_parse(tmp_path, monkeypatch, capsys,
                                                                  edit):
    # The sidecar of the unedited file is stale: fit reads the edited CSV
    # as it would with no sidecar, down to the error line.
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--p", "3", "--r", "2", "--s", "1", "--out", "system.json"]) == 0
    assert run(["simulate", "--system", "system.json", "--eta", "0.05", "--n", "200",
                "--out", "traj.csv"]) == 0
    _edit_last_cell(Path("traj.csv"), ",12.5\n" if edit == "cell" else "")
    Path("out").mkdir()
    capsys.readouterr()
    results = []
    for _ in range(2):
        code = run(["fit", "--data", "traj.csv", *_FIT])
        out = Path(_OUT).read_bytes() if Path(_OUT).exists() else None
        results.append((code, capsys.readouterr(), out))
        Path("traj.csv.npy").unlink(missing_ok=True)
    assert results[0] == results[1]
    if edit == "truncated":
        assert results[0][:2] == (1, ("", "error:DataError:line 203: expected 4 fields, got 3\n"))
        assert list(Path("out").iterdir()) == []
    else:
        assert results[0][0] == 0


def test_readme_library_quickstart_runs():
    # The quickstart calls the public API by name, so a removed or renamed
    # function fails here instead of leaving the README stale.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "big.csv", "--lambda-a", "0.1", "--lambda-l", "0.1", "--out", "out/e.json"],
    ["cv", "--data", "big.csv", "--grid-c", "0.3", "--grid-d", "0.5", "--chunks", "2",
     "--out", "out/cv.json"],
], ids=["fit", "cv"])
def test_cli_overflowing_statistics_are_one_error_line(tmp_path, argv):
    # Finite entries near 1e200 overflow the statistics.  A fresh process,
    # so numpy's RuntimeWarnings would reach stderr as a user sees them.
    (tmp_path / "big.csv").write_text(
        "t,x1,x2\n0,1e200,-2e200\n0.1,3e200,1e200\n0.2,-1e200,2e200\n0.3,2e200,1e200\n")
    (tmp_path / "out").mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", "import sys, sparsedyn.cli as c; c.main()", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error:DataError:sufficient statistics overflow")
    assert "3e+200" in done.stderr
    assert done.stderr.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []
