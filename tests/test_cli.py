import datetime
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsedyn.cli as cli_module
from sparsedyn.cli import ingest_csv, price_trajectory, run
from sparsedyn.errors import DataError
from sparsedyn.rng import CounterRng


# -------------------------------------------------------------- ingest


def test_ingest_roundtrip(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA,BBB\n2020-01-01,10.0,20.5\n2020-01-02,10.5,19.75\n"
                    "2020-01-03,11.25,20.0\n")
    table = ingest_csv(path)
    assert table.labels == ["AAA", "BBB"]
    assert table.times == ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert np.array_equal(table.values,
                          [[10.0, 20.5], [10.5, 19.75], [11.25, 20.0]])


def test_ingest_missing_cell_rejected_with_row(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA,BBB\n2020-01-01,10.0,20.5\n2020-01-02,,19.0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path)


def test_ingest_forward_fill(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA\n2020-01-01,10.0\n2020-01-02,\n2020-01-03,12.0\n")
    table = ingest_csv(path, missing="ffill")
    assert table.filled_cells == 1
    assert np.array_equal(table.values[:, 0], [10.0, 10.0, 12.0])


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
            assert ingest_csv(path).times == stamps
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


def test_ingest_synthetic_paper_scale(tmp_path):
    # 255 business days by 50 series.
    rng = CounterRng(10)
    values = 50.0 + np.cumsum(rng.normal_matrix(255, 50) * 0.5, axis=0)
    lines = ["date," + ",".join(f"S{k:02d}" for k in range(50))]
    for day in range(255):
        lines.append(f"{day}," + ",".join(f"{v:.6f}" for v in values[day]))
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    table = ingest_csv(path)
    assert table.values.shape == (255, 50)
    assert len(table.labels) == 50


def test_price_trajectory_conversions(tmp_path):
    rng = CounterRng(11)
    values = np.abs(rng.normal_matrix(6, 2)) + 1.0

    class T:
        pass

    table = ingest_csv_from_values(tmp_path, values)
    raw = price_trajectory(table, "raw", eta=1.0)
    assert np.array_equal(raw.x, values)
    logs = price_trajectory(table, "log", eta=1.0)
    assert np.allclose(logs.x, np.log(values))
    rets = price_trajectory(table, "returns", eta=1.0)
    assert np.allclose(rets.x, np.diff(values, axis=0) / values[:-1])


def ingest_csv_from_values(tmp_path, values):
    lines = ["date," + ",".join(f"c{j}" for j in range(values.shape[1]))]
    for i, row in enumerate(values):
        lines.append(f"{i}," + ",".join(f"{v:.17g}" for v in row))
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    return ingest_csv(path)


# ------------------------------------------------------------- commands


def test_cli_gen_check_illustrative(tmp_path):
    sys_path = tmp_path / "system.json"
    report_path = tmp_path / "report.json"
    assert run(["gen", "--kind", "illustrative", "--p", "16", "--r", "2",
                "--out", str(sys_path)]) == 0
    assert run(["check", "--system", str(sys_path), "--n", "1000",
                "--horizon", "100", "--out", str(report_path)]) == 0
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


def test_cli_config_file_rejects_unknown_field(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(SystemExit):
        run(["gen", "--config", str(config), "--p", "4",
             "--out", str(tmp_path / "x.json")])


def test_cli_config_file_must_exist(tmp_path, capsys):
    code = run(["gen", "--config", str(tmp_path / "missing.json"), "--p", "4",
                "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:ConfigError")


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
