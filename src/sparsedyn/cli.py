"""Command-line entry point.

Subcommands cover the full experiment pipeline: ``gen`` (system JSON),
``simulate`` (trajectory CSV), ``fit`` (estimate JSON plus optional graph
exports), ``phase`` (success-rate CSV), ``cv`` (constant selection JSON),
``predict`` (forecast CSV), and ``check`` (assumption-report JSON).

Every artifact embeds the exact configuration and seeds that produced it,
and contains no timestamps, so re-running a command reproduces its output
byte for byte.  Errors exit nonzero with a single machine-parsable line
``error:<kind>:<message>`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import generate as gen
from . import model as mdl
from . import simulate as sim
from . import solver as slv
from .errors import ConfigError, DataError, SparsedynError

log = logging.getLogger("sparsedyn")

__all__ = ["PriceTable", "ingest_csv", "price_trajectory", "run", "main"]


@dataclass(frozen=True)
class PriceTable:
    """Parsed daily price panel: one row per day, one column per series."""

    labels: list[str]
    times: list[str]
    values: np.ndarray
    filled_cells: int = 0


def _time_key(raw: str, lineno: int) -> float | datetime.date:
    text = raw.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise DataError(
            f"line {lineno}: cannot order time value {raw!r} (use ISO dates or numbers)"
        ) from None


def ingest_csv(path, missing: str = "reject") -> PriceTable:
    """Load a price CSV: header of series names, rows ``date,v1,...,vK``.

    The time column holds either numbers or ISO dates (``YYYY-MM-DD``),
    one kind per file, strictly increasing.

    ``missing = "reject"`` fails on any empty/unparseable cell, naming the
    row; ``missing = "ffill"`` forward-fills from the previous day and logs
    the fill count.
    """
    if missing not in ("reject", "ffill"):
        raise ConfigError(f"missing policy must be 'reject' or 'ffill', got {missing!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"price file not found: {path}")
    lines = path.read_text().splitlines()
    header = None
    times: list[str] = []
    rows: list[list[float]] = []
    keys = []
    filled = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if header is None:
            if len(parts) < 2:
                raise DataError(f"line {lineno}: header must name at least one series")
            header = [h.strip() for h in parts[1:]]
            continue
        if len(parts) != len(header) + 1:
            raise DataError(
                f"line {lineno}: expected {len(header) + 1} fields, got {len(parts)}"
            )
        key = _time_key(parts[0], lineno)
        if keys and type(key) is not type(keys[0]):
            raise DataError(
                f"line {lineno}: time column mixes dates and numbers (saw {parts[0].strip()!r})"
            )
        keys.append(key)
        row = []
        for col, cell in zip(header, parts[1:]):
            cell = cell.strip()
            value = None
            if cell:
                try:
                    value = float(cell)
                except ValueError:
                    value = None
            if value is None or not math.isfinite(value):
                if missing == "reject" or not rows:
                    raise DataError(f"line {lineno}: missing value in column {col!r}")
                value = rows[-1][len(row)]
                filled += 1
            row.append(value)
        times.append(parts[0].strip())
        rows.append(row)
    if header is None or len(rows) < 2:
        raise DataError("price CSV needs a header and at least two data rows")
    for i in range(len(keys) - 1):
        if not keys[i] < keys[i + 1]:
            raise DataError(
                f"time column must be strictly increasing "
                f"(saw {times[i]!r} then {times[i + 1]!r})"
            )
    if filled:
        log.info("forward-filled %d missing cells", filled)
    return PriceTable(labels=header, times=times, values=np.asarray(rows), filled_cells=filled)


def price_trajectory(table: PriceTable, convert: str = "raw", eta: float = 1.0) -> sim.Trajectory:
    """Turn a price table into a model trajectory.

    ``convert`` selects the series fed to the model: raw prices, log
    prices, or simple returns.  ``eta`` is the model time per row (one day
    by default).
    """
    values = table.values
    if convert == "raw":
        x = values
    elif convert == "log":
        if np.any(values <= 0):
            raise DataError("log conversion requires strictly positive prices")
        x = np.log(values)
    elif convert == "returns":
        if np.any(values[:-1] == 0):
            raise DataError("returns conversion divides by zero price")
        x = np.diff(values, axis=0) / values[:-1]
    else:
        raise ConfigError(f"unknown conversion {convert!r}")
    if x.shape[0] < 2:
        raise DataError("not enough rows after conversion")
    return sim.Trajectory(x=x, eta=eta)


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def _config_dict(args: argparse.Namespace, fields: list[str]) -> dict:
    return {name: getattr(args, name) for name in fields}


def _load_trajectory(args: argparse.Namespace) -> tuple[sim.Trajectory, list[str] | None]:
    """The input trajectory and its series labels (``None`` for ``--data``)."""
    if getattr(args, "data", None):
        return sim.trajectory_from_csv(Path(args.data).read_text()), None
    if getattr(args, "prices", None):
        table = ingest_csv(args.prices, missing=args.missing)
        traj = price_trajectory(table, convert=args.convert, eta=args.price_eta)
        return traj, table.labels
    raise ConfigError("either --data or --prices is required")


def cmd_gen(args: argparse.Namespace) -> int:
    config = _config_dict(args, ["kind", "p", "r", "s", "seed", "eta", "diag_margin"])
    if args.kind == "random":
        spec = gen.GenSpec(
            p=args.p, r=args.r, s=args.s, seed=args.seed,
            diag_margin=args.diag_margin, eta=args.eta,
        )
        params = gen.gen_random_system(spec)
    else:
        params = gen.gen_illustrative(args.p, args.r)
    _write(Path(args.out), gen.system_to_json(params, config))
    print(f"wrote system ({params.p} observed, {params.r} latent) to {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params, _ = gen.system_from_json(Path(args.system).read_text())
    config = _config_dict(args, ["system", "mode", "n", "eta", "bins", "seed"])
    if args.mode == "discrete":
        if args.eta is not None:
            params = dataclasses.replace(params, eta=args.eta)
        traj = sim.simulate_discrete(params, n=args.n, seed=args.seed)
    else:
        if args.eta is None:
            raise ConfigError("--eta (sampling step) is required for continuous modes")
        traj = sim.simulate_continuous(
            params, eta=args.eta, n=args.n, mode=args.mode, bins=args.bins, seed=args.seed
        )
    comment = "config: " + json.dumps(config, sort_keys=True)
    _write(Path(args.out), sim.trajectory_to_csv(traj, comments=[comment]))
    print(f"wrote {traj.n + 1} samples to {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    traj, labels = _load_trajectory(args)
    stats = sim.sufficient_stats(traj)
    config = _config_dict(
        args,
        ["data", "prices", "convert", "price_eta", "lambda_a", "lambda_l",
         "mode", "max_iter", "tol", "zeta"],
    )
    solver_config = slv.SolverConfig(
        lambda_a=args.lambda_a,
        lambda_l=args.lambda_l,
        mode=args.mode,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    est = slv.fit(stats, stats.sq_increment_sum, solver_config)
    _write(Path(args.out), slv.estimate_to_json(est, config))
    messages = [f"wrote estimate to {args.out} "
                f"(iterations={est.iterations}, converged={est.converged})"]
    if args.graph_out or args.edges_out:
        graph = ev.export_dependency_graph(est.Ahat, zeta=args.zeta, labels=labels)
        if args.graph_out:
            _write(Path(args.graph_out), graph.to_dot())
            messages.append(f"wrote DOT graph to {args.graph_out}")
        if args.edges_out:
            _write(Path(args.edges_out), graph.to_edge_csv())
            messages.append(f"wrote edge list to {args.edges_out}")
        messages.append(f"sparsity={graph.sparsity:.6g}")
    print("; ".join(messages))
    return 0


def cmd_phase(args: argparse.Namespace) -> int:
    base = gen.GenSpec(
        p=args.p, r=args.r, s=args.s, seed=0,
        diag_margin=args.diag_margin, eta=0.0,
    )
    sweep = []
    for eta in args.etas:
        for theta in args.thetas:
            n = max(1, round(theta * args.s**3 * math.log((args.s + 2 * args.r) * args.p + args.r**2) / eta))
            sweep.append({"eta": eta, "n": n})
    result = ev.phase_transition(
        base, sweep, trials=args.trials, lambda_rule=(args.c, args.d),
        master_seed=args.master_seed, bins=args.bins, zeta=args.zeta,
    )
    config = _config_dict(
        args,
        ["p", "r", "s", "etas", "thetas", "trials", "c", "d", "master_seed",
         "bins", "diag_margin", "zeta"],
    )
    comment = "config: " + json.dumps(config, sort_keys=True)
    _write(Path(args.out), result.to_csv(comments=[comment]))
    print(f"wrote {len(result.rows)} grid points to {args.out}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    traj, _ = _load_trajectory(args)
    selection = ev.block_cross_validate(
        traj, args.grid_c, args.grid_d, chunk_count=args.chunks,
        mode=args.mode, s_ref=args.s_ref, r_ref=args.r_ref,
    )
    config = _config_dict(
        args,
        ["data", "prices", "convert", "price_eta", "grid_c", "grid_d",
         "chunks", "mode", "s_ref", "r_ref"],
    )
    doc = {
        "config": config,
        "c": selection.c,
        "d": selection.d,
        "lambda_a": selection.lambda_a,
        "lambda_l": selection.lambda_l,
        "errors": selection.errors,
        "fold_spans": [list(span) for span in selection.fold_spans],
    }
    _write(Path(args.out), json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(
        f"selected c={selection.c:.6g}, d={selection.d:.6g} "
        f"(lambda_a={selection.lambda_a:.6g}, lambda_l={selection.lambda_l:.6g})"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    traj, _ = _load_trajectory(args)
    est, _ = slv.estimate_from_json(Path(args.estimate).read_text())
    actuals = None
    history = traj
    if args.holdout:
        if args.holdout < args.horizon:
            raise ConfigError("--holdout must be at least --horizon")
        if traj.n <= args.holdout:
            raise ConfigError("not enough samples for the requested holdout")
        history = sim.Trajectory(x=traj.x[: traj.x.shape[0] - args.holdout], eta=traj.eta)
        start = traj.x.shape[0] - args.holdout
        actuals = traj.x[start: start + args.horizon]
    preds, mse = ev.predict(est.Ahat, est.Lhat, history, args.horizon, actuals)
    config = _config_dict(args, ["data", "prices", "estimate", "horizon", "holdout"])
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    if mse is not None:
        lines.append(f"# mse: {mse:.17g}")
    t0 = (history.x.shape[0] - 1) * history.eta
    body = ["step," + ",".join(f"x{j + 1}" for j in range(history.p))]
    for k in range(preds.shape[0]):
        body.append(f"{t0 + (k + 1) * history.eta:.17g},"
                    + ",".join(f"{v:.17g}" for v in preds[k]))
    _write(Path(args.out), "\n".join(lines + body) + "\n")
    print(f"wrote {preds.shape[0]}-step forecast to {args.out}"
          + (f"; mse={mse:.6g}" if mse is not None else ""))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    params, _ = gen.system_from_json(Path(args.system).read_text())
    report = mdl.assumption_report(
        params, n=args.n, delta=args.delta, K=args.K, horizon=args.horizon
    )
    config = _config_dict(args, ["system", "n", "delta", "K", "horizon"])
    doc = {"config": config}
    doc.update(dataclasses.asdict(report))
    _write(Path(args.out), json.dumps(doc, sort_keys=True, indent=2) + "\n")
    flags = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in report.passes.items())
    print(
        f"D={report.D:.6g}, mu={report.mu:.6g}, alpha={report.alpha:.6g}, "
        f"theta={report.theta:.6g}, s={report.s} ({flags})"
    )
    return 0


def _expand_config_file(argv: list[str]) -> list[str]:
    """Splice ``--config FILE`` into equivalent command-line flags.

    The JSON file maps parameter names (underscored, as in the artifact
    configs) to values; flags given explicitly on the command line take
    precedence because they come later in the expanded argument list.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config requires a file path")
    if i == 0:
        raise ConfigError("--config must follow a subcommand")
    path = Path(argv[i + 1])
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    extra: list[str] = []
    for key in sorted(doc):
        value = doc[key]
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            raise ConfigError(f"config field {key!r}: boolean values are not supported")
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"config field {key!r}: empty list")
            extra.append(flag)
            extra.extend(str(v) for v in value)
        elif value is None:
            raise ConfigError(f"config field {key!r}: null is not a value")
        else:
            extra.extend([flag, str(value)])
    rest = argv[:i] + argv[i + 2:]
    return [rest[0]] + extra + rest[1:]


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="trajectory CSV (t,x1..xp)")
    parser.add_argument("--prices", help="price CSV (date,v1..vK)")
    parser.add_argument("--convert", default="raw", choices=["raw", "log", "returns"],
                        help="price conversion mode")
    parser.add_argument("--price-eta", dest="price_eta", type=float, default=1.0,
                        help="model time per price row")
    parser.add_argument("--missing", default="reject", choices=["reject", "ffill"],
                        help="missing-cell policy for price CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedyn",
        description="Sparse dependency recovery for linear stochastic systems "
                    "with latent time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a ground-truth system")
    p_gen.add_argument("--kind", default="random", choices=["random", "illustrative"])
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--r", type=int, default=0)
    p_gen.add_argument("--s", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--eta", type=float, default=0.0)
    p_gen.add_argument("--diag-margin", dest="diag_margin", type=float, default=1.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory")
    p_sim.add_argument("--system", required=True)
    p_sim.add_argument("--mode", default="binned", choices=["discrete", "binned", "exact"])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--eta", type=float, default=None,
                       help="sampling step (required for continuous modes)")
    p_sim.add_argument("--bins", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the sparse + low-rank estimator")
    _add_data_arguments(p_fit)
    p_fit.add_argument("--lambda-a", dest="lambda_a", type=float, required=True)
    p_fit.add_argument("--lambda-l", dest="lambda_l", type=float, default=0.0)
    p_fit.add_argument("--mode", default=slv.MODE_SPARSE_LOWRANK,
                       choices=[slv.MODE_SPARSE_LOWRANK, slv.MODE_PURE_LASSO])
    p_fit.add_argument("--max-iter", dest="max_iter", type=int, default=5000)
    p_fit.add_argument("--tol", type=float, default=1e-8)
    p_fit.add_argument("--zeta", type=float, default=None,
                       help="support threshold for graph export")
    p_fit.add_argument("--graph-out", dest="graph_out", default=None)
    p_fit.add_argument("--edges-out", dest="edges_out", default=None)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_phase = sub.add_parser("phase", help="run a recovery phase-transition sweep")
    p_phase.add_argument("--p", type=int, required=True)
    p_phase.add_argument("--r", type=int, required=True)
    p_phase.add_argument("--s", type=int, required=True)
    p_phase.add_argument("--etas", type=float, nargs="+", required=True)
    p_phase.add_argument("--thetas", type=float, nargs="+", required=True)
    p_phase.add_argument("--trials", type=int, default=20)
    p_phase.add_argument("--c", type=float, required=True)
    p_phase.add_argument("--d", type=float, required=True)
    p_phase.add_argument("--master-seed", dest="master_seed", type=int, default=0)
    p_phase.add_argument("--bins", type=int, default=10)
    p_phase.add_argument("--diag-margin", dest="diag_margin", type=float, default=1.0)
    p_phase.add_argument("--zeta", type=float, default=None)
    p_phase.add_argument("--out", required=True)
    p_phase.set_defaults(func=cmd_phase)

    p_cv = sub.add_parser("cv", help="cross-validate regularizer constants")
    _add_data_arguments(p_cv)
    p_cv.add_argument("--grid-c", dest="grid_c", type=float, nargs="+", required=True)
    p_cv.add_argument("--grid-d", dest="grid_d", type=float, nargs="+", default=[1.0])
    p_cv.add_argument("--chunks", type=int, default=5)
    p_cv.add_argument("--mode", default=slv.MODE_SPARSE_LOWRANK,
                      choices=[slv.MODE_SPARSE_LOWRANK, slv.MODE_PURE_LASSO])
    p_cv.add_argument("--s-ref", dest="s_ref", type=int, default=1)
    p_cv.add_argument("--r-ref", dest="r_ref", type=int, default=1)
    p_cv.add_argument("--out", required=True)
    p_cv.set_defaults(func=cmd_cv)

    p_pred = sub.add_parser("predict", help="forecast with a fitted estimate")
    _add_data_arguments(p_pred)
    p_pred.add_argument("--estimate", required=True)
    p_pred.add_argument("--horizon", type=int, default=25)
    p_pred.add_argument("--holdout", type=int, default=0,
                        help="hold out the trailing samples and score against them")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_check = sub.add_parser("check", help="evaluate model assumptions for a system")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--n", type=int, default=10000)
    p_check.add_argument("--delta", type=float, default=0.1)
    p_check.add_argument("--K", type=float, default=3.0e6)
    p_check.add_argument("--horizon", type=float, default=None,
                         help="observation horizon T (for continuous systems)")
    p_check.add_argument("--out", required=True)
    p_check.set_defaults(func=cmd_check)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument(
            "--config", metavar="FILE",
            help="JSON object of parameter defaults; explicit flags win",
        )

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code.

    Any subcommand accepts ``--config FILE`` (JSON object of parameter
    names to values); explicit flags override config-file values, and
    unknown config fields are rejected by name.
    """
    parser = build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = parser.parse_args(_expand_config_file(list(argv)))
        return args.func(args)
    except SparsedynError as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:OSError:{exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    raise SystemExit(run())
