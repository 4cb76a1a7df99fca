"""Command-line entry point: it parses arguments and dispatches to the
library modules; every table goes through ``csvio``.

Subcommands cover the full experiment pipeline: ``gen`` (system JSON),
``simulate`` (trajectory CSV, with a binary copy beside it), ``fit``
(estimate JSON plus optional graph exports), ``phase`` (success-rate
CSV), ``cv`` (constant selection JSON), ``predict`` (forecast CSV), and
``check`` (assumption-report JSON).

Every artifact embeds its configuration and carries no timestamps.  The
configuration is every flag except ``--out``, ``--graph-out``,
``--edges-out`` and ``--config``, with ``null`` for a flag not given, so
any artifact's config block replays it byte for byte through ``--config``
(run from the same directory).  Errors exit nonzero with a single
machine-parsable line ``error:<kind>:<message>`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import generate as gen
from . import model as mdl
from . import simulate as sim
from . import solver as slv
from .csvio import (CONVERSIONS, MISSING_POLICIES, ingest_csv, json_text, number, read_text,
                    table_blocks)
from .errors import ConfigError, SparsedynError

__all__ = ["run", "main"]

# Parsed names that say where a run writes, not what it computes.
_NOT_CONFIG = {"command", "func", "config", "out", "graph_out", "edges_out"}

# The ``GenSpec`` fields that only ``gen --kind random`` reads, with their defaults.
_RANDOM_ONLY = {"diag_margin": gen.GenSpec.diag_margin, "eta": gen.GenSpec.eta, "s": 0, "seed": 0}

# The flags that only ``--prices`` reads, with their defaults.
_PRICE_ONLY = {"missing": MISSING_POLICIES[0], "convert": CONVERSIONS[0], "price_eta": 1.0}


def _write(path: Path, content: str | Iterable[str]) -> None:
    """Write a text, or a table's blocks one at a time as they are made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines([content] if isinstance(content, str) else content)


def _reject_unused(args: argparse.Namespace, defaults: dict, context: str) -> None:
    """One ``ConfigError`` naming each flag of ``defaults`` that ``args``
    sets away from its default, since ``context`` does not read it."""
    given = [f"--{k.replace('_', '-')}" for k, v in defaults.items() if getattr(args, k) != v]
    if given:
        raise ConfigError(f"{context} does not use {', '.join(given)}")


def _load_trajectory(args: argparse.Namespace) -> tuple[sim.Trajectory, list[str] | None]:
    """The input trajectory and its series labels (``None`` for ``--data``)."""
    if args.data is not None:
        _reject_unused(args, _PRICE_ONLY, f"{args.command} --data")
        return sim.load_trajectory(args.data), None
    labels, series = ingest_csv(args.prices, missing=args.missing, convert=args.convert)
    return sim.Trajectory(x=series, eta=args.price_eta), labels


def cmd_gen(args: argparse.Namespace, config: dict) -> int:
    if args.kind == "random":
        knobs = {name: getattr(args, name) for name in _RANDOM_ONLY}
        params = gen.gen_random_system(gen.GenSpec(p=args.p, r=args.r, **knobs))
    else:
        _reject_unused(args, _RANDOM_ONLY, "gen --kind illustrative")
        params = gen.gen_illustrative(args.p, args.r)
    _write(Path(args.out), gen.system_to_json(params, config))
    print(f"wrote system ({params.p} observed, {params.r} latent) to {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    params, _ = gen.system_from_json(read_text(args.system))
    if args.mode == "discrete":
        if args.eta is not None:
            params = dataclasses.replace(params, eta=args.eta)
        traj = sim.simulate_discrete(params, n=args.n, seed=args.seed)
    else:
        if params.eta > 0:
            raise ConfigError(f"{args.system} holds a discrete chain (eta = {params.eta:g}); "
                              "simulate it with --mode discrete")
        if args.eta is None:
            raise ConfigError("--eta (sampling step) is required for continuous modes")
        traj = sim.simulate_continuous(
            params, eta=args.eta, n=args.n, mode=args.mode, seed=args.seed
        )
    comment = "config: " + json.dumps(config, sort_keys=True)
    sim.save_trajectory(args.out, traj, comments=[comment])
    print(f"wrote {traj.n + 1} samples to {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace, config: dict) -> int:
    if args.mode == slv.MODE_PURE_LASSO and args.lambda_l != 0.0:
        raise ConfigError(f"fit --mode pure_lasso does not use --lambda-l, got {args.lambda_l:g}")
    traj, labels = _load_trajectory(args)
    stats = sim.sufficient_stats(traj)
    solver_config = slv.SolverConfig(
        lambda_a=args.lambda_a,
        lambda_l=args.lambda_l,
        mode=args.mode,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    est = slv.fit(stats, stats.sq_increment_sum, solver_config)
    # The graph's checks run before any file is written.
    graph = (ev.export_dependency_graph(est.Ahat, zeta=args.zeta, labels=labels)
             if args.graph_out or args.edges_out else None)
    _write(Path(args.out), slv.estimate_to_json(est, config))
    messages = [f"wrote estimate to {args.out} "
                f"(iterations={est.iterations}, converged={est.converged})"]
    if graph is not None:
        if args.graph_out:
            _write(Path(args.graph_out), graph.to_dot())
            messages.append(f"wrote DOT graph to {args.graph_out}")
        if args.edges_out:
            _write(Path(args.edges_out), graph.to_edge_csv())
            messages.append(f"wrote edge list to {args.edges_out}")
        messages.append(f"sparsity={graph.sparsity:.6g}")
    print("; ".join(messages))
    return 0


def cmd_phase(args: argparse.Namespace, config: dict) -> int:
    base = gen.GenSpec(p=args.p, r=args.r, s=args.s, seed=0, diag_margin=args.diag_margin)
    for flag, values in (("--etas", args.etas), ("--thetas", args.thetas)):
        if not all(v > 0 for v in values):
            raise ConfigError(f"{flag} must be finite and positive, got {values}")
    sweep = []
    for eta in args.etas:
        theta_per_sample = mdl.control_parameter(eta, 1, args.s, args.r, args.p)
        for theta in args.thetas:
            n = theta / theta_per_sample
            if not math.isfinite(n):
                raise ConfigError(f"--thetas {theta} at --etas {eta} needs n = {n} samples")
            sweep.append({"eta": eta, "n": max(1, round(n))})
    result = ev.phase_transition(
        base, sweep, trials=args.trials, lambda_rule=(args.c, args.d),
        master_seed=args.master_seed,
    )
    comment = "config: " + json.dumps(config, sort_keys=True)
    _write(Path(args.out), result.to_csv(comments=[comment]))
    print(f"wrote {len(result.rows)} grid points to {args.out}")
    return 0


def cmd_cv(args: argparse.Namespace, config: dict) -> int:
    if args.mode == slv.MODE_PURE_LASSO and args.grid_d != [1.0]:
        raise ConfigError(f"cv --mode pure_lasso does not use --grid-d, got {args.grid_d}")
    traj, _ = _load_trajectory(args)
    selection = ev.block_cross_validate(
        traj, args.grid_c, args.grid_d, chunk_count=args.chunks,
        mode=args.mode,
    )
    doc = {"config": config, **dataclasses.asdict(selection)}
    _write(Path(args.out), json_text(doc))
    print(
        f"selected c={selection.c:.6g}, d={selection.d:.6g} "
        f"(lambda_a={selection.lambda_a:.6g}, lambda_l={selection.lambda_l:.6g})"
    )
    return 0


def cmd_predict(args: argparse.Namespace, config: dict) -> int:
    traj, _ = _load_trajectory(args)
    est, _ = slv.estimate_from_json(read_text(args.estimate))
    actuals, history = None, traj
    if args.holdout:
        if args.holdout < args.horizon:
            raise ConfigError("--holdout must be at least --horizon")
        if traj.n <= args.holdout:
            raise ConfigError("not enough samples for the requested holdout")
        history = sim.Trajectory(x=traj.x[: traj.x.shape[0] - args.holdout], eta=traj.eta)
        start = traj.x.shape[0] - args.holdout
        actuals = traj.x[start: start + args.horizon]
    preds, mse = ev.predict(est.Ahat, est.Lhat, history, args.horizon, actuals)
    comments = ["config: " + json.dumps(config, sort_keys=True)]
    if mse is not None:
        comments.append("mse: " + number(mse))
    steps = history.n * history.eta + np.arange(1, preds.shape[0] + 1) * history.eta
    header = ["step"] + [f"x{j + 1}" for j in range(history.p)]
    _write(Path(args.out), table_blocks(header, [steps, preds], comments))
    print(f"wrote {preds.shape[0]}-step forecast to {args.out}"
          + (f"; mse={mse:.6g}" if mse is not None else ""))
    return 0


def cmd_check(args: argparse.Namespace, config: dict) -> int:
    params, _ = gen.system_from_json(read_text(args.system))
    report = mdl.assumption_report(params, horizon=args.horizon, delta=args.delta)
    _write(Path(args.out), json_text({"config": config, **dataclasses.asdict(report)}))
    flags = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in report.passes.items())
    print(
        f"D={report.D:.6g}, mu={report.mu:.6g}, alpha={report.alpha:.6g}, "
        f"theta={report.theta:.6g}, s={report.s} ({flags})"
    )
    return 0


def _expand_config_file(argv: list[str]) -> list[str]:
    """Splice ``--config FILE`` into equivalent command-line flags.

    The JSON file maps parameter names (underscored, as in the artifact
    configs) to values; ``null`` means the flag was not given and is
    skipped.  Flags given explicitly on the command line take precedence
    because they come later in the expanded argument list.
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
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    extra: list[str] = []
    for key in sorted(doc):
        value = doc[key]
        if value is None:
            continue
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            raise ConfigError(f"config field {key!r}: boolean values are not supported")
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"config field {key!r}: empty list")
            extra.append(flag)
            extra.extend(str(v) for v in value)
        else:
            extra.extend([flag, str(value)])
    rest = argv[:i] + argv[i + 2:]
    return [rest[0]] + extra + rest[1:]


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="trajectory CSV (t,x1..xp)")
    source.add_argument("--prices", help="price CSV (date,v1..vK)")
    parser.add_argument("--convert", choices=CONVERSIONS, help="price conversion mode")
    parser.add_argument("--price-eta", type=float, help="model time per price row")
    parser.add_argument("--missing", choices=MISSING_POLICIES,
                        help="missing-cell policy for price CSVs")
    parser.set_defaults(**_PRICE_ONLY)


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError``, so it ends in the one ``error:``
    line like every other error; subparsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsedyn",
        description="Sparse dependency recovery for linear stochastic systems "
                    "with latent time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a ground-truth system")
    p_gen.add_argument("--kind", default="random", choices=["random", "illustrative"])
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--r", type=int, default=0)
    p_gen.add_argument("--s", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--eta", type=float)
    p_gen.add_argument("--diag-margin", type=float)
    p_gen.set_defaults(func=cmd_gen, **_RANDOM_ONLY)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory")
    p_sim.add_argument("--system", required=True)
    p_sim.add_argument("--mode", default="binned", choices=["discrete", "binned", "exact"])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--eta", type=float, help="sampling step (required for continuous modes)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the sparse + low-rank estimator")
    _add_data_arguments(p_fit)
    p_fit.add_argument("--lambda-a", type=float, required=True)
    p_fit.add_argument("--lambda-l", type=float, default=0.0)
    p_fit.add_argument("--mode", default=slv.MODE_SPARSE_LOWRANK,
                       choices=[slv.MODE_SPARSE_LOWRANK, slv.MODE_PURE_LASSO])
    p_fit.add_argument("--max-iter", type=int, default=slv.SolverConfig.max_iter)
    p_fit.add_argument("--tol", type=float, default=slv.SolverConfig.tol)
    p_fit.add_argument("--zeta", type=float, help="support threshold for graph export")
    p_fit.add_argument("--graph-out")
    p_fit.add_argument("--edges-out")
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
    p_phase.add_argument("--master-seed", type=int, default=0)
    p_phase.add_argument("--diag-margin", type=float, default=gen.GenSpec.diag_margin)
    p_phase.set_defaults(func=cmd_phase)

    p_cv = sub.add_parser("cv", help="cross-validate regularizer constants")
    _add_data_arguments(p_cv)
    p_cv.add_argument("--grid-c", type=float, nargs="+", required=True)
    p_cv.add_argument("--grid-d", type=float, nargs="+", default=[1.0])
    p_cv.add_argument("--chunks", type=int, default=ev.CV_CHUNKS)
    p_cv.add_argument("--mode", default=slv.MODE_SPARSE_LOWRANK,
                      choices=[slv.MODE_SPARSE_LOWRANK, slv.MODE_PURE_LASSO])
    p_cv.set_defaults(func=cmd_cv)

    p_pred = sub.add_parser("predict", help="forecast with a fitted estimate")
    _add_data_arguments(p_pred)
    p_pred.add_argument("--estimate", required=True)
    p_pred.add_argument("--horizon", type=int, default=25)
    p_pred.add_argument("--holdout", type=int, default=0,
                        help="hold out the trailing samples and score against them")
    p_pred.set_defaults(func=cmd_predict)

    p_check = sub.add_parser("check", help="evaluate model assumptions for a system")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--delta", type=float, default=mdl.DEFAULT_DELTA)
    p_check.add_argument("--horizon", type=float,
                         help="observation horizon T = n * eta of the data")
    p_check.set_defaults(func=cmd_check)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--out", required=True)
        sub_parser.add_argument(
            "--config", metavar="FILE",
            help="JSON object of parameter defaults; explicit flags win",
        )

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code.

    Any subcommand accepts one ``--config FILE`` (JSON object of parameter
    names to values); explicit flags override config-file values.  Unknown
    config fields and number flags that are not finite are rejected by name.
    """
    parser = build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = parser.parse_args(_expand_config_file(list(argv)))
        if args.config is not None:
            # Only the first ``--config FILE`` is spliced; argparse would
            # take any other spelling or a second one and drop it.
            raise ConfigError("--config may be given only once, as '--config FILE'")
        config = {name: value for name, value in vars(args).items()
                  if name not in _NOT_CONFIG}
        for name, value in config.items():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, float) and not math.isfinite(item):
                    raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {item}")
        return args.func(args, config)
    except SparsedynError as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:OSError:{exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    raise SystemExit(run())
