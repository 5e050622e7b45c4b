"""Command line interface.

Subcommands: ``simulate`` (write a path bundle), ``estimate`` (fit one
estimator to a bundle), ``reproduce`` (run the full benchmark protocol) and
``theory`` (population quantities and empirical rate/concentration checks).

Exit codes: 0 success, 2 configuration or schema error (``ValueError``),
3 file error (``OSError``), 4 numerical failure, 5 partial benchmark failure
(fewer than 90 percent of cells succeeded); ``main`` maps the library's
exceptions to them. Every command writes a manifest JSON recording the
resolved configuration, seed, timestamps and output files.
"""

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .errors import NumericalError, UnsupportedInputError
from .experiments import (
    export_figure_data, generate_drift, plan_from_dict, run_experiment, summarize, worker_count,
)
from .files import (
    read_arguments, read_bundle, read_value, report_to_csv, to_plain, write_bundle,
    write_bundle_csv, write_csv, write_json,
)
from .model_select import PENALTIES, CvGrid, cross_validate
from .process import DriftMatrix, bundle_blocks
from .solvers import check_level, solve_lasso, solve_mle, solve_slope
from .suffstats import block_stats, check_split
from .theory import check_concentration, compute_c_infty, kl_between, rate_sweep


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise OSError("cannot read %s: %s" % (path, exc)) from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("config error in %s at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from None
    if not isinstance(document, dict):
        raise ValueError("config error in %s: expected a JSON object" % (path,))
    return document


def _write_manifest(path, command, resolved_config, seed, started, outputs):
    write_json(
        {
            "command": command,
            "resolved_config": resolved_config,
            "seed": seed,
            "started": started,
            "finished": _now(),
            "outputs": list(outputs),
            "version": __version__,
        },
        path,
    )


def _resolve_threads(args):
    # ``--threads``, else ``SPARSE_OU_THREADS``, else None: one worker per CPU.
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SPARSE_OU_THREADS")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError("SPARSE_OU_THREADS must be an integer, got %r" % (env,)) from None


def _read_drift(document):
    # The ``drift`` of a simulate config: ``{"matrix": [[...]]}`` or
    # ``{"generator": {"dim": ..., "seed": ..., "scheme": {...}}}``.
    if isinstance(document, dict) and list(document) == ["matrix"]:
        return read_value(DriftMatrix, document["matrix"], "drift.matrix")
    if isinstance(document, dict) and list(document) == ["generator"]:
        generator = document["generator"]
        if isinstance(generator, dict):
            generator = {"scheme": {}, **generator}
        return generate_drift(**read_arguments(generate_drift, generator, "drift.generator"))
    fields = sorted(document) if isinstance(document, dict) else document
    raise ValueError("drift must hold exactly one of matrix, generator, got %r" % (fields,))


def cmd_simulate(args):
    started = _now()
    config = {"law": {}, "method": "euler", **_load_json(args.config)}
    arguments = read_arguments(bundle_blocks, config, args.config, drift=_read_drift)
    header, blocks = bundle_blocks(**arguments)
    write_bundle(args.out, header, blocks)
    outputs = [args.out]
    if args.csv:
        with read_bundle(args.out) as streamed:
            write_bundle_csv(args.csv, *streamed)
        outputs.append(args.csv)
    _write_manifest(args.out + ".manifest.json", "simulate", arguments, header["seed"], started, outputs)
    print("wrote %d paths (dim %d, grid %d) to %s"
          % (header["n_paths"], header["dim"], header["grid_len"], args.out))
    return 0


def _parse_grid(text):
    if text == "default":
        return CvGrid.default()
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--grid expects 'default' or 'LOG10MIN:LOG10MAX:LOG10STEP', got %r" % (text,))
    try:
        low, high, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError("--grid components must be numbers, got %r" % (text,)) from None
    return CvGrid(log10_min=low, log10_max=high, log10_step=step)


def cmd_estimate(args):
    started = _now()
    if args.method == "mle" and (args.lam is not None or args.grid is not None):
        raise ValueError("method 'mle' takes neither --lambda nor --grid")
    if args.method in PENALTIES and (args.lam is None) == (args.grid is None):
        raise ValueError("method %r needs exactly one of --lambda or --grid" % (args.method,))
    if args.n_train is not None and args.grid is None:
        raise ValueError("--n-train applies only to --grid selection")
    if args.lam is not None:
        check_level(args.lam)
    grid = None if args.grid is None else _parse_grid(args.grid)

    with read_bundle(args.bundle) as (header, blocks):
        n_train = None
        if grid is not None:
            n_train = args.n_train if args.n_train is not None else max(1, int(round(0.8 * header["n_paths"])))
            check_split(header["n_paths"], n_train)
        stats = block_stats(blocks, header["dim"], header["terminal"], header["step"], n_train)

    cv_report = None
    if args.method == "mle":
        result = solve_mle(stats)
    elif grid is None:
        solve = solve_lasso if args.method == "lasso" else solve_slope
        result = solve(stats, args.lam)
    else:
        cv_report = cross_validate(*stats, grid, penalty=PENALTIES[args.method])
        result = cv_report.result

    write_json({"estimator_result": result, "cv_report": cv_report}, args.out)
    outputs = [args.out]
    if cv_report is not None:
        scores_path = args.out + ".cv.csv"
        report_to_csv(cv_report, scores_path)
        outputs.append(scores_path)
    resolved = {
        "bundle": args.bundle,
        "method": args.method,
        "lambda": args.lam,
        "grid": args.grid,
        "n_train": n_train,
    }
    _write_manifest(args.out + ".manifest.json", "estimate", resolved, header["seed"], started, outputs)
    if cv_report is not None:
        print("chosen lambda %r (validation loss %r)"
              % (cv_report.chosen_lambda, dict(cv_report.scores)[cv_report.chosen_lambda]))
    print("estimate written to %s (converged=%s, iterations=%d)"
          % (args.out, result.converged, result.iterations))
    return 0


def cmd_reproduce(args):
    started = _now()
    plan_config = _load_json(args.plan) if args.plan else {}
    try:
        plan = plan_from_dict(plan_config)
    except (TypeError, ValueError) as exc:
        raise ValueError("invalid plan: %s" % (exc,)) from None
    # Check the worker count before the write probe creates the directory.
    threads = worker_count(_resolve_threads(args))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        probe = os.path.join(args.out_dir, ".write_probe")
        with open(probe, "w") as handle:
            handle.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError("output directory is not writable: %s" % (exc,)) from None
    report = run_experiment(plan, threads=threads, verbose=True)
    outputs = export_figure_data(report, args.out_dir)
    timings = [
        {"d": row.dim, "replicate": row.replicate, "estimator": row.estimator,
         "runtime_seconds": row.runtime_seconds}
        for row in report.rows
    ]
    timings_path = os.path.join(args.out_dir, "timings.json")
    write_json(timings, timings_path)
    outputs.append(timings_path)
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    _write_manifest(manifest_path, "reproduce", plan, plan.master_seed, started, outputs)
    for line in summarize(report):
        print(line)
    edges = sum(row.grid_edge for row in report.rows)
    nonconverged = sum(not row.converged for row in report.rows)
    if edges or nonconverged:
        print("warning: %d hold-out picks on the edge of the grid, %d fits not converged"
              % (edges, nonconverged), file=sys.stderr)
    cells = {(row.dim, row.replicate) for row in report.rows}
    failed = {(row.dim, row.replicate) for row in report.rows if row.status != "ok"}
    fraction = (len(cells) - len(failed)) / len(cells)
    if fraction < 0.9:
        print("only %.1f%% of cells succeeded" % (100.0 * fraction), file=sys.stderr)
        return 5
    return 0


# The function behind each theory operation, with the defaults the command
# line supplies for parameters that have none.
_THEORY = {
    "cinfty": (compute_c_infty, {}),
    "concentration": (check_concentration, {"law": {}}),
    "rate": (rate_sweep, {"axis": "N", "plan": {}}),
    "kl": (kl_between, {}),
}


def cmd_theory(args):
    started = _now()
    config = _load_json(args.config)
    target, defaults = _THEORY[args.operation]
    arguments = read_arguments(target, {**defaults, **config}, args.config)
    result = target(**arguments)
    outputs = [args.out]
    seed = arguments.get("seed")

    if args.operation == "cinfty":
        write_json(result, args.out)
        print("c_infty[0,0] = %r" % (float(result.c_infty[0, 0]),))
        print("kappa_min = %r, kappa_max = %r, kappa_star = %r"
              % (result.kappa_min, result.kappa_max, result.kappa_star))
    elif args.operation == "concentration":
        rows = to_plain(result)
        write_json(rows, args.out)
        write_csv(args.out + ".csv", rows[0], [row.values() for row in rows])
        outputs.append(args.out + ".csv")
        for p in result:
            print("N=%d mean operator deviation %r sandwich frequency %r"
                  % (p.n_paths, p.mean_deviation, p.sandwich_frequency))
    elif args.operation == "rate":
        write_json(result, args.out)
        seed = arguments["plan"].master_seed
        # rate_sweep sizes each point itself and takes ``reps``: the plan's sizes go unused.
        arguments["plan"] = {key: value for key, value in to_plain(arguments["plan"]).items()
                             if key not in ("n_paths", "n_train", "replicates", "heatmap_dims")}
        print("fitted exponent %r (expected %r)" % (result.fitted_exponent, result.expected_exponent))
    else:
        write_json({"kl": result}, args.out)
        print("kl = %r" % (result,))

    _write_manifest(args.out + ".manifest.json", "theory " + args.operation,
                    arguments, seed, started, outputs)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparse-ou",
        description="Sparse drift estimation for linear diffusions observed as repeated paths.",
    )
    parser.add_argument("--version", action="version", version="sparse-ou " + __version__)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="simulate a path bundle")
    simulate.add_argument("--config", required=True, help="JSON simulation config")
    simulate.add_argument("--out", required=True, help="output bundle file")
    simulate.add_argument("--csv", default=None, help="optional CSV export of the paths")
    simulate.set_defaults(func=cmd_simulate)

    estimate = commands.add_parser("estimate", help="fit a drift estimator to a bundle")
    estimate.add_argument("--bundle", required=True, help="input bundle file")
    estimate.add_argument("--method", required=True, choices=("mle", *PENALTIES))
    estimate.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="fixed regularization level")
    estimate.add_argument("--grid", default=None,
                          help="'default' or LOG10MIN:LOG10MAX:LOG10STEP hold-out grid")
    estimate.add_argument("--n-train", dest="n_train", type=int, default=None,
                          help="training paths for hold-out selection (default 80 percent)")
    estimate.add_argument("--out", required=True, help="output JSON result")
    estimate.set_defaults(func=cmd_estimate)

    reproduce = commands.add_parser("reproduce", help="run the benchmark protocol")
    reproduce.add_argument("--plan", default=None, help="JSON plan (defaults fill missing fields)")
    reproduce.add_argument("--out-dir", required=True, help="output directory")
    reproduce.add_argument("--threads", type=int, default=None,
                           help="worker processes (default: SPARSE_OU_THREADS or all cores)")
    reproduce.set_defaults(func=cmd_reproduce)

    theory = commands.add_parser("theory", help="population quantities and empirical checks")
    theory.add_argument("operation", choices=("cinfty", "concentration", "rate", "kl"))
    theory.add_argument("--config", required=True, help="JSON config for the operation")
    theory.add_argument("--out", required=True, help="output JSON report")
    theory.set_defaults(func=cmd_theory)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except UnsupportedInputError as exc:
        print("error: unsupported input: %s" % (exc,), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("error: numerical failure: %s" % (exc,), file=sys.stderr)
        return 4
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
