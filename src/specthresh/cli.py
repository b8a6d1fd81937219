"""Command-line front end: simulate | estimate | evaluate | bench | coherence."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bench as bench_mod
from . import estimator, fileio
from .errors import DataError, NumericalError, SpecthreshError
from .metrics import EvaluationReport, rmise, support_scores
from .model import simulate
from .tuning import default_span, tuned_estimates

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def cmd_simulate(args) -> int:
    model = fileio.read_model(args.model)
    x = simulate(model, args.n, burn_in=args.burn_in, seed=args.seed)
    fileio.write_series(x, args.out)
    return EXIT_OK


def _resolve_span(args, n: int) -> int:
    if args.m is not None:
        if 2 * args.m + 1 > n:
            raise DataError(f"2m+1 = {2 * args.m + 1} exceeds n = {n}")
        return args.m
    return default_span(n, args.span_rule)


def cmd_estimate(args) -> int:
    x = fileio.read_series(args.series)
    m = _resolve_span(args, x.n)
    if args.fixed_lambda is not None:
        lambdas = {j: args.fixed_lambda for j in range(0, x.n // 2 + 1)}
        est = estimator.threshold_estimate(x, m, args.method, lambdas)
    else:
        est, = tuned_estimates(x, m, [args.method], args.grid_size, args.n_splits, args.seed)
    fileio.write_estimate(est, args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = fileio.read_model(args.model)
    rows = []
    truths = {}  # files of one n share the truth
    for est_path in args.estimates:
        est = fileio.read_estimate(est_path)
        if est.p != model.dim:
            raise DataError(f"{est_path}: estimate has p = {est.p}, model has p = {model.dim}")
        if est.n not in truths:
            truths[est.n] = bench_mod.truth_spectra(model, est.n)
        truth = truths[est.n]
        report = EvaluationReport(method=est.method, rmise=rmise(est, truth))
        if est.method in estimator.THRESHOLD_METHODS:
            scores = support_scores(est, truth)
            report.precision = scores.precision
            report.recall = scores.recall
            report.f1 = scores.f1
        rows.extend(fileio.report_rows(report, est.p, est.n, est.m))
    fileio.write_report_csv(rows, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    with open(args.spec) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.spec}: {exc}") from None
    spec = bench_mod.BenchmarkSpec.from_dict(obj)
    cells = bench_mod.run_benchmark(spec, args.out, jobs=args.jobs)
    failed = len(spec.p_list) * len(spec.n_list) - len(cells)
    if failed:
        print(f"error: {failed} benchmark cell(s) failed; the tables hold the others",
              file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_coherence(args) -> int:
    est = fileio.read_estimate(args.estimate)
    graph = estimator.aggregate_coherence_graph(est)
    names = est.channel_names or tuple(f"x{i}" for i in range(est.p))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *names])
        for name, row in zip(names, graph):
            writer.writerow([name, *fileio._fmt_all(row.tolist())])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specthresh",
        description="Spectral density estimation by thresholding averaged periodograms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a VARMA sample path")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--n", type=_int_at_least(2), required=True, help="sample length")
    sim.add_argument("--burn-in", type=_int_at_least(0), default=None)
    sim.add_argument("--seed", type=_int_at_least(0), default=0)
    sim.add_argument("--out", required=True, help="output series CSV")
    sim.set_defaults(func=cmd_simulate)

    estp = sub.add_parser("estimate", help="estimate the spectral density of a series")
    estp.add_argument("--series", required=True, help="input series CSV")
    estp.add_argument("--method", required=True,
                      choices=[*estimator.ALL_METHODS, *estimator.METHOD_ALIASES])
    estp.add_argument("--m", type=_int_at_least(0), default=None, help="smoothing half-span")
    estp.add_argument(
        "--span-rule", choices=["ma_like", "ar_like"], default="ma_like",
        help="span heuristic when --m is not given",
    )
    estp.add_argument(
        "--lambda", dest="fixed_lambda", type=float, default=None,
        help="fixed threshold; default is per-frequency sample-splitting",
    )
    estp.add_argument("--grid-size", type=_int_at_least(1), default=20)
    estp.add_argument("--n-splits", type=_int_at_least(1), default=1)
    estp.add_argument("--seed", type=_int_at_least(0), default=0)
    estp.add_argument("--out", required=True, help="output estimate JSON")
    estp.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", help="score estimates against a model's truth")
    ev.add_argument("--model", required=True, help="model JSON file")
    ev.add_argument("--out", required=True, help="output report CSV")
    ev.add_argument("estimates", nargs="+", help="estimate JSON files")
    ev.set_defaults(func=cmd_evaluate)

    be = sub.add_parser("bench", help="run the simulation benchmark grid")
    be.add_argument("--spec", required=True, help="benchmark spec JSON")
    be.add_argument("--out", required=True, help="output directory")
    be.add_argument("--jobs", type=_int_at_least(1), default=1)
    be.set_defaults(func=cmd_bench)

    co = sub.add_parser("coherence", help="aggregate coherence graph of an estimate")
    co.add_argument("--estimate", required=True, help="estimate JSON file")
    co.add_argument("--out", required=True, help="output adjacency CSV")
    co.set_defaults(func=cmd_coherence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.fixed_lambda is not None \
            and estimator.canonical_method(args.method) not in estimator.THRESHOLD_METHODS:
        parser.error(f"--lambda applies only to hard, lasso and alasso, not to {args.method}")
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SpecthreshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
