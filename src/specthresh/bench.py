"""Simulation benchmark: estimation accuracy and support recovery of the
smoothing, shrinkage and thresholding estimators on block VARMA models."""

from __future__ import annotations

import functools
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .errors import DataError, ParameterError, SpecthreshError
from .estimator import THRESHOLD_METHODS, canonical_method
from .fileio import _fmt_distinct, _json_value, report_rows, write_report_csv
from .metrics import EvaluationReport, RocCurve, _Truth, replicate_summary, roc_points
from .model import VarmaModel, _spectral_blocks, _spectral_density, block_varma_model, simulate
from .tuning import default_span, tuned_blocks


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid of benchmark cells (family x p x n) with shared settings."""

    family: str
    p_list: tuple
    n_list: tuple
    methods: tuple
    replicates: int = 20
    seed: int = 0
    span_rule: Optional[str] = None  # ma_like | ar_like; default from family
    grid_size: int = 20
    n_splits: int = 1
    # Diagonal pairs count in the support tables by default; they are part
    # of the reference precision/recall numbers this benchmark reproduces.
    include_diagonal: bool = True

    def __post_init__(self):
        if self.family not in ("vma", "var"):
            raise ParameterError(f"unknown family {self.family!r}")
        if self.replicates < 1:
            raise ParameterError("replicates must be at least 1")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if self.grid_size < 1:
            raise ParameterError("grid_size must be at least 1")
        if self.n_splits < 1:
            raise ParameterError("n_splits must be at least 1")
        rule = self.span_rule or ("ma_like" if self.family == "vma" else "ar_like")
        if rule not in ("ma_like", "ar_like"):
            raise ParameterError(f"unknown span rule {rule!r}")
        object.__setattr__(self, "span_rule", rule)
        object.__setattr__(self, "p_list", tuple(int(p) for p in self.p_list))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        for name, sizes in (("p", self.p_list), ("n", self.n_list)):
            if not sizes:
                raise ParameterError(f"{name} must list at least one size")
        for p in self.p_list:
            if p < 3 or p % 3 != 0:
                # the block models are made of 3 x 3 blocks
                raise ParameterError(f"p must be a positive multiple of 3, got p={p}")
        # each method once, in the order first listed, whatever its alias
        object.__setattr__(
            self, "methods", tuple(dict.fromkeys(canonical_method(m) for m in self.methods))
        )
        if not self.methods:
            raise ParameterError("methods must list at least one method")
        for n in self.n_list:
            default_span(n, rule)  # raises for an n the rule does not cover

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchmarkSpec":
        try:
            return cls(
                family=obj["family"],
                p_list=[_json_value(p, int, "p") for p in _json_value(obj["p"], list, "p")],
                n_list=[_json_value(n, int, "n") for n in _json_value(obj["n"], list, "n")],
                methods=_json_value(obj["methods"], list, "methods"),
                replicates=_json_value(obj.get("replicates", 20), int, "replicates"),
                seed=_json_value(obj.get("seed", 0), int, "seed"),
                span_rule=obj.get("span_rule"),
                grid_size=_json_value(obj.get("grid_size", 20), int, "grid_size"),
                n_splits=_json_value(obj.get("n_splits", 1), int, "n_splits"),
                include_diagonal=_json_value(obj.get("include_diagonal", True), bool,
                                             "include_diagonal"),
            )
        except SpecthreshError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"bad benchmark spec: {exc}") from None


def _half_omegas(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n // 2 + 1) / n


def truth_spectra(model: VarmaModel, n: int) -> np.ndarray:
    """Population spectral density f(omega_j) for j = 0..floor(n/2), as a
    dense (n//2+1, p, p) array; f(omega_{-j}) is the conjugate of row j."""
    return _spectral_density(model, _half_omegas(n))


def _replicate_seed(master: int, cell_index: int, replicate: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(cell_index, replicate))


def run_replicate(
    spec: BenchmarkSpec,
    cell_index: int,
    p: int,
    n: int,
    replicate: int,
    truth: _Truth,
) -> Dict[str, dict]:
    """Report and ROC curve of each method on one replicate, against what
    `run_cell` makes of the cell's truth once (`metrics._Truth`).  Each
    block of rows that the estimation pass hands out (`tuning.tuned_blocks`)
    is folded into its method's scores at once, so no whole estimate is
    held."""
    model = block_varma_model(p, spec.family)
    m = default_span(n, spec.span_rule)
    seed = _replicate_seed(spec.seed, cell_index, replicate)
    x = simulate(model, n, seed=seed)
    names = spec.methods
    sq_errors, sums = [0.0] * len(names), np.zeros((len(names), p, p))
    counts = np.empty((len(names), len(truth.weights), 2))
    for k, rows, values, _ in tuned_blocks(x, m, names, spec.grid_size, spec.n_splits,
                                           int(seed.generate_state(1)[0])):
        sq_errors[k] += truth.sq_error(rows, values)
        truth.coherence_sum(sums[k], rows, values)
        if names[k] in THRESHOLD_METHODS:
            counts[k, rows] = truth.support_counts(rows, values)
    out = {}
    for k, method in enumerate(names):
        report = EvaluationReport(method=method, rmise=truth.rmise(sq_errors[k]))
        roc = roc_points(truth.coherence_graph(sums[k]), truth.graph)
        report.auc = roc.auc
        if method in THRESHOLD_METHODS:
            scores = truth.support_scores(counts[k])
            report.precision, report.recall, report.f1 = scores.precision, scores.recall, scores.f1
        out[method] = {"report": report, "roc": roc}
    return out


# The function a pool worker applies to each task, set once per worker by
# `_init_worker` so that tasks need not carry what it binds.
_worker_fn = None


def _init_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker(task):
    return _worker_fn(*task)


def _mapped(fn, tasks: list, jobs: int) -> list:
    """[fn(*task) for task in tasks].

    With jobs > 1 and more than one task the calls run in a pool of
    min(jobs, len(tasks)) worker processes.  `fn`, with the arrays it
    binds, reaches each worker once, through the initializer: a forked
    worker inherits it, a spawned one unpickles it once.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return list(itertools.starmap(fn, tasks))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(fn,)) as pool:
        return list(pool.map(_worker, tasks))


@dataclass
class CellResult:
    p: int
    n: int
    m: int
    summaries: Dict[str, EvaluationReport]
    rocs: Dict[str, List[RocCurve]]


def run_cell(spec: BenchmarkSpec, cell_index: int, p: int, n: int, jobs: int = 1) -> CellResult:
    """Summaries and ROC curves of `spec.replicates` replicates of one cell.

    The truth's blocks (no dense truth) and what the scores take of them
    alone (`metrics._Truth`) are made here first; with jobs > 1 one pool's
    workers then inherit them, with no copy per task, and run the replicates.
    """
    support = any(name in THRESHOLD_METHODS for name in spec.methods)
    truth = _Truth(_spectral_blocks(block_varma_model(p, spec.family), _half_omegas(n)), n,
                   spec.include_diagonal, support)
    tasks = [(spec, cell_index, p, n, r) for r in range(spec.replicates)]
    replicate = functools.partial(run_replicate, truth=truth)
    results = _mapped(replicate, tasks, jobs)
    summaries = {}
    rocs: Dict[str, List[RocCurve]] = {}
    for method in spec.methods:
        reports = [res[method]["report"] for res in results]
        summaries[method] = replicate_summary(reports)
        rocs[method] = [res[method]["roc"] for res in results]
    return CellResult(p, n, default_span(n, spec.span_rule), summaries, rocs)


def run_benchmark(spec: BenchmarkSpec, out_dir, jobs: int = 1, log=None) -> List[CellResult]:
    """Run every cell; a failing cell is logged (to stderr by default) and
    skipped, others proceed."""
    if log is None:
        log = sys.stderr

    os.makedirs(out_dir, exist_ok=True)
    cells = []
    cell_index = 0
    for p in spec.p_list:
        for n in spec.n_list:
            try:
                cells.append(run_cell(spec, cell_index, p, n, jobs=jobs))
            except Exception as exc:  # keep the remaining cells alive
                print(f"cell (p={p}, n={n}) failed: {exc}", file=log)
            cell_index += 1

    rmise_rows, support_rows = [], []
    for cell in cells:
        for method in spec.methods:
            rows = report_rows(cell.summaries[method], cell.p, cell.n, cell.m)
            for row in rows:
                (rmise_rows if row["metric"] == "rmise" else support_rows).append(row)
            _write_roc_csv(cell, method, out_dir)
    write_report_csv(rmise_rows, os.path.join(out_dir, "rmise.csv"))
    write_report_csv(support_rows, os.path.join(out_dir, "support.csv"))
    return cells


def _write_roc_csv(cell: CellResult, method: str, out_dir) -> None:
    """One line (replicate, fpr, tpr) per ROC point: the corners of each
    replicate's curve (`metrics.roc_points`), joined by straight lines.
    Each distinct float of a curve is formatted once."""
    path = os.path.join(out_dir, f"roc_p{cell.p}_n{cell.n}_{method}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("replicate,fpr,tpr\n")
        for r, curve in enumerate(cell.rocs[method]):
            texts, codes = _fmt_distinct(curve.points)
            texts = np.array(texts, dtype=object)[codes].tolist()
            fh.writelines(f"{r},{fpr},{tpr}\n" for fpr, tpr in texts)
