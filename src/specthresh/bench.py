"""Simulation benchmark: estimation accuracy and support recovery of the
smoothing, shrinkage and thresholding estimators on block VARMA models."""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dft import FourierGrid, periodogram_all
from .errors import DataError, ParameterError
from .estimator import (
    SpectralEstimate,
    ThresholdOperator,
    _mirror,
    aggregate_coherence_graph,
    shrinkage_all,
    smoothed_estimate,
)
from .metrics import EvaluationReport, RocCurve, replicate_summary, rmise, roc_points, support_scores
from .model import VarmaModel, _spectral_density_half, block_varma_model, simulate
from .tuning import default_span, tuned_threshold_estimate

METHOD_ALIASES = {"alasso": "adaptive_lasso"}
THRESHOLD_METHODS = ("hard", "lasso", "adaptive_lasso")
ALL_METHODS = ("smoothed", "shrinkage") + THRESHOLD_METHODS


def canonical_method(name: str) -> str:
    name = METHOD_ALIASES.get(name, name)
    if name not in ALL_METHODS:
        raise ParameterError(f"unknown method {name!r}")
    return name


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
        object.__setattr__(self, "p_list", tuple(int(p) for p in self.p_list))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "methods", tuple(canonical_method(m) for m in self.methods)
        )
        rule = self.span_rule or ("ma_like" if self.family == "vma" else "ar_like")
        object.__setattr__(self, "span_rule", rule)
        for n in self.n_list:
            m = default_span(n, rule)
            if 2 * m + 1 > n:
                raise ParameterError(f"span rule gives 2m+1 > n for n={n}")

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchmarkSpec":
        try:
            return cls(
                family=obj["family"],
                p_list=obj["p"],
                n_list=obj["n"],
                methods=obj["methods"],
                replicates=int(obj.get("replicates", 20)),
                seed=int(obj.get("seed", 0)),
                span_rule=obj.get("span_rule"),
                grid_size=int(obj.get("grid_size", 20)),
                n_splits=int(obj.get("n_splits", 1)),
                include_diagonal=bool(obj.get("include_diagonal", True)),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"bad benchmark spec: {exc}") from None


def truth_spectra(model: VarmaModel, n: int) -> Dict[int, np.ndarray]:
    """Population spectral density at every j in F_n, keyed by j.

    Computed on j >= 0 only; f(omega_{-j}) is the conjugate of f(omega_j).
    """
    return _mirror(FourierGrid(n), _spectral_density_half(model, n))


def truth_graph_support(truth: Dict[int, np.ndarray]) -> np.ndarray:
    """Edge (r, s) is true when f_rs is nonzero at some Fourier frequency."""
    peak = max(float(np.max(np.abs(f))) for f in truth.values())
    tol = 1e-12 * peak
    support = None
    for f in truth.values():
        nz = np.abs(f) > tol
        support = nz if support is None else (support | nz)
    np.fill_diagonal(support, False)
    return support


def estimate_by_method(
    method: str,
    x,
    m: int,
    grid_size: int = 20,
    n_splits: int = 1,
    seed: int = 0,
    periodograms: Optional[np.ndarray] = None,
) -> SpectralEstimate:
    method = canonical_method(method)
    if periodograms is None:
        periodograms = periodogram_all(x)
    if method == "smoothed":
        return smoothed_estimate(x, m, periodograms=periodograms)
    if method == "shrinkage":
        return shrinkage_all(x, m, periodograms=periodograms)
    op = ThresholdOperator(method if method != "adaptive_lasso" else "adaptive_lasso")
    return tuned_threshold_estimate(
        x, m, op, grid_size=grid_size, n_splits=n_splits, seed=seed,
        periodograms=periodograms,
    )


def _replicate_seed(master: int, cell_index: int, replicate: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(cell_index, replicate))


def run_replicate(
    spec: BenchmarkSpec,
    cell_index: int,
    p: int,
    n: int,
    replicate: int,
    truth: Dict[int, np.ndarray],
    truth_support_graph: np.ndarray,
) -> Dict[str, dict]:
    model = block_varma_model(p, spec.family)
    m = default_span(n, spec.span_rule)
    seed = _replicate_seed(spec.seed, cell_index, replicate)
    x = simulate(model, n, seed=seed)
    periodograms = periodogram_all(x)
    tuning_seed = int(seed.generate_state(1)[0])
    out = {}
    for method in spec.methods:
        est = estimate_by_method(
            method, x, m, grid_size=spec.grid_size, n_splits=spec.n_splits,
            seed=tuning_seed, periodograms=periodograms,
        )
        report = EvaluationReport(method=method, rmise=rmise(est, truth))
        graph = aggregate_coherence_graph(est)
        roc = roc_points(graph, truth_support_graph)
        report.auc = roc.auc
        if method in THRESHOLD_METHODS:
            scores = support_scores(est, truth, include_diagonal=spec.include_diagonal)
            report.precision = scores.precision
            report.recall = scores.recall
            report.f1 = scores.f1
        out[method] = {"report": report, "roc": roc}
    return out


# A pool worker's truth and truth support, set once per worker by
# `_init_worker` so that replicate tasks need not carry them.
_worker_truth: tuple = ()


def _init_worker(truth: Dict[int, np.ndarray], truth_support_graph: np.ndarray) -> None:
    global _worker_truth
    _worker_truth = (truth, truth_support_graph)


def _worker(task):
    return run_replicate(*task, *_worker_truth)


@dataclass
class CellResult:
    p: int
    n: int
    m: int
    summaries: Dict[str, EvaluationReport]
    rocs: Dict[str, List[RocCurve]]


def run_cell(spec: BenchmarkSpec, cell_index: int, p: int, n: int, jobs: int = 1) -> CellResult:
    model = block_varma_model(p, spec.family)
    truth = truth_spectra(model, n)
    support = truth_graph_support(truth)
    tasks = [(spec, cell_index, p, n, r) for r in range(spec.replicates)]
    if jobs > 1:
        # the truth reaches each worker once, through the initializer: a
        # forked worker inherits it, a spawned one unpickles it once
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(truth, support)
        ) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [run_replicate(*t, truth, support) for t in tasks]
    summaries = {}
    rocs: Dict[str, List[RocCurve]] = {}
    for method in spec.methods:
        reports = [res[method]["report"] for res in results]
        summaries[method] = replicate_summary(reports)
        rocs[method] = [res[method]["roc"] for res in results]
    return CellResult(p, n, default_span(n, spec.span_rule), summaries, rocs)


def run_benchmark(spec: BenchmarkSpec, out_dir, jobs: int = 1, log=sys.stderr) -> List[CellResult]:
    """Run every cell; a failing cell is logged and skipped, others proceed."""
    from .fileio import report_rows, write_report_csv

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
    import csv

    from .fileio import _fmt

    path = os.path.join(out_dir, f"roc_p{cell.p}_n{cell.n}_{method}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate", "fpr", "tpr"])
        for r, curve in enumerate(cell.rocs[method]):
            for fpr, tpr in curve.points:
                writer.writerow([r, _fmt(fpr), _fmt(tpr)])
