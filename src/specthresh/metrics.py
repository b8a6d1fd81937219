"""Scoring estimated spectra: RMISE, support recovery, ROC curves."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .estimator import (
    SpectralEstimate,
    _coherence_graph,
    _coherence_sum,
    _row_blocks,
    _sq_norms,
    half_weights,
)


@dataclass
class EvaluationReport:
    """Metrics of one estimate (or a replicate mean with sd)."""

    method: str
    rmise: float
    precision: Optional[float] = None
    recall: Optional[float] = None
    f1: Optional[float] = None
    auc: Optional[float] = None
    sd: Dict[str, float] = field(default_factory=dict)


def _check_truth(est: SpectralEstimate, truth: np.ndarray) -> None:
    if np.shape(truth) != est.half.shape:
        raise ParameterError(
            f"truth of shape {np.shape(truth)} for an estimate of shape {est.half.shape}")


def rmise(est: SpectralEstimate, truth: np.ndarray) -> float:
    """Relative mean integrated squared error in percent over F_n:
    100 * sum_j ||f_hat(w_j) - f(w_j)||_F^2 / sum_j ||f(w_j)||_F^2.

    `truth` holds f(w_j) for j = 0..floor(n/2), like `est.half`; row j is
    weighted by its count in F_n, since conjugation keeps each norm.
    """
    _check_truth(est, truth)
    t = _Truth(truth, est.n)
    return t.rmise(sum(t.sq_error(rows, f_hat) for rows, f_hat in _row_blocks(est.half)))


@dataclass
class SupportScores:
    precision: float
    recall: float
    f1: float


def support_scores(
    est: SpectralEstimate,
    truth: np.ndarray,
    include_diagonal: bool = False,
) -> SupportScores:
    """Precision, recall and F1 of each frequency's support, averaged over F_n.

    `truth` holds f(w_j) for j = 0..floor(n/2), like `est.half`; row j is
    weighted by its count in F_n, since conjugation keeps each modulus.
    Estimate entries count as nonzero when exactly nonzero (thresholding
    produces exact zeros); truth entries count as zero up to a tolerance of
    1e-12 relative to the largest truth modulus.
    Diagonal entries are excluded by default (nonzero on both sides for
    any reasonable estimate, pure score inflation).
    """
    _check_truth(est, truth)
    t = _Truth(truth, est.n, include_diagonal, support=True)
    return t.support_scores(np.concatenate(
        [t.support_counts(rows, f_hat) for rows, f_hat in _row_blocks(est.half)]))


class _Truth:
    """What the scores take of the truth `half` (f(w_j), j = 0..floor(n/2))
    alone, made once per truth: row weights, rmise's denominator, the true
    coherence graph (`graph`: edge (r, s), r != s, is true when f_rs is
    nonzero at some frequency) and, with `support`, each row's true support
    on the pairs counted (`mask`).  A truth entry counts as nonzero when its
    modulus exceeds 1e-12 times the largest truth modulus.  Its methods are
    the fold kernels of the scores, each given one `_row_blocks` block of an
    estimate's rows, and their finishers."""

    def __init__(self, half: np.ndarray, n: int, include_diagonal: bool = False,
                 support: bool = False):
        self.half, self.weights = half, half_weights(n)
        self.sq = sum(float(self.weights[rows] @ _sq_norms(f)) for rows, f in _row_blocks(half))
        self.mask = ~np.eye(half.shape[-1], dtype=bool) | include_diagonal
        # each entry's largest modulus over the rows; row -j, the conjugate
        # of row j, has the same moduli
        peak = functools.reduce(np.maximum, map(np.abs, half))
        zero_tol = 1e-12 * float(np.max(peak))
        self.graph = peak > zero_tol
        np.fill_diagonal(self.graph, False)
        if support:
            self.support = np.concatenate(
                [(np.abs(f) > zero_tol) & self.mask for _, f in _row_blocks(half)])
            self.n_true = self.support.sum(axis=(1, 2))

    def sq_error(self, rows: slice, f_hat: np.ndarray) -> float:
        """sum_j w_j ||f_hat(w_j) - f(w_j)||_F^2 over the rows of a block."""
        return float(self.weights[rows] @ _sq_norms(f_hat - self.half[rows]))

    def rmise(self, sq_error: float) -> float:
        if self.sq == 0:
            raise ParameterError("truth is identically zero")
        return 100.0 * sq_error / self.sq

    def support_counts(self, rows: slice, f_hat: np.ndarray) -> np.ndarray:
        """(rows, 2): the pairs each row of a block has nonzero, and how many
        of them are nonzero in the truth too."""
        est_nz = (np.abs(f_hat) > 0) & self.mask
        return np.stack([est_nz & self.support[rows], est_nz], axis=1).sum(axis=(2, 3))

    def support_scores(self, counts: np.ndarray) -> SupportScores:
        hits, n_est = np.asarray(counts, dtype=float).T
        # empty-denominator conventions: no predictions -> precision 1,
        # empty truth -> recall 1, and F1 0 when both are 0
        precision = np.divide(hits, n_est, out=np.ones_like(hits), where=n_est > 0)
        recall = np.divide(hits, self.n_true, out=np.ones_like(hits), where=self.n_true > 0)
        total = precision + recall
        f1 = np.divide(2 * precision * recall, total, out=np.zeros_like(total), where=total > 0)
        per = np.stack([precision, recall, f1], axis=1)
        return SupportScores(*(self.weights @ per / self.weights.sum()).tolist())

    def coherence_sum(self, acc: np.ndarray, rows: slice, f_hat: np.ndarray) -> None:
        _coherence_sum(acc, f_hat, self.weights[rows])

    def coherence_graph(self, acc: np.ndarray) -> np.ndarray:
        return _coherence_graph(acc, self.weights)


@dataclass
class RocCurve:
    # (k, 2) float rows (fpr, tpr), sorted by fpr: the corners of the
    # piecewise linear curve, its first and last point included
    points: np.ndarray
    auc: float


def roc_points(weighted_graph: np.ndarray, truth_support: np.ndarray) -> RocCurve:
    """ROC of edge scores against the true support, strict upper triangle.

    Sweeps a cut over the unique edge weights in descending order and adds
    the trapezoid endpoints (0,0) and (1,1).  One descending sort gives
    every cut's counts: the edges predicted at cut c are a prefix of the
    sorted scores, ending at the last score equal to c.  Both rates never
    decrease along the cuts, so the points come sorted, and a point equal
    to its predecessor is dropped.  The AUC is the trapezoid sum over that
    whole curve.  The curve returned keeps only its corners: a point is
    dropped when it lies on the segment between its neighbours, decided
    exactly on the cut counts, so the piecewise linear curve is unchanged.
    """
    g = np.asarray(weighted_graph, dtype=float)
    if not np.allclose(g, g.T, atol=1e-10):
        raise ParameterError("weighted graph must be symmetric")
    p = g.shape[0]
    iu = np.triu_indices(p, k=1)
    scores = g[iu]
    labels = np.asarray(truth_support, dtype=bool)[iu]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # the last position of each distinct score closes that cut's prefix
    last = np.append(ranked[1:] != ranked[:-1], True)[: ranked.size]
    # (fp, tp) counts of (0, 0), every cut and (1, 1); the last row scales
    # them to rates.  An empty class counts one unit on its axis, which
    # keeps the rate conventions: with no negatives (or no edges) every cut
    # is at fpr 0, with no positives every cut is at tpr 1.
    counts = np.zeros((last.sum() + 2, 2), dtype=np.int64)
    counts[1:-1, 0] = np.cumsum(~labels[order])[last] if n_neg else 0
    counts[1:-1, 1] = np.cumsum(labels[order])[last] if n_pos else 1
    counts[-1] = max(n_neg, 1), max(n_pos, 1)
    counts = counts[np.append(True, (counts[1:] != counts[:-1]).any(axis=1))]
    points = counts / counts[-1]  # fp / n_neg and tp / n_pos, or 0 and 1
    auc = float(np.trapezoid(points[:, 1], points[:, 0]))
    # both counts never decrease, so a point whose two steps are parallel
    # (cross product 0) lies on the segment between its neighbours
    step = np.diff(counts, axis=0)
    bend = step[:-1, 0] * step[1:, 1] != step[:-1, 1] * step[1:, 0]
    return RocCurve(points[np.concatenate(([True], bend, [True]))], auc)


def replicate_summary(reports: Sequence[EvaluationReport]) -> EvaluationReport:
    """Entrywise mean and sample standard deviation across replicates."""
    if not reports:
        raise ParameterError("no reports to summarize")
    method = reports[0].method
    out = EvaluationReport(method=method, rmise=0.0)
    for name in ("rmise", "precision", "recall", "f1", "auc"):
        vals = [getattr(r, name) for r in reports]
        if any(v is None for v in vals):
            continue
        arr = np.array(vals, dtype=float)
        setattr(out, name, float(arr.mean()))
        if len(arr) >= 2:
            out.sd[name] = float(arr.std(ddof=1))
    return out
