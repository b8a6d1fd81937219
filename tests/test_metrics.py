import numpy as np
import pytest

from specthresh import (
    EvaluationReport,
    ParameterError,
    SpectralEstimate,
    replicate_summary,
    rmise,
    roc_points,
    support_scores,
)
from specthresh.metrics import RocCurve


def make_estimate(n, mats, method="lasso"):
    p = next(iter(mats.values())).shape[0]
    return SpectralEstimate(n=n, p=p, m=1, method=method, matrices=mats)


def hermitian(rng, p):
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return b + b.conj().T


class TestRmise:
    def _pair(self, rng, n=4, p=3):
        truth = {j: hermitian(rng, p) for j in (-1, 0, 1, 2)}
        return truth

    def test_exact_match_is_zero(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, {j: m.copy() for j, m in truth.items()})
        assert rmise(est, truth) == 0.0

    def test_zero_estimate_is_hundred(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, {j: np.zeros_like(m) for j, m in truth.items()})
        assert abs(rmise(est, truth) - 100.0) < 1e-10

    def test_double_estimate_is_hundred(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, {j: 2.0 * m for j, m in truth.items()})
        assert abs(rmise(est, truth) - 100.0) < 1e-10

    def test_scale_invariance(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, {j: m + 0.1 for j, m in truth.items()})
        scaled_truth = {j: 3.0 * m for j, m in truth.items()}
        scaled_est = make_estimate(4, {j: 3.0 * (m + 0.1) for j, m in truth.items()})
        assert abs(rmise(est, truth) - rmise(scaled_est, scaled_truth)) < 1e-9

    def test_mismatched_frequencies(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, {0: truth[0]})
        with pytest.raises(ParameterError):
            rmise(est, truth)


class TestSupportScores:
    def test_perfect_recovery(self, rng):
        mat = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        truth = {j: mat for j in (-1, 0, 1)}
        est = make_estimate(3, {j: mat.copy() for j in truth})
        scores = support_scores(est, truth)
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_quarter_dense_truth(self):
        p = 4
        est_mat = np.ones((p, p), dtype=complex)
        truth_mat = np.eye(p, dtype=complex)
        truth_mat[0, 1] = truth_mat[1, 0] = truth_mat[2, 3] = 1.0  # 3 of 12 off-diagonals
        truth = {j: truth_mat for j in (0, 1)}
        est = make_estimate(2, {j: est_mat.copy() for j in truth})
        scores = support_scores(est, truth)
        assert abs(scores.precision - 0.25) < 1e-14
        assert scores.recall == 1.0
        assert abs(scores.f1 - 0.4) < 1e-14

    def test_empty_estimate_conventions(self):
        truth_mat = np.ones((3, 3), dtype=complex)
        est_mat = np.diag([1.0, 1.0, 1.0]).astype(complex)
        truth = {0: truth_mat}
        est = make_estimate(2, {0: est_mat})
        scores = support_scores(est, truth)
        assert scores.precision == 1.0  # no predicted off-diagonal positives
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_empty_truth_convention(self):
        truth = {0: np.eye(3, dtype=complex)}
        est = make_estimate(2, {0: np.eye(3, dtype=complex)})
        assert support_scores(est, truth).recall == 1.0

    def test_include_diagonal_flag(self):
        p = 3
        est_mat = np.eye(p, dtype=complex)
        truth_mat = np.eye(p, dtype=complex)
        truth = {0: truth_mat}
        est = make_estimate(2, {0: est_mat})
        off = support_scores(est, truth, include_diagonal=False)
        full = support_scores(est, truth, include_diagonal=True)
        assert off.recall == 1.0 and off.precision == 1.0  # empty-set conventions
        assert full.precision == full.recall == 1.0  # diagonal hits counted

    def test_zero_tol_applies_to_truth_only(self):
        truth_mat = np.eye(2, dtype=complex)
        truth_mat[0, 1] = truth_mat[1, 0] = 1e-15  # numerically zero
        est_mat = np.eye(2, dtype=complex)
        est = make_estimate(2, {0: est_mat})
        scores = support_scores(est, {0: truth_mat})
        assert scores.recall == 1.0


def rmise_loop(est, truth):
    """Oracle: one frequency at a time."""
    num = sum(float(np.sum(np.abs(est.matrices[j] - truth[j]) ** 2)) for j in est.frequencies())
    den = sum(float(np.sum(np.abs(truth[j]) ** 2)) for j in est.frequencies())
    return 100.0 * num / den


def support_loop(est, truth, include_diagonal):
    """Oracle: precision, recall and F1 one frequency at a time, then their means."""
    mask = np.ones((est.p, est.p), dtype=bool)
    if not include_diagonal:
        np.fill_diagonal(mask, False)
    zero_tol = 1e-12 * max(float(np.max(np.abs(truth[j]))) for j in truth)
    per = {}
    for j in est.frequencies():
        est_nz = (np.abs(est.matrices[j]) > 0) & mask
        true_nz = (np.abs(truth[j]) > zero_tol) & mask
        hits, n_est, n_true = int(np.sum(est_nz & true_nz)), int(np.sum(est_nz)), int(np.sum(true_nz))
        precision = hits / n_est if n_est else 1.0
        recall = hits / n_true if n_true else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per[j] = (precision, recall, f1)
    return per, np.array(list(per.values())).mean(axis=0)


class TestManyFrequencies:
    """The public metrics over more frequencies than one block of rows, on a
    dict with no conjugate pairs, against one-frequency-at-a-time loops.
    At p = 96 a block holds 7 rows rather than 16."""

    @staticmethod
    def _pair(rng, p):
        truth, mats = {}, {}
        for j in range(-5, 36):
            truth[j] = hermitian(rng, p)
            truth[j][np.abs(truth[j]) < 0.8] = 0.0
            mats[j] = truth[j] + 0.3 * hermitian(rng, p)
            mats[j][np.abs(mats[j]) < 1.0] = 0.0
        return make_estimate(80, mats), truth

    @pytest.mark.parametrize("p", [6, 96])
    def test_rmise_equals_loop(self, rng, p):
        est, truth = self._pair(rng, p)
        assert abs(rmise(est, truth) - rmise_loop(est, truth)) <= 1e-12 * rmise_loop(est, truth)

    @pytest.mark.parametrize("p", [6, 96])
    @pytest.mark.parametrize("include_diagonal", [True, False])
    def test_support_scores_equal_loop(self, rng, p, include_diagonal):
        est, truth = self._pair(rng, p)
        got = support_scores(est, truth, include_diagonal=include_diagonal)
        per, means = support_loop(est, truth, include_diagonal)
        assert got.per_frequency == per
        assert np.allclose([got.precision, got.recall, got.f1], means, rtol=1e-12, atol=0)
        assert 0 < got.precision < 1 and 0 < got.recall < 1


def roc_by_cut_sweep(weighted_graph, truth_support):
    """Quadratic oracle: one full mask per unique cut, descending."""
    iu = np.triu_indices(weighted_graph.shape[0], k=1)
    scores = weighted_graph[iu]
    labels = np.asarray(truth_support, dtype=bool)[iu]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    points = [(0.0, 0.0)]
    for cut in np.unique(scores)[::-1]:
        pred = scores >= cut
        tpr = float(np.sum(pred & labels)) / n_pos if n_pos else 1.0
        fpr = float(np.sum(pred & ~labels)) / n_neg if n_neg else 0.0
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    points = sorted(set(points))
    xs = np.array([pt[0] for pt in points])
    ys = np.array([pt[1] for pt in points])
    return RocCurve(points, float(np.trapezoid(ys, xs)))


class TestRocPoints:
    @pytest.mark.parametrize("p", [1, 2, 7, 20])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_cut_sweep_oracle(self, rng, p, density, tied):
        w = rng.uniform(0, 1, (p, p))
        if tied:
            w = np.round(4 * w) / 4  # many equal scores
        w = w + w.T
        truth = rng.uniform(0, 1, (p, p)) < density
        truth = truth | truth.T
        curve = roc_points(w, truth)
        ref = roc_by_cut_sweep(w, truth)
        assert curve.points == ref.points
        assert curve.auc == ref.auc

    def test_oracle_weights_give_unit_auc(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = truth[2, 3] = truth[3, 2] = True
        weights = truth.astype(float)
        curve = roc_points(weights, truth)
        assert abs(curve.auc - 1.0) < 1e-12

    def test_constant_weights_give_half_auc(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        weights = np.full((4, 4), 0.5)
        curve = roc_points(weights, truth)
        assert abs(curve.auc - 0.5) < 1e-12

    def test_points_monotone_and_auc_bounded(self, rng):
        p = 6
        w = rng.uniform(0, 1, (p, p))
        w = 0.5 * (w + w.T)
        truth = rng.uniform(0, 1, (p, p)) > 0.5
        truth = truth | truth.T
        curve = roc_points(w, truth)
        xs = [pt[0] for pt in curve.points]
        ys = [pt[1] for pt in curve.points]
        assert xs == sorted(xs)
        assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))
        assert 0.0 <= curve.auc <= 1.0

    def test_asymmetric_graph_rejected(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ParameterError):
            roc_points(w, np.zeros((2, 2), dtype=bool))


class TestReplicateSummary:
    def test_identical_replicates(self):
        reps = [EvaluationReport(method="lasso", rmise=12.5) for _ in range(4)]
        out = replicate_summary(reps)
        assert out.rmise == 12.5
        assert out.sd["rmise"] == 0.0

    def test_two_point_arithmetic(self):
        reps = [
            EvaluationReport(method="hard", rmise=10.0),
            EvaluationReport(method="hard", rmise=20.0),
        ]
        out = replicate_summary(reps)
        assert out.rmise == 15.0
        assert abs(out.sd["rmise"] - np.sqrt(50.0)) < 1e-12

    def test_single_replicate_has_no_sd(self):
        out = replicate_summary([EvaluationReport(method="hard", rmise=10.0)])
        assert out.rmise == 10.0
        assert "rmise" not in out.sd

    def test_partial_metrics_skipped(self):
        reps = [
            EvaluationReport(method="lasso", rmise=10.0, precision=0.5),
            EvaluationReport(method="lasso", rmise=12.0, precision=None),
        ]
        out = replicate_summary(reps)
        assert out.rmise == 11.0
        assert out.precision is None

    def test_empty_input(self):
        with pytest.raises(ParameterError):
            replicate_summary([])
