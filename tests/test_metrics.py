from fractions import Fraction

import numpy as np
import pytest
from oracles import rmise_loop, support_loop

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


def make_estimate(n, half, method="lasso"):
    return SpectralEstimate(n=n, p=half.shape[-1], m=1, method=method, half=half)


def rows(mat, n):
    """`mat` at each of the n//2+1 rows of a half spectrum."""
    return np.tile(mat, (n // 2 + 1, 1, 1))


def hermitian(rng, p):
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return b + b.conj().T


class TestRmise:
    def _pair(self, rng, n=4, p=3):
        return np.array([hermitian(rng, p) for _ in range(n // 2 + 1)])

    def test_exact_match_is_zero(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, truth.copy())
        assert rmise(est, truth) == 0.0

    def test_zero_estimate_is_hundred(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, np.zeros_like(truth))
        assert abs(rmise(est, truth) - 100.0) < 1e-10

    def test_double_estimate_is_hundred(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, 2.0 * truth)
        assert abs(rmise(est, truth) - 100.0) < 1e-10

    def test_scale_invariance(self, rng):
        truth = self._pair(rng)
        est = make_estimate(4, truth + 0.1)
        scaled_est = make_estimate(4, 3.0 * (truth + 0.1))
        assert abs(rmise(est, truth) - rmise(scaled_est, 3.0 * truth)) < 1e-9

    def test_mismatched_frequencies(self, rng):
        # a truth of another n, or of another p
        truth = self._pair(rng)
        est = make_estimate(4, truth.copy())
        for other in (self._pair(rng, n=6), self._pair(rng, p=2), truth[0]):
            with pytest.raises(ParameterError, match="truth of shape"):
                rmise(est, other)


class TestSupportScores:
    def test_perfect_recovery(self, rng):
        mat = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        est = make_estimate(3, rows(mat, 3))
        scores = support_scores(est, rows(mat, 3))
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_quarter_dense_truth(self):
        p = 4
        est_mat = np.ones((p, p), dtype=complex)
        truth_mat = np.eye(p, dtype=complex)
        truth_mat[0, 1] = truth_mat[1, 0] = truth_mat[2, 3] = 1.0  # 3 of 12 off-diagonals
        est = make_estimate(2, rows(est_mat, 2))
        scores = support_scores(est, rows(truth_mat, 2))
        assert abs(scores.precision - 0.25) < 1e-14
        assert scores.recall == 1.0
        assert abs(scores.f1 - 0.4) < 1e-14

    def test_empty_estimate_conventions(self):
        truth_mat = np.ones((3, 3), dtype=complex)
        est_mat = np.diag([1.0, 1.0, 1.0]).astype(complex)
        est = make_estimate(2, rows(est_mat, 2))
        scores = support_scores(est, rows(truth_mat, 2))
        assert scores.precision == 1.0  # no predicted off-diagonal positives
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_empty_truth_convention(self):
        est = make_estimate(2, rows(np.eye(3, dtype=complex), 2))
        assert support_scores(est, rows(np.eye(3, dtype=complex), 2)).recall == 1.0

    def test_include_diagonal_flag(self):
        p = 3
        est = make_estimate(2, rows(np.eye(p, dtype=complex), 2))
        truth = rows(np.eye(p, dtype=complex), 2)
        off = support_scores(est, truth, include_diagonal=False)
        full = support_scores(est, truth, include_diagonal=True)
        assert off.recall == 1.0 and off.precision == 1.0  # empty-set conventions
        assert full.precision == full.recall == 1.0  # diagonal hits counted

    def test_zero_tol_applies_to_truth_only(self):
        truth_mat = np.eye(2, dtype=complex)
        truth_mat[0, 1] = truth_mat[1, 0] = 1e-15  # numerically zero
        est = make_estimate(2, rows(np.eye(2, dtype=complex), 2))
        scores = support_scores(est, rows(truth_mat, 2))
        assert scores.recall == 1.0

    def test_truth_of_another_shape_rejected(self):
        est = make_estimate(4, rows(np.eye(3, dtype=complex), 4))
        for other in (rows(np.eye(3, dtype=complex), 6), rows(np.eye(2, dtype=complex), 4)):
            with pytest.raises(ParameterError, match="truth of shape"):
                support_scores(est, other)


class TestManyFrequencies:
    """The public metrics over more rows than one block, at odd n and at
    even n (whose row n/2 occurs once in F_n), against one-frequency-at-a-time
    loops over all of F_n.  At p = 96 a block holds 7 rows rather than 16."""

    @staticmethod
    def _pair(rng, n, p):
        truth = np.array([hermitian(rng, p) for _ in range(n // 2 + 1)])
        truth[np.abs(truth) < 0.8] = 0.0
        mats = truth + 0.3 * np.array([hermitian(rng, p) for _ in range(n // 2 + 1)])
        mats[np.abs(mats) < 1.0] = 0.0
        return make_estimate(n, mats), truth

    @pytest.mark.parametrize("p", [6, 96])
    def test_rmise_equals_loop(self, rng, p):
        for n in (79, 80):
            est, truth = self._pair(rng, n, p)
            want = rmise_loop(est, truth)
            assert abs(rmise(est, truth) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p", [6, 96])
    @pytest.mark.parametrize("include_diagonal", [True, False])
    def test_support_scores_equal_loop(self, rng, p, include_diagonal):
        for n in (79, 80):
            est, truth = self._pair(rng, n, p)
            got = support_scores(est, truth, include_diagonal=include_diagonal)
            means = support_loop(est, truth, include_diagonal)
            assert np.allclose([got.precision, got.recall, got.f1], means, rtol=1e-12, atol=0)
            assert 0 < got.precision < 1 and 0 < got.recall < 1


def roc_by_cut_sweep(weighted_graph, truth_support):
    """Quadratic oracle: one full mask per unique cut, descending.  Returns
    the whole curve, with every point, and its points as exact fractions
    of the cut counts."""
    iu = np.triu_indices(weighted_graph.shape[0], k=1)
    scores = weighted_graph[iu]
    labels = np.asarray(truth_support, dtype=bool)[iu]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    exact = [(Fraction(0), Fraction(0))]
    for cut in np.unique(scores)[::-1]:
        pred = scores >= cut
        tpr = Fraction(int(np.sum(pred & labels)), n_pos) if n_pos else Fraction(1)
        fpr = Fraction(int(np.sum(pred & ~labels)), n_neg) if n_neg else Fraction(0)
        exact.append((fpr, tpr))
    exact.append((Fraction(1), Fraction(1)))
    exact = sorted(set(exact))
    points = as_floats(exact)
    return RocCurve(points, float(np.trapezoid(points[:, 1], points[:, 0]))), exact


def collinear(a, b, c):
    """b on the line through a and c, in exact arithmetic."""
    return (b[0] - a[0]) * (c[1] - b[1]) == (b[1] - a[1]) * (c[0] - b[0])


def corners(exact):
    """The points of a monotone curve that are not on the segment between
    the last point kept and the next one, walking from the first."""
    kept = list(exact[:2])
    for point in exact[2:]:
        if collinear(kept[-2], kept[-1], point):
            kept.pop()
        kept.append(point)
    return kept


def as_floats(exact):
    return np.array([(float(x), float(y)) for x, y in exact])


def ranked_graph(labels):
    """A weighted graph whose p(p-1)/2 edges, in descending score order,
    carry `labels` (True: a true edge); the scores are distinct."""
    p = next(p for p in range(2, 100) if p * (p - 1) // 2 == len(labels))
    iu = np.triu_indices(p, k=1)
    w, truth = np.zeros((p, p)), np.zeros((p, p), dtype=bool)
    w[iu] = np.arange(len(labels), 0, -1, dtype=float)
    truth[iu] = labels
    return w + w.T, truth | truth.T


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
        ref, exact = roc_by_cut_sweep(w, truth)
        assert curve.points.dtype == float
        assert np.array_equal(curve.points, as_floats(corners(exact)))
        # the AUC is the trapezoid sum over the whole curve, bit for bit
        assert curve.auc == ref.auc

    @pytest.mark.parametrize("p", [5, 12, 30])
    @pytest.mark.parametrize("tied", [False, True])
    def test_dropped_points_lie_between_kept_neighbours(self, rng, p, tied):
        w = rng.uniform(0, 1, (p, p))
        if tied:
            w = np.round(6 * w) / 6
        w = w + w.T
        truth = rng.uniform(0, 1, (p, p)) < 0.3
        truth = truth | truth.T
        points = roc_points(w, truth).points
        _, exact = roc_by_cut_sweep(w, truth)
        floats = as_floats(exact)
        kept = [k for k, row in enumerate(floats) if (points == row).all(axis=1).any()]
        assert len(kept) == len(points) and np.array_equal(floats[kept], points)
        assert kept[0] == 0 and kept[-1] == len(exact) - 1
        assert len(kept) < len(exact)
        for a, b in zip(kept, kept[1:]):
            for k in range(a + 1, b):
                assert collinear(exact[a], exact[k], exact[b])
                assert exact[a] < exact[k] < exact[b]
        # and no kept point lies on the segment of its kept neighbours
        for a, b, c in zip(kept, kept[1:], kept[2:]):
            assert not collinear(exact[a], exact[b], exact[c])

    def test_no_edges(self):
        curve = roc_points(np.ones((1, 1)), np.ones((1, 1), dtype=bool))
        assert np.array_equal(curve.points, [(0.0, 0.0), (1.0, 1.0)])
        assert curve.auc == 0.5

    def test_no_true_edges(self):
        # the first cut jumps to tpr 1, the rest run along it
        w, truth = ranked_graph([False] * 10)
        curve = roc_points(w, truth)
        assert np.array_equal(curve.points, [(0.0, 0.0), (0.1, 1.0), (1.0, 1.0)])
        assert curve.auc == roc_by_cut_sweep(w, truth)[0].auc

    def test_no_false_edges(self):
        w, truth = ranked_graph([True] * 10)
        curve = roc_points(w, truth)
        assert np.array_equal(curve.points, [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        assert curve.auc == 1.0

    def test_all_scores_tied(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        curve = roc_points(np.full((5, 5), 0.5), truth)
        assert np.array_equal(curve.points, [(0.0, 0.0), (1.0, 1.0)])
        assert curve.auc == 0.5

    def test_alternating_labels_keep_every_point(self):
        w, truth = ranked_graph([True, False] * 5)
        curve = roc_points(w, truth)
        ref, _ = roc_by_cut_sweep(w, truth)
        assert len(ref.points) == 11
        assert np.array_equal(curve.points, ref.points)
        assert curve.auc == ref.auc

    def test_long_runs_keep_their_ends(self):
        # 4 true, 6 false, 3 true, 2 false edges in descending score order
        w, truth = ranked_graph([True] * 4 + [False] * 6 + [True] * 3 + [False] * 2)
        curve = roc_points(w, truth)
        ref, _ = roc_by_cut_sweep(w, truth)
        assert len(ref.points) == 16
        want = [(0, 0), (0, 4 / 7), (6 / 8, 4 / 7), (6 / 8, 1), (1, 1)]
        assert np.array_equal(curve.points, want)
        assert curve.auc == ref.auc

    def test_dense_graph_keeps_only_its_corners(self, rng):
        # p = 192 as in the wide benchmark cells: 18,336 distinct scores,
        # true edges within 3 x 3 blocks and scored higher on average
        p = 192
        block = np.arange(p) // 3
        truth = block[:, None] == block[None, :]
        np.fill_diagonal(truth, False)
        w = rng.uniform(0, 1, (p, p)) + 0.5 * truth
        w = np.triu(w, 1) + np.triu(w, 1).T
        curve = roc_points(w, truth)
        ref, exact = roc_by_cut_sweep(w, truth)
        assert len(exact) == p * (p - 1) // 2 + 1
        assert len(curve.points) == len(corners(exact)) < len(exact) / 10
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
