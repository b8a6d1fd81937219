"""End-to-end quantitative and property gates.

Each test prints one pass/fail line (echoed again in the terminal summary)
so the whole battery can be audited at a glance.
"""

import json

import numpy as np
import pytest
from conftest import periodogram_by_autocov_sum, record_acceptance
from oracles import (
    check_order_bias_bounds,
    cos_sin_vectors,
    dft_matrix_norm_check,
    full_grid,
    periodogram,
)

from specthresh import (
    FourierGrid,
    ThresholdOperator,
    VarmaModel,
    autocov,
    l_n,
    omega_n,
    true_spectral_density,
    tuned_estimates,
)
from specthresh.bench import BenchmarkSpec, run_cell
from specthresh.cli import main as cli_main
from specthresh.model import TimeSeriesMatrix, simulate_ensemble, tail_cap


def random_var1(rng, p_max=8, radius_range=(0.3, 0.9)):
    p = int(rng.integers(2, p_max + 1))
    radius = rng.uniform(*radius_range)
    a = rng.standard_normal((p, p))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    return VarmaModel(dim=p, ar_coeffs=(a,))


class TestRmiseReproduction:
    def test_criterion_1_vma_p12_table_bands(self):
        spec = BenchmarkSpec(
            family="vma",
            p_list=(12,),
            n_list=(200,),
            methods=("smoothed", "hard", "lasso", "adaptive_lasso"),
            replicates=20,
            seed=42,
        )
        cell = run_cell(spec, 0, 12, 200)
        bands = {
            "smoothed": (29.95, 3 * 2.93),
            "lasso": (16.18, 3 * 1.33),
            "adaptive_lasso": (18.74, 3 * 1.32),
            "hard": (20.5, 3 * 1.45),
        }
        means = {m: cell.summaries[m].rmise for m in bands}
        ok = all(abs(means[m] - c) <= w for m, (c, w) in bands.items())
        detail = ", ".join(f"{m}={means[m]:.2f}" for m in bands)
        record_acceptance(1, "RMISE bands, VMA p=12 n=200, 20 reps", ok, detail)
        assert ok, detail


class TestRmiseOrdering:
    def test_criterion_2_vma_p48_factor(self):
        spec = BenchmarkSpec(
            family="vma",
            p_list=(48,),
            n_list=(200,),
            methods=("smoothed", "shrinkage", "hard", "lasso", "adaptive_lasso"),
            replicates=10,
            seed=43,
        )
        cell = run_cell(spec, 0, 48, 200)
        smoothed = cell.summaries["smoothed"].rmise
        factors = {
            m: smoothed / cell.summaries[m].rmise
            for m in ("shrinkage", "hard", "lasso", "adaptive_lasso")
        }
        ok = all(f > 2.5 for f in factors.values())
        detail = ", ".join(f"{m}x{f:.1f}" for m, f in factors.items())
        record_acceptance(2, "RMISE factor > 2.5 over smoothed, VMA p=48 n=200", ok, detail)
        assert ok, detail


class TestSupportRecovery:
    def test_criterion_3_vma_p12_n400_lasso(self):
        spec = BenchmarkSpec(
            family="vma",
            p_list=(12,),
            n_list=(400,),
            methods=("lasso",),
            replicates=20,
            seed=44,
        )
        cell = run_cell(spec, 0, 12, 400)
        precision = 100.0 * cell.summaries["lasso"].precision
        recall = 100.0 * cell.summaries["lasso"].recall
        ok = abs(precision - 70.37) <= 3 * 3.39 and abs(recall - 98.16) <= 3 * 0.68
        detail = f"precision={precision:.2f}, recall={recall:.2f}"
        record_acceptance(3, "support recovery, VMA p=12 n=400 lasso", ok, detail)
        assert ok, detail


class TestOrthogonalitySuite:
    def test_criterion_4_trig_gram_table_and_norm(self):
        worst_gram = 0.0
        worst_norm = 0.0
        for n in range(2, 65):
            grid = FourierGrid(n)
            idx = [int(j) for j in grid.indices]
            cs = np.array([cos_sin_vectors(grid, j)[0] for j in idx])
            sn = np.array([cos_sin_vectors(grid, j)[1] for j in idx])
            same = np.eye(n)
            mirrored = np.array(
                [[1.0 if (j + k) % n == 0 else 0.0 for k in idx] for j in idx]
            )
            worst_gram = max(
                worst_gram,
                float(np.max(np.abs(cs @ cs.T - 0.5 * (same + mirrored)))),
                float(np.max(np.abs(sn @ sn.T - 0.5 * (same - mirrored)))),
                float(np.max(np.abs(cs @ sn.T))),
            )
            worst_norm = max(worst_norm, abs(dft_matrix_norm_check(grid) - 1.0))
        ok = worst_gram < 1e-12 and worst_norm < 1e-10
        detail = f"max gram dev={worst_gram:.1e}, max norm dev={worst_norm:.1e}"
        record_acceptance(4, "trig orthogonality table, n=2..64", ok, detail)
        assert ok, detail


class TestPeriodogramOracle:
    def test_criterion_5_dual_formula(self):
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(8, 65))
            p = int(rng.integers(1, 7))
            data = rng.standard_normal((n, p))
            data -= data.mean(axis=0)
            x = TimeSeriesMatrix(data)
            grid = FourierGrid(n)
            j = int(rng.choice(grid.indices))
            oracle = periodogram_by_autocov_sum(data, grid.frequency(j))
            worst = max(worst, float(np.max(np.abs(periodogram(x, grid, j) - oracle))))
        ok = worst < 1e-10
        record_acceptance(5, "periodogram dual-formula oracle, 100 series", ok, f"max dev={worst:.1e}")
        assert ok


class TestBiasBound:
    def test_criterion_6_smoothing_bias_below_bound(self):
        rng = np.random.default_rng(606)
        n, m, j, reps = 128, 8, 5, 10_000
        grid = FourierGrid(n)
        t = np.arange(n)
        window = np.arange(j - m, j + m + 1)
        phase = np.exp(-2j * np.pi * np.outer(t, window) / n) / np.sqrt(n)
        failures = []
        margins = []
        for model_idx in range(50):
            model = random_var1(rng)
            truth = true_spectral_density(model, grid.frequency(j))
            cap = max(tail_cap(model), n + 1)
            acov = autocov(model, cap)
            bound = (m + 1 / (2 * np.pi)) / n * omega_n(acov, n) + l_n(acov, n) / (2 * np.pi)

            x = simulate_ensemble(model, n, reps, burn_in=150, seed=rng.integers(2**63))
            # the matmul form of einsum("rtp,tk->rkp", x, phase): same values, far faster
            d = (x.transpose(0, 2, 1) @ phase).transpose(0, 2, 1)
            f_hat = np.einsum("rkp,rkq->rpq", d, d.conj()) / (2 * np.pi * (2 * m + 1))
            mean = f_hat.mean(axis=0)
            se = np.sqrt(np.var(f_hat, axis=0).real / reps)
            dev = np.abs(mean - truth)
            margins.append(float(np.max(dev) / bound))
            if not np.all(dev <= bound + 3 * se):
                failures.append(model_idx)
        ok = not failures
        detail = f"max dev/bound={max(margins):.3f}, failing models={failures}"
        record_acceptance(6, "smoothing bias below closed-form bound, 50 VAR(1)", ok, detail)
        assert ok, detail


class TestOperatorConditions:
    def test_criterion_7_generalized_thresholding(self):
        rng = np.random.default_rng(707)
        count = 10_000
        z = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * 10 ** rng.uniform(
            -4, 3, count
        )
        lam = np.abs(rng.standard_normal(count)) * 10 ** rng.uniform(-4, 3, count)
        bad = 0
        for kind in ("hard", "lasso", "adaptive_lasso"):
            op = ThresholdOperator(kind)
            for zi, li in zip(z, lam):
                s = op(zi, float(li))
                if abs(s) > abs(zi) + 1e-12:
                    bad += 1
                elif abs(zi) <= li and s != 0.0:
                    bad += 1
                elif abs(s - zi) > li + 1e-12:
                    bad += 1
        ok = bad == 0
        record_acceptance(7, "operator conditions (1)-(3), 10^4 pairs x 3 kinds", ok, f"violations={bad}")
        assert ok


class TestPsdHermitianInvariants:
    def test_criterion_8_averaged_periodogram(self):
        rng = np.random.default_rng(808)
        worst_herm = 0.0
        worst_eig = 0.0
        for _ in range(25):
            n = int(rng.integers(16, 129))
            p = int(rng.integers(1, 7))
            data = rng.standard_normal((n, p)) * 10 ** rng.uniform(-2, 2)
            if rng.integers(2):
                data = np.cumsum(data, axis=0) / np.sqrt(n)  # strongly dependent rows
            x = TimeSeriesMatrix(data)
            m = int(rng.integers(0, n // 2))
            est, = tuned_estimates(x, m, ["smoothed"])
            for mat in full_grid(est.half, est.n).values():
                scale = max(1.0, float(np.max(np.abs(mat))))
                worst_herm = max(worst_herm, float(np.max(np.abs(mat - mat.conj().T))) / scale)
                tr = float(np.trace(mat).real)
                min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
                if tr > 0:
                    worst_eig = max(worst_eig, -min_eig / tr)
        ok = worst_herm < 1e-10 and worst_eig < 1e-8
        detail = f"hermitian dev={worst_herm:.1e}, eig/trace={worst_eig:.1e}"
        record_acceptance(8, "averaged periodogram Hermitian + PSD", ok, detail)
        assert ok, detail


class TestOrderBiasNumericCheck:
    def test_criterion_9_condition3_bounds(self):
        rng = np.random.default_rng(909)
        checked = 0
        failures = []
        while checked < 50:
            model = random_var1(rng, radius_range=(0.2, 0.85))
            cond = np.linalg.cond(np.linalg.eig(model.companion_matrix())[1])
            if not np.isfinite(cond) or cond > 1e6:
                continue
            horizon = int(rng.integers(16, 49))
            report = check_order_bias_bounds(model, horizon)
            if report.companion_skipped or not report.holds:
                failures.append(checked)
            checked += 1
        ok = not failures
        record_acceptance(9, "dependence sums below condition-3 bounds, 50 VAR(1)", ok,
                          f"failures={failures}")
        assert ok


class TestBenchDeterminism:
    def test_criterion_10_byte_identical_reruns(self, tmp_path):
        spec = {
            "family": "vma",
            "p": [6],
            "n": [64],
            "methods": ["smoothed", "lasso"],
            "replicates": 2,
            "seed": 11,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli_main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
            outs.append(out)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        ok = files1 == files2 and all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files1
        )
        record_acceptance(10, "bench reruns byte-identical", ok, f"files={files1}")
        assert ok
