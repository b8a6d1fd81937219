import numpy as np
import pytest
from conftest import periodogram_by_autocov_sum
from oracles import cos_sin_vectors, dft_matrix_norm_check, periodogram, periodogram_all, wrap

from specthresh import FourierGrid
from specthresh.dft import _dft_table
from specthresh.errors import ParameterError
from specthresh.model import TimeSeriesMatrix


def expected_gram(n: int, j: int, k: int):
    """Closed-form C_j^T C_k, S_j^T S_k from geometric-sum identities."""
    same = 1.0 if j == k else 0.0
    mirrored = 1.0 if (j + k) % n == 0 else 0.0
    return 0.5 * (same + mirrored), 0.5 * (same - mirrored)


class TestFourierGrid:
    def test_index_set(self):
        assert list(FourierGrid(5).indices) == [-2, -1, 0, 1, 2]
        assert list(FourierGrid(6).indices) == [-2, -1, 0, 1, 2, 3]

    def test_frequency_antisymmetry(self):
        grid = FourierGrid(9)
        for j in range(1, 5):
            assert grid.frequency(-j) == -grid.frequency(j)

    def test_wrap_is_mod_n(self):
        grid = FourierGrid(8)
        for j in grid.indices:
            assert wrap(grid, int(j) + 8) == int(j)
            assert wrap(grid, int(j) - 8) == int(j)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            FourierGrid(1)


class TestCosSinVectors:
    def test_zero_frequency(self):
        c, s = cos_sin_vectors(FourierGrid(10), 0)
        assert np.allclose(c, 1 / np.sqrt(10))
        assert np.allclose(s, 0.0)

    def test_n8_j2_self_product(self):
        c, _ = cos_sin_vectors(FourierGrid(8), 2)
        assert abs(c @ c - 0.5) < 1e-12

    def test_cos_sin_always_orthogonal(self):
        grid = FourierGrid(12)
        for j in grid.indices:
            for k in grid.indices:
                c, _ = cos_sin_vectors(grid, int(j))
                _, s = cos_sin_vectors(grid, int(k))
                assert abs(c @ s) < 1e-12

    def test_gram_table_closed_form(self):
        for n in (2, 5, 8, 16):
            grid = FourierGrid(n)
            for j in grid.indices:
                cj, sj = cos_sin_vectors(grid, int(j))
                for k in grid.indices:
                    ck, sk = cos_sin_vectors(grid, int(k))
                    cc, ss = expected_gram(n, int(j), int(k))
                    assert abs(cj @ ck - cc) < 1e-12
                    assert abs(sj @ sk - ss) < 1e-12

    def test_out_of_range_index(self):
        with pytest.raises(ParameterError):
            cos_sin_vectors(FourierGrid(8), 5)


class TestPeriodogram:
    def test_zero_data(self):
        x = TimeSeriesMatrix(np.zeros((8, 2)))
        assert np.allclose(periodogram(x, FourierGrid(8), 3), 0.0)

    def test_matches_autocov_sum_oracle(self, rng):
        data = rng.standard_normal((16, 3))
        data -= data.mean(axis=0)
        x = TimeSeriesMatrix(data)
        grid = FourierGrid(16)
        for j in grid.indices:
            oracle = periodogram_by_autocov_sum(data, grid.frequency(int(j)))
            assert np.max(np.abs(periodogram(x, grid, int(j)) - oracle)) < 1e-10

    def test_conjugate_symmetry(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((15, 2)))
        grid = FourierGrid(15)
        for j in (1, 3, 7):
            assert np.allclose(
                periodogram(x, grid, -j), periodogram(x, grid, j).conj(), atol=1e-12
            )

    def test_periodic_in_j(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((12, 2)))
        grid = FourierGrid(12)
        for j in (-3, 0, 4):
            assert np.allclose(
                periodogram(x, grid, j), periodogram(x, grid, j + 12), atol=1e-12
            )

    def test_rank_at_most_one(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((20, 4)))
        eigs = np.linalg.eigvalsh(periodogram(x, FourierGrid(20), 3))
        assert eigs[-2] < 1e-10 * max(1.0, eigs[-1])

    def test_parseval_energy_identity(self, rng):
        data = rng.standard_normal((17, 3))
        data -= data.mean(axis=0)
        x = TimeSeriesMatrix(data)
        total = sum(
            float(np.trace(periodogram(x, FourierGrid(17), int(j))).real)
            for j in FourierGrid(17).indices
        )
        energy = float(np.sum(data**2))
        assert abs(total - energy) < 1e-8 * energy

    def test_grid_length_mismatch(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((10, 2)))
        with pytest.raises(ParameterError):
            periodogram(x, FourierGrid(12), 0)


class TestPeriodogramAll:
    def test_agrees_with_single_frequency(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((11, 3)))
        grid = FourierGrid(11)
        stack = periodogram_all(x)
        assert stack.flags["C_CONTIGUOUS"]  # one frequency's matrix is one block
        for pos, j in enumerate(grid.indices):
            assert np.allclose(stack[pos], periodogram(x, grid, int(j)), atol=1e-12)

    def test_centering_flag(self, rng):
        data = rng.standard_normal((10, 2))
        shifted = periodogram_all(TimeSeriesMatrix(data + 5.0))
        assert np.allclose(shifted, periodogram_all(TimeSeriesMatrix(data)), rtol=0, atol=1e-12)


class TestNormCheck:
    @pytest.mark.parametrize("n", [2, 8, 9])
    def test_unit_norm(self, n):
        assert abs(dft_matrix_norm_check(FourierGrid(n)) - 1.0) < 1e-10

    def test_size_limit(self):
        with pytest.raises(ParameterError):
            dft_matrix_norm_check(FourierGrid(1024))


def dense_table(grid: FourierGrid, cols: slice = slice(None)) -> np.ndarray:
    """Columns `cols` of the DFT table with every exponential evaluated."""
    t = np.arange(grid.n)
    return np.exp(-2j * np.pi * np.outer(t, grid.indices[cols]) / grid.n) / np.sqrt(grid.n)


class TestDftTable:
    """`dft._dft_table` mirrors the columns j < 0 from the columns j > 0; the
    table must equal the dense one bit for bit, zero signs included."""

    def test_mirrored_equals_dense(self):
        for n in [*range(2, 301), 400, 401, 1000]:
            table = _dft_table(FourierGrid(n))
            want = dense_table(FourierGrid(n))
            assert (table.view(np.int64) == want.view(np.int64)).all(), \
                f"n={n}, numpy {np.__version__}"

    def test_mirrored_equals_dense_long_series(self):
        # compared a column block at a time, so the dense table is never whole
        grid = FourierGrid(4000)
        table = _dft_table(grid)
        for lo in range(0, grid.n, 500):
            cols = slice(lo, lo + 500)
            want = dense_table(grid, cols)
            assert (table[:, cols].view(np.int64) == want.view(np.int64)).all(), \
                f"columns {lo}.., numpy {np.__version__}"
