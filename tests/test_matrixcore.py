import numpy as np
import pytest

from kernherit import matrixcore
from kernherit.exceptions import NumericalError
from kernherit.matrixcore import SymMatrix, eigh, solve_spd_shifted, symmetrize

from helpers import charpoly_roots, cramer_solve, random_psd, random_symmetric


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not exactly symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(np.zeros((2, 3)))

    def test_symmetrize_produces_exact_symmetry(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        m = symmetrize(a)
        assert np.array_equal(m.data, m.data.T)

    def test_data_is_readonly(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0


class TestEigh:
    def test_diagonal_matrix(self):
        dec = eigh(SymMatrix(np.diag([3.0, 1.0])))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(dec.eigenvectors, np.eye(2))

    def test_classic_2x2(self):
        dec = eigh(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(dec.eigenvectors[:, 0], [s, s])
        assert np.allclose(dec.eigenvectors[:, 1], [s, -s])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_characteristic_polynomial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(4, rng, scale=2.0)
        dec = eigh(SymMatrix(a))
        assert np.max(np.abs(dec.eigenvalues - charpoly_roots(a))) < 1e-8

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        a = random_symmetric(n, rng)
        dec = eigh(SymMatrix(a))
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(12, rng)
        dec = eigh(SymMatrix(a))
        assert abs(dec.eigenvalues.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_deterministic_orientation(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(8, rng)
        d1 = eigh(SymMatrix(a))
        d2 = eigh(SymMatrix(a.copy()))
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        lead = np.argmax(np.abs(d1.eigenvectors), axis=0)
        assert np.all(d1.eigenvectors[lead, np.arange(8)] > 0)


class TestSolveSpdShifted:
    def test_pure_shift(self):
        x = solve_spd_shifted(SymMatrix(np.zeros((2, 2))), 2.0, np.array([4.0, 6.0]))
        assert np.allclose(x, [2.0, 3.0], atol=1e-14)

    def test_identity_plus_shift(self):
        x = solve_spd_shifted(SymMatrix(np.eye(2)), 1.0, np.array([2.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_matches_cramer_oracle(self):
        rng = np.random.default_rng(3)
        a = random_psd(5, rng)
        b = rng.normal(size=5)
        x = solve_spd_shifted(SymMatrix(a), 0.7, b)
        expected = cramer_solve(a + 0.7 * np.eye(5), b)
        assert np.max(np.abs(x - expected)) < 1e-9

    def test_residual_tolerance(self):
        rng = np.random.default_rng(9)
        a = random_psd(20, rng)
        b = rng.normal(size=20)
        x = solve_spd_shifted(SymMatrix(a), 0.3, b)
        res = np.linalg.norm((a + 0.3 * np.eye(20)) @ x - b)
        assert res <= 1e-10 * np.linalg.norm(b)

    def test_agrees_with_spectral_inverse(self):
        rng = np.random.default_rng(21)
        a = random_psd(10, rng)
        b = rng.normal(size=10)
        s = 0.9
        x = solve_spd_shifted(SymMatrix(a), s, b)
        dec = eigh(SymMatrix(a))
        y = dec.eigenvectors @ ((dec.eigenvectors.T @ b) / (dec.eigenvalues + s))
        assert np.linalg.norm(x - y) <= 1e-8 * max(1.0, np.linalg.norm(y))

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError, match="shift"):
            solve_spd_shifted(SymMatrix(np.eye(2)), 0.0, np.ones(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_spd_shifted(SymMatrix(np.eye(2)), 1.0, np.ones(3))

    def test_rejects_clearly_indefinite_matrix(self):
        a = SymMatrix(np.diag([1.0, -5.0]))
        with pytest.raises(NumericalError, match="eigenvalue"):
            solve_spd_shifted(a, 1.0, np.ones(2))


def test_psd_tolerance_constant_exported():
    assert matrixcore.PSD_RTOL == 1e-8
