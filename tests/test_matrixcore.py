import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernherit import krr, matrixcore
from kernherit.exceptions import NumericalError
from kernherit.kernels import KernelMatrix
from kernherit.matrixcore import eigh, solve_spd_shifted

from helpers import (
    charpoly_roots,
    cramer_solve,
    random_psd,
    random_symmetric,
    reference_eigh,
    reference_eigh_residuals,
    symmetrize,
)


class TestEigh:
    def test_diagonal_matrix(self):
        dec = eigh(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(dec.eigenvectors, np.eye(2))

    def test_classic_2x2(self):
        dec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        for v, u in zip(dec.eigenvectors.T, ([s, s], [s, -s])):  # up to sign
            assert np.allclose(np.outer(v, v), np.outer(u, u))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_characteristic_polynomial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(4, rng, scale=2.0)
        dec = eigh(a)
        assert np.max(np.abs(dec.eigenvalues - charpoly_roots(a))) < 1e-8

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        a = random_symmetric(n, rng)
        dec = eigh(a)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(12, rng)
        dec = eigh(a)
        assert abs(dec.eigenvalues.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_solver_failure_is_a_numerical_error(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, -3.0], [0.0, -3.0, 1.0]])
        failing = mock.Mock(side_effect=np.linalg.LinAlgError("no convergence"))
        message = r"did not converge for order 3 matrix \(max off-diagonal magnitude 3\.000e\+00\)"
        with mock.patch.object(np.linalg, "eigh", failing):
            with pytest.raises(NumericalError, match=message):
                eigh(a)

    def test_overflowing_norm_refused(self):
        """Finite entries whose ||A||_F overflows would make the tolerance infinite."""
        x = np.random.default_rng(0).standard_normal((6, 3))
        with pytest.raises(ValueError, match="^matrix Frobenius norm overflows$"):
            eigh((x @ x.T) * 1e160)

    def test_nan_residual_fails_verification(self, monkeypatch):
        monkeypatch.setattr(matrixcore, "_residuals", lambda a, dec: (math.nan, 0.0))
        with pytest.raises(NumericalError, match="reconstruction residual nan"):
            eigh(np.eye(3))


@st.composite
def scaled_matrices(draw):
    """Finite square matrices at one drawn scale, some past where ||a||_F overflows."""
    n = draw(st.integers(1, 6))
    base = draw(arrays(np.float64, (n, n), elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    return base * 10.0 ** draw(st.integers(120, 160))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scaled_matrices())
def test_frobenius_norm_is_admitted_exactly_when_finite(a):
    """The norm matches np.linalg.norm to a few ulps, and is refused exactly when
    the sum of squares passes the largest double (up to its rounding)."""
    squares = sum(Fraction(float(v)) ** 2 for v in a.flat)
    largest = Fraction(sys.float_info.max)
    if squares < largest * (1 - Fraction(1, 10**12)):
        ref = float(np.linalg.norm(a))
        assert abs(matrixcore.frobenius_norm(a) - ref) <= 8 * math.ulp(ref)
    elif squares > largest * (1 + Fraction(1, 10**12)):
        with pytest.raises(ValueError, match="^matrix Frobenius norm overflows$"):
            matrixcore.frobenius_norm(a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frobenius_norm_names_nonfinite_entries(bad):
    a = np.eye(3)
    a[2, 1] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        matrixcore.frobenius_norm(a)


def _eigh_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2024)
    cases = {f"random_{n}": random_symmetric(n, rng) for n in (1, 2, 7, 40, 150)}
    cases["psd_rank_3"] = random_psd(20, rng, rank=3)
    q, _ = np.linalg.qr(rng.normal(size=(24, 24)))
    cases["repeated_eigenvalues"] = symmetrize((q * np.repeat([3.0, 1.0, 0.0], 8)) @ q.T)
    cases["repeated_blocks"] = np.kron(np.eye(3), np.ones((2, 2)))
    cases["swap"] = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases["identity"] = np.eye(5)
    cases["zero"] = np.zeros((4, 4))
    zero_cols = random_psd(12, rng)
    zero_cols[:, [2, 7]] = 0.0
    zero_cols[[2, 7], :] = 0.0
    cases["zero_columns"] = zero_cols
    return cases


@pytest.mark.parametrize("name,a", sorted(_eigh_cases().items()))
def test_eigh_and_residuals_equal_reference_bitwise(name, a):
    """The eigenpairs are numpy's, reversed, and the in-place residuals
    equal freshly allocated differences."""
    dec = eigh(a)
    w, v = reference_eigh(a)
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(dec.eigenvectors, v)
    assert dec.eigenvectors.flags.c_contiguous
    assert matrixcore._residuals(a, dec) == reference_eigh_residuals(a, w, v)


class TestSolveSpdShifted:
    def test_pure_shift(self):
        x = solve_spd_shifted(np.zeros((2, 2)), 2.0, np.array([4.0, 6.0]))
        assert np.allclose(x, [2.0, 3.0], atol=1e-14)

    def test_identity_plus_shift(self):
        x = solve_spd_shifted(np.eye(2), 1.0, np.array([2.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_matches_cramer_oracle(self):
        rng = np.random.default_rng(3)
        a = random_psd(5, rng)
        b = rng.normal(size=5)
        x = solve_spd_shifted(a, 0.7, b)
        expected = cramer_solve(a + 0.7 * np.eye(5), b)
        assert np.max(np.abs(x - expected)) < 1e-9

    def test_residual_tolerance(self):
        rng = np.random.default_rng(9)
        a = random_psd(20, rng)
        b = rng.normal(size=20)
        x = solve_spd_shifted(a, 0.3, b)
        res = np.linalg.norm((a + 0.3 * np.eye(20)) @ x - b)
        assert res <= 1e-10 * np.linalg.norm(b)

    def test_agrees_with_spectral_inverse(self):
        rng = np.random.default_rng(21)
        a = random_psd(10, rng)
        b = rng.normal(size=10)
        s = 0.9
        x = solve_spd_shifted(a, s, b)
        dec = eigh(a)
        y = dec.eigenvectors @ ((dec.eigenvectors.T @ b) / (dec.eigenvalues + s))
        assert np.linalg.norm(x - y) <= 1e-8 * max(1.0, np.linalg.norm(y))

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError, match="shift"):
            solve_spd_shifted(np.eye(2), 0.0, np.ones(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_spd_shifted(np.eye(2), 1.0, np.ones(3))

    def test_rejects_clearly_indefinite_matrix(self):
        a = np.diag([1.0, -5.0])
        with pytest.raises(NumericalError, match="eigenvalue"):
            solve_spd_shifted(a, 1.0, np.ones(2))


def test_psd_tolerance_constant_exported():
    assert matrixcore.PSD_RTOL == 1e-8


def sweep_tridiagonal(diag, off, grid=(0.5,)):
    """The ridge sweep on K = T, the symmetric tridiagonal with ``diag`` and
    ``off``, started at y = e_1.

    Lanczos then rebuilds T exactly, up to its first zero coupling, so the
    sweep's PSD check (``krr._sweep``) sees the pivots of T + sigma I with
    sigma = PSD_RTOL max(max diag, 0).
    """
    y = np.zeros(len(diag))
    y[0] = 1.0
    return krr._sweep(KernelMatrix(_tridiagonal(diag, off)), y, grid)


class TestRequirePsdTridiagonal:
    """The ridge sweep's PSD check of its tridiagonal, against PSD_RTOL."""

    def test_accepts_psd_and_semidefinite(self):
        sweep_tridiagonal([2.0, 2.0, 2.0], [1.0, 1.0])
        sweep_tridiagonal([1.0, 1.0], [1.0])  # eigenvalues 0 and 2
        sweep_tridiagonal([0.0, 1.0], [0.0])  # decoupled zero block

    def test_rejects_a_negative_pivot(self):
        # [[1, 0.5], [0.5, -0.5]] has determinant -0.75.
        with pytest.raises(NumericalError, match="not positive semidefinite.*eigenvalue"):
            sweep_tridiagonal([1.0, -0.5], [0.5])

    def test_zero_pivot_with_coupling_is_indefinite(self):
        # [[0, 1], [1, 0]] has eigenvalues -1 and 1, and sigma is 0.
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            sweep_tridiagonal([0.0, 0.0], [1.0])

    def test_nan_is_rejected(self, monkeypatch):
        real = krr._orthogonalize

        def poisoned(basis, w):
            h = real(basis, w)
            if len(basis) == 2:
                h[1] = np.nan  # the diagonal entry of the second Lanczos step
            return h

        monkeypatch.setattr(krr, "_orthogonalize", poisoned)
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            sweep_tridiagonal([1.0, 1.0], [0.5])

    def test_tolerance_scales_with_nonnegative_reference(self):
        # -1e-9 is within PSD_RTOL * max K_ii = 1e-8 of zero, but not of zero itself.
        sweep_tridiagonal([-1e-9, 1.0], [0.0])
        for top in (0.0, -5.0):
            with pytest.raises(NumericalError, match="eigenvalue"):
                sweep_tridiagonal([-1e-9, top], [0.0])


@st.composite
def boundary_tridiagonals(draw):
    """A tridiagonal T of order k shifted so that a leading block T_k*
    has min eigenvalue -c PSD_RTOL lambda_1(T), and a grid of 1 to 3 shifts.

    c < 0 gives PSD blocks, c > 1 indefinite ones just past the tolerance
    that ``require_psd`` applies to K = T. |c - 1| >= 1e-3 keeps rounding
    from deciding a tie between the checks. Shifts from 1e-6 to 1 times
    the scale of T let the sweep stop after anywhere from 1 to k steps.
    """
    k = draw(st.integers(1, 30))
    k_star = draw(st.integers(1, k))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    diag = scale * draw(arrays(np.float64, k, elements=st.floats(-1.0, 1.0)))
    off = scale * draw(arrays(np.float64, k - 1, elements=st.floats(1e-2, 1.0)))
    c = draw(st.one_of(st.floats(-2.0, 0.999), st.floats(1.001, 3.0)))
    grid = [scale * 10.0**e for e in draw(st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=3))]
    theta = np.linalg.eigvalsh(_tridiagonal(diag, off)[:k_star, :k_star])[0]
    top = np.linalg.eigvalsh(_tridiagonal(diag, off))[-1]
    # After the shift s: theta + s = -eps (top + s).
    eps = c * matrixcore.PSD_RTOL
    diag = diag - (theta + eps * top) / (1.0 + eps)
    return diag, off, grid


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(boundary_tridiagonals())
def test_tridiagonal_inertia_check_is_at_least_as_strict_as_ritz_values(instance):
    """Whenever the tolerance of require_psd on K = T, -PSD_RTOL lambda_1(T),
    is above a Ritz value of a leading block T_k that the sweep built, the
    sweep's inertia check rejects; and it rejects only indefinite T."""
    diag, off, grid = instance
    t = _tridiagonal(diag, off)
    tol = -matrixcore.PSD_RTOL * max(np.linalg.eigvalsh(t)[-1], 0.0)
    steps = []
    real = krr._orthogonalize

    def counting(basis, w):
        steps.append(1)
        return real(basis, w)

    with mock.patch.object(krr, "_orthogonalize", counting):
        try:
            sweep_tridiagonal(diag, off, grid)
        except NumericalError:
            inertia_rejects = True
        else:
            inertia_rejects = False
    ritz_rejects = any(
        np.linalg.eigvalsh(t[:k, :k])[0] < tol for k in range(1, len(steps) + 1)
    )
    if ritz_rejects:
        assert inertia_rejects
    if inertia_rejects:
        assert np.linalg.eigvalsh(t)[0] < 1e-12 * np.abs(t).max()
