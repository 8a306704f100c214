"""Dense symmetric linear algebra primitives.

Everything downstream (kernel matrices, ridge solves, spectral
diagnostics) is built on a symmetric eigendecomposition with
deterministic eigenvector orientation and a definiteness check of its
spectrum. All functions are pure and take plain arrays; the checks
that make an array a kernel (square, finite, exactly symmetric) live
with the one kernel type, ``kernels.KernelMatrix``. Factorizations are
returned read-only so they can be shared freely across threads.

Checks: :func:`eigh` rejects a non-converged or non-finite result, and
:func:`require_psd` a spectrum no kernel can have. The O(n^3)
reconstruction and orthonormality check, :func:`verify_eigh`, is left to
the callers that use the eigenvectors as a basis (spectral diagnostics
and :func:`solve_spd_shifted`); a ridge fit checks its own solve
residual instead (see ``krr``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

# Eigenvalues more negative than -PSD_RTOL * l_1 mean the matrix is not a
# numerically plausible PSD kernel and indicate corrupted input.
PSD_RTOL = 1e-8

_RECON_RTOL = 1e-8
_ORTHO_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of an almost-symmetric array, e.g. a BLAS product.

    Exactly (bitwise) symmetric, because floating-point addition commutes.
    """
    a = np.asarray(a, dtype=np.float64)
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = V diag(l) V^T.

    ``eigenvalues`` are sorted non-increasing (l_1 >= ... >= l_n) and the
    columns of ``eigenvectors`` are the matching orthonormal eigenvectors,
    each oriented so that its largest-magnitude entry is positive (first
    such entry on ties), which makes the factorization deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors)))

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


def eigh(a: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix, descending, deterministically.

    Raises NumericalError if the underlying solver does not converge or
    returns non-finite values. The factorization itself is not
    re-multiplied here; see :func:`verify_eigh`.
    """
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        off = float(np.max(np.abs(A - np.diag(np.diag(A))))) if n > 1 else 0.0
        raise NumericalError(
            f"symmetric eigensolver did not converge for order {n} matrix "
            f"(max off-diagonal magnitude {off:.3e})"
        ) from exc
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise NumericalError(
            f"symmetric eigensolver returned non-finite values for order {n} matrix"
        )

    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # Deterministic orientation: largest-magnitude entry of each vector > 0.
    lead = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[lead, np.arange(n)])
    signs[signs == 0] = 1.0
    v *= signs
    return EigenDecomposition(w, v)


def verify_eigh(a: np.ndarray, dec: EigenDecomposition) -> None:
    """Raise NumericalError unless ``dec`` reconstructs ``a`` orthonormally.

    Checks ||V diag(l) V^T - A||_F <= 1e-8 max(1, ||A||_F) and
    ||V^T V - I||_F <= 1e-10, at O(n^3).
    """
    A = np.asarray(a, dtype=np.float64)
    w, v = dec.eigenvalues, dec.eigenvectors
    n = dec.order
    a_norm = float(np.linalg.norm(A))
    recon = float(np.linalg.norm((v * w) @ v.T - A))
    ortho = float(np.linalg.norm(v.T @ v - np.eye(n)))
    if recon > _RECON_RTOL * max(1.0, a_norm) or ortho > _ORTHO_TOL:
        raise NumericalError(
            f"eigendecomposition of order {n} matrix failed verification "
            f"(reconstruction residual {recon:.3e}, orthogonality residual {ortho:.3e})"
        )


def require_psd(dec: EigenDecomposition) -> None:
    """Raise NumericalError unless the spectrum is numerically PSD.

    A PSD kernel has min eigenvalue >= -PSD_RTOL * max(l_1, 0); anything
    worse cannot come from a kernel and indicates corrupted input. The
    extremes are searched for, not read off the ends of the spectrum.
    """
    w = dec.eigenvalues
    l1, lmin = float(w.max()), float(w.min())
    tol = -PSD_RTOL * max(l1, 0.0)
    if lmin < tol:
        raise NumericalError(
            f"order {w.size} matrix is not positive semidefinite: "
            f"min eigenvalue {lmin:.3e} vs PSD tolerance {tol:.3e}"
        )


def solve_spd_shifted(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve (A + shift*I) x = b spectrally for PSD A and shift > 0.

    A must be numerically PSD (see :func:`require_psd`); anything worse
    raises NumericalError since PSD kernels cannot produce it, as does a
    factorization that fails :func:`verify_eigh`.
    """
    A = np.asarray(a, dtype=np.float64)
    if shift <= 0:
        raise ValueError(f"shift must be positive, got {shift}")
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix order {A.shape[0]} vs vector length {b.shape[0]}"
        )
    dec = eigh(A)
    verify_eigh(A, dec)
    require_psd(dec)
    denom = (dec.eigenvalues + shift).reshape((-1,) + (1,) * (b.ndim - 1))
    return dec.eigenvectors @ ((dec.eigenvectors.T @ b) / denom)

