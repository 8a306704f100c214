"""Dense symmetric linear algebra primitives.

Spectral diagnostics are built on a symmetric eigendecomposition and a
definiteness check of its spectrum. All functions are pure and take
plain arrays. :func:`frobenius_norm` admits every matrix the package
checks (the Gram, each kernel, :func:`eigh`'s input) by a finite norm,
which every ||A||_F tolerance reads. Factorizations are returned
read-only, so a cached one cannot be changed by its readers.

Checks: :func:`eigh` returns only a factorization it has checked:
converged, finite, and passing an O(n^3) reconstruction and
orthonormality check. :func:`require_psd` rejects a spectrum no kernel
can have; the users of a kernel's eigenbasis (spectral diagnostics and
:func:`solve_spd_shifted`) call :func:`eigh` and then :func:`require_psd`.
A ridge fit checks its own solve residual instead (see ``krr``). The
ridge sweep checks definiteness without an eigendecomposition, by the
inertia of its projected tridiagonal shifted by PSD_RTOL times the
kernel's largest diagonal entry (see ``krr._sweep``), which is at least
as strict as :func:`require_psd` on the kernel for the Ritz values it
computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

# Eigenvalues more negative than -PSD_RTOL * l_1 mean the matrix is not a
# numerically plausible PSD kernel and indicate corrupted input.
PSD_RTOL = 1e-8

_RECON_RTOL = 1e-8
_ORTHO_TOL = 1e-10


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F of a 2-D array (einsum: no BLAS thread start-up); ValueError unless finite."""
    norm = math.sqrt(float(np.einsum("ij,ij->", a, a)))
    if not math.isfinite(norm):
        why = "Frobenius norm overflows" if np.isfinite(a).all() else "entries must be finite"
        raise ValueError(f"matrix {why}")
    return norm


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = V diag(l) V^T.

    ``eigenvalues`` are sorted non-increasing (l_1 >= ... >= l_n) and the
    columns of ``eigenvectors`` are the matching orthonormal eigenvectors,
    each with the sign the solver gave it. Every reader in this package
    uses a column v only through |v . x|, v v^T x or (v . x)(v . z),
    which flipping the sign of v leaves bitwise unchanged.
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
    """Eigendecompose a symmetric matrix, eigenvalues descending.

    Raises NumericalError if the underlying solver does not converge,
    returns non-finite values, or returns a factorization that fails
    ||V diag(l) V^T - A||_F <= 1e-8 max(1, ||A||_F) (a ValueError if
    ||A||_F overflows) or ||V^T V - I||_F <= 1e-10 (checked at O(n^3)).
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

    dec = EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())
    recon, ortho = _residuals(A, dec)
    if not (recon <= _RECON_RTOL * max(1.0, frobenius_norm(A)) and ortho <= _ORTHO_TOL):
        raise NumericalError(
            f"eigendecomposition of order {n} matrix failed verification "
            f"(reconstruction residual {recon:.3e}, orthogonality residual {ortho:.3e})"
        )
    return dec


def _residuals(A: np.ndarray, dec: EigenDecomposition) -> tuple[float, float]:
    """(||V diag(l) V^T - A||_F, ||V^T V - I||_F), differenced in place."""
    v = dec.eigenvectors
    recon = (v * dec.eigenvalues) @ v.T
    recon -= A
    gram = v.T @ v
    gram.flat[:: dec.order + 1] -= 1.0
    return float(np.linalg.norm(recon)), float(np.linalg.norm(gram))


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
    factorization that fails :func:`eigh`'s check.
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
    require_psd(dec)
    denom = (dec.eigenvalues + shift).reshape((-1,) + (1,) * (b.ndim - 1))
    return dec.eigenvectors @ ((dec.eigenvectors.T @ b) / denom)

