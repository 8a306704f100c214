"""Kernel matrix construction from genotype data.

Three kernels are supported, each producing an exactly symmetric PSD
matrix from an n-by-p data matrix X (raw allele counts or any real
design matrix):

    linear      K = X X^T / p
    poly2       K = elementwise square of (1 + X X^T / p)
    gaussian    K_ij = exp(-||x_i - x_j||^2 / (2 * bandwidth)), unit diagonal

The Gaussian bandwidth defaults to 1. :func:`design_matrix` turns
genotypes into a :class:`Design`, which computes the Gram matrix
X X^T once and shares it with every kernel built from it; each kernel
is then an elementwise map of that Gram, done in place.
:func:`resolve_gaussian_bandwidth` picks the bandwidth. The CLI and the
Monte Carlo harness build their kernels alike through these.

:class:`KernelMatrix`, the one kernel type, checks its matrix where it
enters and owns a read-only copy. Its eigendecomposition, ``eig``, is
computed lazily, exactly once even under concurrent access, and checked
to be numerically PSD and to reconstruct the kernel from an orthonormal
basis. Only the spectral diagnostics read it; ridge fits need none
(``krr`` solves them by a Krylov sweep over ``matrix``).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import matrixcore
from .genotypes import GenotypeMatrix
from .matrixcore import EigenDecomposition

KERNEL_KINDS = ("linear", "poly2", "gaussian")


class Design:
    """A read-only n-by-p kernel input and its Gram matrix Z Z^T.

    The Gram is computed on first use and shared by every kernel built
    from this design. The design keeps a read-only view of ``data``
    without copying it, so the array must not change afterwards.
    """

    def __init__(self, data):
        z = np.asarray(data, dtype=np.float64)
        if z.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {z.shape}")
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError(f"design matrix must be non-empty, got shape {z.shape}")
        z = z.view()
        z.setflags(write=False)
        self.data = z

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Z Z^T, exactly symmetric, finite and read-only."""
        g = matrixcore.symmetrize(self.data @ self.data.T)
        if not np.all(np.isfinite(g)):  # the Gaussian map can hide an overflow
            raise ValueError("matrix entries must be finite")
        g.setflags(write=False)
        return g


def _as_design(x) -> Design:
    if isinstance(x, Design):
        return x
    if isinstance(x, GenotypeMatrix):
        return Design(x.as_float())
    return Design(x)


def design_matrix(g: GenotypeMatrix, standardize: bool) -> Design:
    """Kernel input: column-standardized genotypes, or raw allele counts."""
    return Design(g.standardized() if standardize else g.as_float())


def resolve_gaussian_bandwidth(bandwidth: float | None, standardize: bool, n_snps: int) -> float:
    """Gaussian bandwidth actually used; ``None`` picks the default.

    The default is p/2 on standardized inputs (the scale at which
    pairwise squared distances between standardized rows concentrate)
    and 1 on raw allele counts.
    """
    if bandwidth is not None:
        return float(bandwidth)
    return n_snps / 2.0 if standardize else 1.0


class KernelMatrix:
    """A named symmetric PSD kernel with a cached eigendecomposition.

    Rejects a non-square, non-finite or not exactly symmetric matrix
    (see :func:`matrixcore.symmetrize`) and keeps a read-only float64
    copy as ``matrix``, which the caller's array cannot change.
    """

    def __init__(self, kind: str, matrix: np.ndarray):
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
        a = np.array(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        a.setflags(write=False)
        self.kind = kind
        self.matrix = a
        self._eig: EigenDecomposition | None = None
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def has_eig(self) -> bool:
        return self._eig is not None

    @property
    def eig(self) -> EigenDecomposition:
        """Spectral factorization, computed and checked on first access.

        Single-flight under concurrent access. Raises NumericalError if
        the matrix is not numerically PSD or if the factorization does
        not reconstruct it from an orthonormal basis
        (:func:`matrixcore.verify_eigh`, O(n^3), run once).
        """
        if self._eig is None:
            with self._eig_lock:
                if self._eig is None:
                    dec = matrixcore.eigh(self.matrix)
                    matrixcore.require_psd(dec)
                    matrixcore.verify_eigh(self.matrix, dec)
                    self._eig = dec
        return self._eig

    @functools.cached_property
    def frobenius_norm(self) -> float:
        """||K||_F, computed once (einsum: no BLAS thread start-up)."""
        a = self.matrix
        return math.sqrt(float(np.einsum("ij,ij->", a, a)))


def linear_kernel(x) -> KernelMatrix:
    """Inner-product kernel scaled by the number of columns: X X^T / p."""
    d = _as_design(x)
    return KernelMatrix("linear", d.gram / d.p)


def polynomial_kernel(x) -> KernelMatrix:
    """Degree-2 polynomial kernel: elementwise square of (1 + X X^T / p)."""
    d = _as_design(x)
    k = d.gram / d.p
    k += 1.0
    np.square(k, out=k)
    return KernelMatrix("poly2", k)


def gaussian_kernel(x, bandwidth: float = 1.0) -> KernelMatrix:
    """Gaussian kernel exp(-||x_i - x_j||^2 / (2 * bandwidth)).

    The diagonal is exactly 1. ``bandwidth`` rescales squared distances;
    the default of 1 leaves them unscaled.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    d = _as_design(x)
    sq = np.einsum("ij,ij->i", d.data, d.data)
    d2 = sq[:, None] + sq[None, :]
    d2 -= 2.0 * d.gram
    np.fill_diagonal(d2, 0.0)
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    d2 /= bandwidth
    np.exp(d2, out=d2)
    return KernelMatrix("gaussian", d2)


def make_kernel(kind: str, x, gaussian_bandwidth: float = 1.0) -> KernelMatrix:
    """Build a kernel by name; ``gaussian_bandwidth`` applies to 'gaussian' only."""
    if kind == "linear":
        return linear_kernel(x)
    if kind == "poly2":
        return polynomial_kernel(x)
    if kind == "gaussian":
        return gaussian_kernel(x, bandwidth=gaussian_bandwidth)
    raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
