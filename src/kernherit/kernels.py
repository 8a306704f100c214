"""Kernel matrix construction from genotype data.

Three kernels are supported, each producing an exactly symmetric PSD
matrix from an n-by-p data matrix X (raw allele counts or any real
design matrix):

    linear      K = X X^T / p
    poly2       K = elementwise square of (1 + X X^T / p)
    gaussian    K_ij = exp(-||x_i - x_j||^2 / (2 * bandwidth)), unit diagonal

The Gaussian bandwidth defaults to 1. The eigendecomposition of a kernel
is computed lazily, exactly once even under concurrent access, and
checked to be numerically PSD. Only the spectral diagnostics read it,
as ``verified_eig``, which also checks once that it reconstructs the
kernel from an orthonormal basis; ridge fits need none (``krr`` solves
them by a Krylov sweep over ``matrix``). :func:`design_matrix` and
:func:`resolve_gaussian_bandwidth` turn genotypes and pipeline settings
into kernel inputs, for the CLI and the Monte Carlo harness alike.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import matrixcore
from .genotypes import GenotypeMatrix
from .matrixcore import EigenDecomposition, SymMatrix

KERNEL_KINDS = ("linear", "poly2", "gaussian")


def _as_design(x) -> np.ndarray:
    if isinstance(x, GenotypeMatrix):
        return x.as_float()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"design matrix must be non-empty, got shape {x.shape}")
    return x


def design_matrix(g: GenotypeMatrix, standardize: bool) -> np.ndarray:
    """Kernel input: column-standardized genotypes, or raw allele counts."""
    return g.standardized() if standardize else g.as_float()


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
    """A named symmetric PSD kernel with a cached eigendecomposition."""

    def __init__(self, kind: str, matrix: SymMatrix):
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
        self.kind = kind
        self.matrix = matrix
        self._eig: EigenDecomposition | None = None
        self._eig_verified = False
        self._eig_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.matrix.order

    @property
    def has_eig(self) -> bool:
        return self._eig is not None

    @property
    def eig(self) -> EigenDecomposition:
        """Spectral factorization, computed on first access (single-flight).

        Raises NumericalError if the matrix is not numerically PSD. The
        factorization is not re-multiplied; see ``verified_eig``.
        """
        if self._eig is None:
            with self._eig_lock:
                if self._eig is None:
                    dec = matrixcore.eigh(self.matrix)
                    matrixcore.require_psd(dec)
                    self._eig = dec
        return self._eig

    @property
    def verified_eig(self) -> EigenDecomposition:
        """``eig``, checked once to reconstruct the kernel orthonormally.

        The check (:func:`matrixcore.verify_eigh`) is O(n^3), so it runs
        on the first read only, under the same lock as the factorization.
        Use this wherever the eigenvectors serve as a basis.
        """
        dec = self.eig
        if not self._eig_verified:
            with self._eig_lock:
                if not self._eig_verified:
                    matrixcore.verify_eigh(self.matrix, dec)
                    self._eig_verified = True
        return dec

    @functools.cached_property
    def frobenius_norm(self) -> float:
        """||K||_F, computed once (einsum: no BLAS thread start-up)."""
        a = self.matrix.data
        return math.sqrt(float(np.einsum("ij,ij->", a, a)))


def _linear_gram(z: np.ndarray) -> SymMatrix:
    return matrixcore.symmetrize(z @ z.T / z.shape[1])


def linear_kernel(x) -> KernelMatrix:
    """Inner-product kernel scaled by the number of columns: X X^T / p."""
    return KernelMatrix("linear", _linear_gram(_as_design(x)))


def polynomial_kernel(x) -> KernelMatrix:
    """Degree-2 polynomial kernel: elementwise square of (1 + X X^T / p)."""
    gram = _linear_gram(_as_design(x)).data
    return KernelMatrix("poly2", SymMatrix((1.0 + gram) ** 2))


def gaussian_kernel(x, bandwidth: float = 1.0) -> KernelMatrix:
    """Gaussian kernel exp(-||x_i - x_j||^2 / (2 * bandwidth)).

    The diagonal is exactly 1. ``bandwidth`` rescales squared distances;
    the default of 1 leaves them unscaled.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    z = _as_design(x)
    sq = np.einsum("ij,ij->i", z, z)
    cross = matrixcore.symmetrize(z @ z.T).data
    d2 = sq[:, None] + sq[None, :] - 2.0 * cross
    np.fill_diagonal(d2, 0.0)
    np.maximum(d2, 0.0, out=d2)
    return KernelMatrix("gaussian", SymMatrix(np.exp(-0.5 * d2 / bandwidth)))


def make_kernel(kind: str, x, gaussian_bandwidth: float = 1.0) -> KernelMatrix:
    """Build a kernel by name; ``gaussian_bandwidth`` applies to 'gaussian' only."""
    if kind == "linear":
        return linear_kernel(x)
    if kind == "poly2":
        return polynomial_kernel(x)
    if kind == "gaussian":
        return gaussian_kernel(x, bandwidth=gaussian_bandwidth)
    raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
