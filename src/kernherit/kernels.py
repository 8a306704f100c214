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
is then an elementwise map of that Gram, done in place. It also picks
the Gaussian bandwidth, so the CLI and the Monte Carlo harness build
their kernels alike through it.

:class:`KernelMatrix`, the one kernel type, checks its matrix where it
enters and owns a read-only copy. Its eigendecomposition, ``eig``, is
computed on first access, cached, and checked to be numerically PSD and
to reconstruct the kernel from an orthonormal basis. Only the spectral
diagnostics read it; ridge fits need none (``krr`` solves them by a
Krylov sweep over ``matrix``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import matrixcore
from .genotypes import GenotypeMatrix
from .matrixcore import EigenDecomposition

KERNEL_KINDS = ("linear", "poly2", "gaussian")


class Design:
    """A read-only n-by-p kernel input and its Gram matrix Z Z^T.

    The Gram is computed on first use and shared by every kernel built
    from this design. The design keeps a read-only C-contiguous view of
    ``data``, copying it only when it is laid out otherwise (e.g. a
    strided view), so a contiguous array must not change afterwards.
    """

    def __init__(self, data):
        z = np.asarray(data, dtype=np.float64)
        if z.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {z.shape}")
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError(f"design matrix must be non-empty, got shape {z.shape}")
        # numpy computes Z Z^T for a contiguous Z by SYRK and mirrors one
        # triangle, so the Gram is exactly symmetric; for a strided view it
        # is not, hence the contiguous copy.
        z = np.ascontiguousarray(z).view()
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
        g = self.data @ self.data.T
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


def design_matrix(
    g: GenotypeMatrix, standardize: bool, gaussian_bandwidth: float | None = None
) -> tuple[Design, float]:
    """Kernel input and Gaussian bandwidth for genotypes ``g``.

    The input is column-standardized genotypes, or raw allele counts. A
    bandwidth of ``None`` picks the default: p/2 on standardized input
    (the scale at which pairwise squared distances between standardized
    rows concentrate) and 1 on raw allele counts.
    """
    design = Design(g.standardized() if standardize else g.as_float())
    if gaussian_bandwidth is None:
        gaussian_bandwidth = g.p / 2.0 if standardize else 1.0
    return design, float(gaussian_bandwidth)


class KernelMatrix:
    """A symmetric PSD kernel with a cached eigendecomposition.

    Rejects a non-square, non-finite or not exactly (bitwise) symmetric
    matrix and keeps a read-only float64 copy as ``matrix``, which the
    caller's array cannot change.
    """

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        a.setflags(write=False)
        self.matrix = a

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def eig(self) -> EigenDecomposition:
        """Spectral factorization, computed and checked on first access.

        Raises NumericalError if the matrix is not numerically PSD or if
        the factorization does not reconstruct it from an orthonormal
        basis (:func:`matrixcore.verify_eigh`, O(n^3)); a failure is not
        cached, so the next access tries again.
        """
        dec = matrixcore.eigh(self.matrix)
        matrixcore.require_psd(dec)
        matrixcore.verify_eigh(self.matrix, dec)
        return dec

    @functools.cached_property
    def frobenius_norm(self) -> float:
        """||K||_F, computed once (einsum: no BLAS thread start-up)."""
        a = self.matrix
        return math.sqrt(float(np.einsum("ij,ij->", a, a)))


def linear_kernel(x) -> KernelMatrix:
    """Inner-product kernel scaled by the number of columns: X X^T / p."""
    d = _as_design(x)
    return KernelMatrix(d.gram / d.p)


def polynomial_kernel(x) -> KernelMatrix:
    """Degree-2 polynomial kernel: elementwise square of (1 + X X^T / p)."""
    d = _as_design(x)
    k = d.gram / d.p
    k += 1.0
    np.square(k, out=k)
    return KernelMatrix(k)


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
    return KernelMatrix(d2)


def make_kernel(kind: str, x, gaussian_bandwidth: float = 1.0) -> KernelMatrix:
    """Build a kernel by name; ``gaussian_bandwidth`` applies to 'gaussian' only."""
    if kind == "linear":
        return linear_kernel(x)
    if kind == "poly2":
        return polynomial_kernel(x)
    if kind == "gaussian":
        return gaussian_kernel(x, bandwidth=gaussian_bandwidth)
    raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
