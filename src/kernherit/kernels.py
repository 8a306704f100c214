"""Kernel matrix construction from genotype data.

Three kernels are supported, each producing an exactly symmetric PSD
matrix from an n-by-p data matrix X (raw allele counts or any real
design matrix):

    linear      K = X X^T / p
    poly2       K = elementwise square of (1 + X X^T / p)
    gaussian    K_ij = exp(-||x_i - x_j||^2 / (2 * bandwidth)), unit diagonal

A :class:`Design` holds X and its Gaussian bandwidth, which defaults to
1 and is checked when the design is built. It computes the Gram matrix
X X^T once and shares it with every kernel built from it;
:func:`make_kernel`, the one kernel builder, maps that Gram elementwise
into one n-by-n array, a block of rows at a time, so a build allocates
no other n-by-n array. :func:`design_matrix` turns genotypes into a
design and picks its bandwidth, so the CLI and the Monte Carlo harness
build their kernels alike through it.

A design given a :class:`_Scratch` builds its Gram and kernels in the
scratch's two reused buffers instead of fresh arrays, which spares a
Monte Carlo job the page faults of fresh n-by-n arrays per repetition.

:class:`KernelMatrix`, the one kernel type, checks its matrix where it
enters and keeps it read-only, with the norm that admitted it. A kernel
from :func:`make_kernel` adopts the array that was filled for it; the
public constructor copies its argument, which the caller can then
change freely. Its eigendecomposition, ``eig``, is computed on first
access, cached, and checked: ``matrixcore.eigh`` verifies its
orthonormal basis, then ``matrixcore.require_psd`` its spectrum. Only
the spectral diagnostics read it; ridge fits need none (``krr`` solves
them by a Krylov sweep over ``matrix``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import matrixcore
from .genotypes import GenotypeMatrix
from .matrixcore import EigenDecomposition

KERNEL_KINDS = ("linear", "poly2", "gaussian")

# Entries per row block when a kernel is built or checked: 32768 float64
# entries are 256 KB, so a block and its temporaries stay in cache.
_BLOCK_ENTRIES = 32768


def _row_blocks(n: int) -> list[slice]:
    """The rows of an n-column matrix in blocks of about _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _checked(a: np.ndarray) -> float:
    """Make ``a`` read-only once it is non-empty, square, of finite norm and exactly symmetric.

    Returns ||a||_F (``matrixcore.frobenius_norm``), checked before
    symmetry, so a matrix failing both is reported as non-finite. An
    admitted matrix is read twice, with nothing of order n^2 allocated:
    symmetry compares each row block's entries on and right of the
    diagonal with their mirror images, which covers every pair once.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    norm = matrixcore.frobenius_norm(a)
    blocks = _row_blocks(a.shape[0])
    if not all(np.array_equal(a[rows, rows.start :], a[rows.start :, rows].T) for rows in blocks):
        raise ValueError("matrix is not exactly symmetric")
    a.setflags(write=False)
    return norm


class _Scratch:
    """Two reused float64 buffers, ``gram`` and ``kernel``, for one Monte Carlo job.

    Each buffer is allocated on first use at ``n_max``^2 entries and lent
    out as the C-contiguous n-by-n view of its first n^2 entries, so
    builds of any order up to ``n_max`` reuse the same pages. A pickled
    copy carries no buffers, so each pool task that receives one starts
    empty.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._buffers: dict[str, np.ndarray] = {}

    def view(self, role: str, n: int) -> np.ndarray:
        """The n-by-n view of buffer ``role``, sharing memory with every view lent before."""
        if role not in self._buffers:
            self._buffers[role] = np.empty(self.n_max * self.n_max)
        return self._buffers[role][: n * n].reshape(n, n)

    def __getstate__(self) -> dict:
        return {"n_max": self.n_max, "_buffers": {}}


class Design:
    """A read-only n-by-p kernel input, its Gaussian bandwidth and its Gram Z Z^T.

    The Gram is computed on first use and shared by every kernel built
    from this design. The design keeps a read-only C-contiguous view of
    ``data``, copying it only when it is laid out otherwise (e.g. a
    strided view), so a contiguous array must not change afterwards.
    ``gaussian_bandwidth`` rescales squared distances in the Gaussian
    kernel; the default of 1 leaves them unscaled.

    Without a ``scratch`` the Gram and every kernel built from the design
    get fresh arrays of their own. With one, they are built in its
    buffers, and each is valid only until the next Gram, or the next
    kernel, is built in the same scratch.
    """

    def __init__(self, data, gaussian_bandwidth: float = 1.0, scratch: _Scratch | None = None):
        if not 0 < gaussian_bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {gaussian_bandwidth}")
        self.gaussian_bandwidth = float(gaussian_bandwidth)
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
        self._scratch = scratch

    def _buffer(self, role: str) -> np.ndarray:
        """An n-by-n array to build the Gram or a kernel in: fresh, or the scratch's."""
        n = self.data.shape[0]
        return np.empty((n, n)) if self._scratch is None else self._scratch.view(role, n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Z Z^T, exactly symmetric, of finite norm and read-only."""
        z = self.data
        g = np.matmul(z, z.T, out=self._buffer("gram"))  # the SYRK path of z @ z.T
        matrixcore.frobenius_norm(g)  # the Gaussian map can hide an overflow
        g.setflags(write=False)
        return g


def design_matrix(
    g: GenotypeMatrix,
    standardize: bool,
    gaussian_bandwidth: float | None = None,
    scratch: _Scratch | None = None,
) -> Design:
    """The kernel input for genotypes ``g``, with its Gaussian bandwidth.

    The input is column-standardized genotypes, or raw allele counts. A
    bandwidth of ``None`` picks the default: p/2 on standardized input
    (the scale at which pairwise squared distances between standardized
    rows concentrate) and 1 on raw allele counts. ``scratch`` is passed
    to the :class:`Design`.
    """
    if gaussian_bandwidth is None:
        gaussian_bandwidth = g.p / 2.0 if standardize else 1.0
    return Design(g.standardized() if standardize else g.as_float(), gaussian_bandwidth, scratch)


class KernelMatrix:
    """A symmetric PSD kernel with a cached eigendecomposition.

    Rejects an empty, non-square or not exactly (bitwise) symmetric
    matrix, or one whose norm is not finite, and keeps ||K||_F as
    ``frobenius_norm`` and a read-only float64 copy as ``matrix``, which
    the caller's array cannot change. :func:`make_kernel` instead hands
    over the array it filled, to which nothing else writes while the
    kernel is in use, and the kernel adopts it without a copy
    (:meth:`_adopt`); both paths run the same checks (:func:`_checked`).
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.array(matrix, dtype=np.float64)
        self.frobenius_norm = _checked(self.matrix)

    @classmethod
    def _adopt(cls, a: np.ndarray) -> KernelMatrix:
        """A kernel that keeps ``a``, a float64 array nothing else writes to.

        A kernel adopted from a :class:`_Scratch` buffer is valid only
        until the next kernel is built in that scratch.
        """
        k = cls.__new__(cls)
        k.matrix, k.frobenius_norm = a, _checked(a)
        return k

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def eig(self) -> EigenDecomposition:
        """Spectral factorization, computed and checked on first access.

        :func:`matrixcore.eigh` checks the basis (O(n^3)), then
        :func:`matrixcore.require_psd` the spectrum; a NumericalError from
        either is not cached, so the next access tries again.
        """
        dec = matrixcore.eigh(self.matrix)
        matrixcore.require_psd(dec)
        return dec


def make_kernel(kind: str, design: Design) -> KernelMatrix:
    """The kernel ``kind`` of ``design``, mapped from its shared Gram.

    The map fills one n-by-n array a block of rows at a time, with each
    entry's operations in the order of the formula, so the kernel is
    bitwise the same whatever the block size; the kernel adopts that
    array. The array is fresh, unless the design has a scratch: then it
    is the scratch's kernel buffer, and the kernel is valid only until
    the next kernel is built there. The Gaussian kernel takes its squared
    distances G_ii + G_jj - 2 G_ij from the Gram G too, so its diagonal
    is exactly 1; it reads the design's bandwidth, which the other two
    kernels ignore.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; choose one of {KERNEL_KINDS}")
    gram, p = design.gram, design.p
    n = gram.shape[0]
    blocks = _row_blocks(n)
    k = design._buffer("kernel")
    if kind == "gaussian":
        # Squared row norms, so each distance (i, i) is 2 G_ii - 2 G_ii = 0;
        # copied because every block reads them all, and the view has stride n + 1.
        sq = gram.diagonal().copy()
        twice_gram = np.empty_like(k[blocks[0]])  # reused by every block
    for rows in blocks:
        out = k[rows]
        if kind == "linear":
            np.divide(gram[rows], p, out=out)
        elif kind == "poly2":
            np.divide(gram[rows], p, out=out)
            out += 1.0
            np.square(out, out=out)
        else:
            np.add(sq[rows, None], sq, out=out)
            out -= np.multiply(gram[rows], 2.0, out=twice_gram[: len(out)])
            np.maximum(out, 0.0, out=out)
            out *= -0.5
            out /= design.gaussian_bandwidth
            np.exp(out, out=out)
    return KernelMatrix._adopt(k)
