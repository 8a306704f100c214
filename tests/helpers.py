"""Shared oracle implementations for the test suite.

These stay deliberately naive and independent of the library's own
linear-algebra paths: explicit cofactor determinants, Laplace-expansion
solves, rational characteristic polynomials, double loops, a
field-by-field genotype CSV parser and row-by-row writer, and
eigendecomposition residuals from freshly allocated differences.
"""

import gzip
from fractions import Fraction

import numpy as np

from kernherit.exceptions import DataError


def det_cofactor(a: list[list]) -> object:
    """Determinant by recursive Laplace expansion (exact on Fractions)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = a[0][0] * 0  # zero of the element type
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cramer_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a small linear system by Cramer's rule with exact rationals."""
    n = a.shape[0]
    rows = [[Fraction(float(a[i, j])) for j in range(n)] for i in range(n)]
    rhs = [Fraction(float(v)) for v in b]
    d = det_cofactor(rows)
    out = np.empty(n)
    for j in range(n):
        cols = [[rhs[i] if k == j else rows[i][k] for k in range(n)] for i in range(n)]
        out[j] = float(det_cofactor(cols) / d)
    return out


def charpoly_roots(a: np.ndarray, digits: int = 40) -> np.ndarray:
    """Eigenvalues as roots of the exact characteristic polynomial.

    Entries are lifted to exact rationals (binary floats are rational),
    the characteristic polynomial is expanded symbolically, and its
    roots are located with arbitrary-precision arithmetic. Fully
    independent of any LAPACK code path.
    """
    import mpmath
    import sympy

    n = a.shape[0]
    m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(Fraction(float(a[i, j]))))
    coeffs = m.charpoly().all_coeffs()
    with mpmath.workdps(digits):
        roots = mpmath.polyroots([mpmath.mpf(str(c)) for c in coeffs], maxsteps=200)
        values = sorted((float(mpmath.re(r)) for r in roots), reverse=True)
    return np.array(values)


def naive_linear_kernel(z: np.ndarray) -> np.ndarray:
    n, p = z.shape
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(p):
                acc += z[i, k] * z[j, k]
            out[i, j] = acc / p
    return out


def naive_gaussian_kernel(z: np.ndarray, bandwidth: float = 1.0) -> np.ndarray:
    n = z.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d2 = 0.0
            for k in range(z.shape[1]):
                d2 += (z[i, k] - z[j, k]) ** 2
            out[i, j] = np.exp(-0.5 * d2 / bandwidth)
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2: exactly (bitwise) symmetric, since addition commutes."""
    a = np.asarray(a, dtype=np.float64)
    return (a + a.T) / 2.0


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(0.0, scale, size=(n, n))
    return (a + a.T) / 2.0


def random_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank or n
    b = rng.normal(size=(n, r))
    return (b @ b.T + (b @ b.T).T) / 2.0


def rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


# Fields that int() and a vectorised parser may treat differently.
ODD_TOKENS = ["x", "", " ", "\t", "3", "-1", "255", "257", "1.0", "1e0", "+1", "-0", "01",
              " 2", "2 ", "1_0", "0x1", "\x0b1", "1 1", "nan"]


def naive_read_genotype_csv(path) -> np.ndarray:
    """Genotype CSV parsed one field at a time with int(), as int8.

    Raises DataError naming the first ragged row, non-integer field or
    value outside {0,1,2}; skips blank lines.
    """
    rows: list[list[int]] = []
    width = None
    opener = gzip.open(path, "rt") if str(path).endswith(".gz") else open(path)
    with opener as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(fields)} fields, expected {width})"
                )
            parsed = []
            for col, field in enumerate(fields, start=1):
                try:
                    value = int(field)
                except ValueError:
                    raise DataError(
                        f"{path}: non-integer genotype {field!r} at line {lineno}, column {col}"
                    ) from None
                if value not in (0, 1, 2):
                    raise DataError(
                        f"{path}: genotype value {value} outside {{0,1,2}} "
                        f"at line {lineno}, column {col}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.int8)


def rowwise_write_genotype_csv(data: np.ndarray, path) -> None:
    """Genotype CSV written one row at a time through a text stream."""
    opener = gzip.open(path, "wt") if str(path).endswith(".gz") else open(path, "w")
    with opener as fh:
        for row in data:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")


def reference_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenpairs: numpy's ascending ones, reversed."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    return w[::-1].copy(), v[:, ::-1].copy()


def reference_eigh_residuals(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(||V diag(w) V^T - A||_F, ||V^T V - I||_F) from fresh differences."""
    recon = float(np.linalg.norm((v * w) @ v.T - a))
    ortho = float(np.linalg.norm(v.T @ v - np.eye(v.shape[0])))
    return recon, ortho
