"""SNP genotype matrices: simulation under Hardy-Weinberg equilibrium,
row/column subsampling, and CSV interchange.

Genotypes are minor-allele counts in {0, 1, 2}, one row per individual
and one column per SNP. All randomness flows through numpy's PCG64
generator seeded explicitly, so every matrix is reproducible from its
seed.
"""

from __future__ import annotations

import gzip
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DataError


@dataclass(frozen=True)
class MafLaw:
    """Uniform law for per-SNP minor allele frequencies."""

    lower: float = 0.01
    upper: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper <= 0.5):
            raise ValueError(
                f"require 0 < lower < upper <= 0.5, got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class GenotypeMatrix:
    """n-by-p matrix of allele counts with optional per-SNP MAF record."""

    data: np.ndarray
    maf: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.data)
        if a.ndim != 2:
            raise ValueError(f"genotype data must be 2-D, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"genotype matrix must be non-empty, got shape {a.shape}")
        if not np.isin(a, (0, 1, 2)).all():
            raise ValueError("genotype entries must all be 0, 1, or 2")
        a = a.astype(np.int8, copy=True)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        if self.maf is not None:
            m = np.asarray(self.maf, dtype=np.float64).copy()
            if m.shape != (a.shape[1],):
                raise ValueError(
                    f"maf length {m.shape} does not match SNP count {a.shape[1]}"
                )
            if not ((m > 0.0) & (m <= 0.5)).all():
                raise ValueError("recorded MAFs must lie in (0, 0.5]")
            m.setflags(write=False)
            object.__setattr__(self, "maf", m)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def as_float(self) -> np.ndarray:
        """Raw allele counts as float64."""
        return self.data.astype(np.float64)

    def standardized(self) -> np.ndarray:
        """Column-standardized allele counts (zero mean, unit variance).

        Monomorphic columns (zero variance) are mapped to all-zero
        columns rather than dividing by zero. One centring pass serves
        both the mean and the standard deviation, in the operation order
        of ``np.std``, so the result equals ``(z - mean) / std`` bitwise.
        """
        z = self.as_float()
        z -= z.mean(axis=0)
        sd = np.sqrt(np.sum(z * z, axis=0) / self.n)
        sd[sd == 0.0] = 1.0
        z /= sd
        return z


def hwe_probabilities(maf: float) -> tuple[float, float, float]:
    """Genotype probabilities ((1-m)^2, 2m(1-m), m^2) implied by MAF m."""
    if not (0.0 < maf <= 0.5):
        raise ValueError(f"MAF must lie in (0, 0.5], got {maf}")
    q = 1.0 - maf
    return (q * q, 2.0 * maf * q, maf * maf)


def simulate_hwe(n: int, p: int, law: MafLaw = MafLaw(), seed: int = 0) -> GenotypeMatrix:
    """Simulate an n-by-p genotype matrix under Hardy-Weinberg equilibrium.

    Each SNP draws its MAF once from ``law`` and keeps it for every
    individual; allele counts are then Binomial(2, MAF) per entry, which
    realizes exactly the HWE genotype probabilities. Deterministic for a
    fixed seed; the realized MAF vector is recorded on the result.
    """
    if n < 1 or p < 1:
        raise ValueError(f"need n, p >= 1, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    maf = rng.uniform(law.lower, law.upper, size=p)
    counts = rng.binomial(2, maf, size=(n, p)).astype(np.int8)
    return GenotypeMatrix(counts, maf=maf)


def subsample(
    pop: GenotypeMatrix,
    rows: int | Sequence[int],
    cols: int | None = None,
    seed: int = 0,
) -> GenotypeMatrix:
    """Sample rows (and optionally columns) uniformly without replacement.

    ``rows`` is either an explicit index collection or a count to draw.
    Drawn indices are sorted, so requesting all rows reproduces the
    population in original order. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    if isinstance(rows, (int, np.integer)):
        if rows > pop.n:
            raise ValueError(f"requested {rows} rows from a population of {pop.n}")
        row_idx = np.sort(rng.choice(pop.n, size=int(rows), replace=False))
    else:
        row_idx = np.asarray(list(rows), dtype=np.intp)
        if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= pop.n):
            raise ValueError("explicit row indices out of range")
    if cols is None:
        col_idx = np.arange(pop.p)
    else:
        if cols > pop.p:
            raise ValueError(f"requested {cols} columns from {pop.p} SNPs")
        col_idx = np.sort(rng.choice(pop.p, size=int(cols), replace=False))
    maf = pop.maf[col_idx] if pop.maf is not None else None
    return GenotypeMatrix(pop.data[np.ix_(row_idx, col_idx)], maf=maf)


def subsample_indices(n_available: int, n_take: int, seed: int = 0) -> np.ndarray:
    """Sorted uniform sample of row indices without replacement."""
    if n_take > n_available:
        raise ValueError(f"requested {n_take} of {n_available} rows")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_available, size=int(n_take), replace=False))


def _open_text(path, mode: str):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def read_genotype_csv(path, header: bool = False) -> GenotypeMatrix:
    """Read a comma-separated genotype matrix of {0,1,2} entries.

    Rejects ragged rows and out-of-domain values, naming the 1-based
    (row, column) of the first offender. Accepts gzip files by the
    ``.gz`` suffix. Blank lines are skipped; with ``header`` the first
    line is too.

    The file is parsed in one vectorised pass and checked once, by
    :class:`GenotypeMatrix`; only when either fails is it scanned field
    by field, which names the first offender (or accepts what the fast
    pass could not parse, such as a line of spaces).
    """
    try:
        with _open_text(path, "r") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input; the scan reports it
            data = np.loadtxt(
                fh, delimiter=",", dtype=np.int8, comments=None, ndmin=2, skiprows=int(header)
            )
        return GenotypeMatrix(data)
    except ValueError:
        pass
    return GenotypeMatrix(_scan_genotype_csv(path, header))


def _scan_genotype_csv(path, header: bool) -> np.ndarray:
    """Field-by-field parse that raises at the first offending field."""
    rows: list[list[int]] = []
    width = None
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if lineno == 1 and header:
                continue
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
                        f"{path}: non-integer genotype {field!r} at row {lineno}, column {col}"
                    ) from None
                if value not in (0, 1, 2):
                    raise DataError(
                        f"{path}: genotype value {value} outside {{0,1,2}} "
                        f"at row {lineno}, column {col}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no genotype rows found")
    return np.array(rows, dtype=np.int8)


def write_genotype_csv(g: GenotypeMatrix, path) -> None:
    """Write a genotype matrix as comma-separated integers (gzip by suffix)."""
    with _open_text(path, "w") as fh:
        for row in g.data:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")
