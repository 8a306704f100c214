"""SNP genotype matrices: simulation under Hardy-Weinberg equilibrium,
row/column subsampling, and CSV interchange.

Genotypes are minor-allele counts in {0, 1, 2}, one row per individual
and one column per SNP. All randomness flows through numpy's PCG64
generator seeded explicitly, so every matrix is reproducible from its
seed.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import stat
import zlib
from dataclasses import dataclass

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
        if not ((a == 0) | (a == 1) | (a == 2)).all():
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
    pop: GenotypeMatrix, rows: int, cols: int | None = None, seed: int = 0
) -> GenotypeMatrix:
    """Draw ``rows`` rows (and optionally ``cols`` columns) uniformly without replacement.

    Rows are drawn first, then columns, from one generator. Drawn
    indices are sorted, so requesting all rows reproduces the population
    in original order. Deterministic for a fixed seed.
    """
    if rows > pop.n:
        raise ValueError(f"requested {rows} rows from a population of {pop.n}")
    rng = np.random.default_rng(seed)
    row_idx = np.sort(rng.choice(pop.n, size=int(rows), replace=False))
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


@contextlib.contextmanager
def _open(path, mode: str, **text):
    """An input file, through gzip if its name ends in ``.gz``; a gzip stream
    that is cut short or corrupt is a DataError naming the file."""
    name = str(path)
    try:
        with (gzip.open if name.endswith(".gz") else open)(name, mode, **text) as fh:
            yield fh
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataError(f"{path}: {exc}") from None


@contextlib.contextmanager
def read_lines(path):
    """The line rule of every input file: (number, line) of each line, counted
    from 1, blank ones included; lines end in LF, CRLF or a lone CR (not NEL,
    U+2028 or a form feed). Text is UTF-8, a byte that is not a lone surrogate
    for the reader to refuse; a ``.gz`` name is read through gzip."""
    with _open(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        yield enumerate(fh, start=1)


# gzip's own default level: level 9 takes over 20 times as long on
# genotype text, for a file 11% smaller.
_GZIP_LEVEL = 6


def write_atomic(path, chunks) -> None:
    """Write ``chunks`` (``str`` as UTF-8, or bytes-like) to ``path``, whole or
    not at all, gzipped at ``_GZIP_LEVEL`` if its name ends in ``.gz``.

    A new or regular file, through any symlink, is written to a temporary
    file beside it, which ``os.replace`` then moves onto it, so a run killed
    mid-write leaves any earlier file as it was; on an error the temporary
    file is removed. Anything else (``os.devnull``, a FIFO, ``/dev/stdout``),
    and a file whose temporary file cannot be made (its directory cannot be
    written, or is missing), is written in place, so an error names ``path``.
    """
    name = str(path)
    try:
        renamable = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        renamable = True
    target = os.path.realpath(path)
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(temporary, "wb") if renamable else None
    except OSError:
        fh = None
    if fh is None:
        fh, temporary = open(path, "wb"), None
    try:
        with fh, (gzip.GzipFile(name, "wb", _GZIP_LEVEL, fh) if name.endswith(".gz")
                  else contextlib.nullcontext(fh)) as out:
            for chunk in chunks:
                out.write(chunk.encode() if isinstance(chunk, str) else chunk)
        if temporary:
            os.replace(temporary, target)
    except BaseException:
        if temporary:
            os.remove(temporary)
        raise


def read_genotype_csv(path) -> GenotypeMatrix:
    """Read a comma-separated genotype matrix of {0,1,2} entries.

    The file follows the rules of :func:`scan_csv`, and each field must
    be an integer (``int()``) in {0, 1, 2}; the first other field is
    named by its file line and column.

    A file in the layout :func:`write_genotype_csv` produces (one digit
    per field, LF or CRLF line ends, spaces or tabs around fields) is
    parsed as one array and checked once, by :class:`GenotypeMatrix`.
    Any other file, or one that fails that check, is scanned field by
    field, which names the first offender (or accepts what the array
    parse leaves out, such as blank lines).
    """
    with _open(path, "rb") as fh:
        data = _parse_canonical(fh.read())
    if data is not None:
        try:
            return GenotypeMatrix(data)
        except ValueError:
            pass
    return GenotypeMatrix(scan_csv(path, _allele_count, np.int8))


def _parse_canonical(raw: bytes) -> np.ndarray | None:
    """Allele counts of a file whose lines are all ``d,d,...,d``, or None.

    Spaces and tabs, which ``int()`` ignores around a field, are deleted
    and CRLF becomes LF; a lone carriage return or lines of unequal or
    odd length give None. Each (digit, separator) byte pair is then read
    as one little-endian 16-bit word, less the
    word of ``('0', separator)``: the result is 0, 1 or 2 exactly where
    the pair is a digit 0-2 followed by the expected comma or newline,
    so the domain check of :class:`GenotypeMatrix` rejects any other.
    """
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
        if b"\r" in raw:
            return None
    if b" " in raw or b"\t" in raw:
        raw = raw.translate(None, b" \t")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    width = raw.index(b"\n") + 1
    if width % 2 or len(raw) % width:
        return None
    pairs = np.frombuffer(raw, dtype="<u2").reshape(-1, width // 2)
    separators = np.full(width // 2, ord(","), dtype="<u2")
    separators[-1] = ord("\n")
    return pairs - (separators * 256 + ord("0"))


def _allele_count(field: str) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ValueError(f"non-integer genotype {field!r}") from None
    if value not in (0, 1, 2):
        raise ValueError(f"genotype value {value} outside {{0,1,2}}")
    return value


def scan_csv(path, field, dtype, width: int | None = None) -> np.ndarray:
    """The scanner of every comma-separated input file: its rows, read by
    :func:`read_lines`, as a ``dtype`` array. Whitespace-only lines are
    skipped; there is no header or comment syntax. Other lines split on
    commas into ``width`` fields (default: the first such line's count),
    each passed to ``field``, whose ValueError becomes a DataError naming
    file, line and column; no field rule accepts a byte that is not UTF-8."""
    rows = []
    with read_lines(path) as lines:
        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            width = width or len(fields)
            if len(fields) != width:
                raise DataError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(fields)} fields, expected {width})"
                )
            row = []
            for col, text in enumerate(fields, start=1):
                try:
                    row.append(field(text))
                except ValueError as exc:
                    raise DataError(f"{path}: {exc} at line {lineno}, column {col}") from None
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=dtype)


def write_genotype_csv(g: GenotypeMatrix, path) -> None:
    """Write a genotype matrix as comma-separated integers, by :func:`write_atomic`.

    Each row is its digits joined by commas and ended by a newline,
    assembled as one byte matrix and written in one call.
    """
    lines = np.full((g.n, 2 * g.p), ord(","), dtype=np.uint8)
    lines[:, ::2] = g.data + ord("0")
    lines[:, -1] = ord("\n")
    write_atomic(path, [lines.data])
