"""Monte Carlo engine for evaluating the heritability estimator.

One population is generated per configuration (genotypes, effects and
noise are all fixed by ``population_seed``); each repetition then
redraws only the row subsample, builds the requested kernels on the
sample, sweeps the regularization grid, and records the heritability
estimate. Cell aggregates are the mean and standard deviation (divisor
reps-1) over repetitions, with undefined estimates counted and excluded
rather than silently dropped.

Seed discipline (documented so runs are exactly reproducible):

* ``SeedSequence(population_seed).generate_state(2)`` yields the
  genotype seed and the phenotype seed, in that order;
* repetition r at sample-size index i subsamples rows with the seed
  ``SeedSequence(sampling_seed).generate_state(sizes * reps)`` reshaped
  to (sizes, reps) and indexed [i, r].

Because subsampled row indices are sorted, drawing n = N rows always
reproduces the whole population bitwise, so those cells have exactly
zero standard deviation. Repetitions with identical row sets are
computed once and shared, both serially and in parallel; parallel and
serial runs produce bitwise identical tables. The repetition job is a
pure function of (config, population, rows), plus a scratch that holds
only memory: it builds each Gram and kernel in the scratch's buffers,
where one is valid until the next of its role is built, and returns only
floats. The job reaches pool workers by argument, so parallel runs work
under any multiprocessing start method.
"""

from __future__ import annotations

import concurrent.futures
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .exceptions import DataError
from .genotypes import (
    GenotypeMatrix, MafLaw, read_lines, simulate_hwe, subsample, subsample_indices, write_atomic,
)
from .kernels import KERNEL_KINDS, _Scratch, design_matrix, make_kernel
from .krr import DEFAULT_NLAMBDA_GRID, lambda_grid_fit
from .phenosim import FAMILIES, Population, SimulationSpec, build_population, check_scales

LOW_DIM_SAMPLE_SIZES = (600, 700, 800, 900, 1000)
HIGH_DIM_SAMPLE_SIZES = (100, 200, 300, 400, 500)

SCENARIOS = ("hwe", "external")


def _is_utf8(text: str) -> bool:
    """No lone surrogate, the stand-in for a byte that is not UTF-8, in ``text``."""
    return text.encode(errors="replace").decode() == text


@dataclass(frozen=True)
class McConfig:
    """Full recipe for one Monte Carlo run."""

    scenario: str = "hwe"
    family: str = "linear"
    kernels: tuple[str, ...] = KERNEL_KINDS
    lambda_grid: tuple[float, ...] = DEFAULT_NLAMBDA_GRID
    sample_sizes: tuple[int, ...] = LOW_DIM_SAMPLE_SIZES
    repetitions: int = 500
    population_seed: int = 0
    sampling_seed: int = 1
    population_size: int = 1000
    snp_count: int = 500
    sigma_g: float = 0.02
    sigma_eps: float = 0.5
    standardize: bool = True
    gaussian_bandwidth: float | None = None  # None: p/2 standardized, 1 raw
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for kind in self.kernels:
            if kind not in KERNEL_KINDS:
                raise ValueError(f"kernels must be among {', '.join(KERNEL_KINDS)}, got {kind!r}")
        for value in self.lambda_grid:
            if not 0 < value < math.inf:
                raise ValueError(f"lambda_grid must be positive and finite, got {value}")
        check_scales(self.sigma_g, self.sigma_eps)
        for name in ("repetitions", "population_size", "snp_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("population_seed", "sampling_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for n in self.sample_sizes:
            if not (1 <= n <= self.population_size):
                raise ValueError(
                    f"sample size {n} outside [1, population size {self.population_size}]"
                )
        for name in ("kernels", "lambda_grid", "sample_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
            seen = set()
            for value in getattr(self, name):
                if value in seen:
                    raise ValueError(f"{name} must be distinct, got {value!r} more than once")
                seen.add(value)
        bandwidth = self.gaussian_bandwidth
        if bandwidth is not None and not 0 < bandwidth < math.inf:
            raise ValueError(f"gaussian_bandwidth must be positive and finite, got {bandwidth}")
        path = self.output_path
        if path is not None and (
            path != path.strip() or len(path.splitlines()) != 1 or not _is_utf8(path)
        ):
            raise ValueError(
                f"output_path {path!r} must be one non-empty line of UTF-8 text "
                "without leading or trailing whitespace"
            )


@dataclass(frozen=True)
class McCell:
    kernel: str
    nlambda: float
    n: int
    mean: float
    sd: float
    excluded: int


@dataclass(frozen=True)
class McResultTable:
    rows: tuple[McCell, ...]
    reps: int
    true_h2: float


def derive_population_seeds(population_seed: int) -> tuple[int, int]:
    """(genotype seed, phenotype seed) from the population seed."""
    state = np.random.SeedSequence(population_seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def derive_sampling_seeds(sampling_seed: int, n_sizes: int, reps: int) -> np.ndarray:
    """(n_sizes, reps) array of per-repetition subsampling seeds."""
    state = np.random.SeedSequence(sampling_seed).generate_state(
        n_sizes * reps, dtype=np.uint64
    )
    return state.reshape(n_sizes, reps)


def simulation_spec(cfg: McConfig) -> SimulationSpec:
    """Phenotype recipe of the configured population, on the derived phenotype seed."""
    return SimulationSpec(
        n_individuals=cfg.population_size,
        n_snps=cfg.snp_count,
        sigma_g=cfg.sigma_g,
        sigma_eps=cfg.sigma_eps,
        family=cfg.family,
        seed=derive_population_seeds(cfg.population_seed)[1],
    )


def build_mc_population(cfg: McConfig, genotype_source: GenotypeMatrix | None = None) -> Population:
    """Materialize the configured population once.

    HWE scenario simulates genotypes; the external scenario subsamples
    the supplied matrix down to (population_size, snp_count) first.
    """
    geno_seed = derive_population_seeds(cfg.population_seed)[0]
    if cfg.scenario == "hwe":
        genotypes = simulate_hwe(cfg.population_size, cfg.snp_count, MafLaw(), seed=geno_seed)
    else:
        if genotype_source is None:
            raise DataError("the external scenario requires a genotype matrix")
        if genotype_source.n < cfg.population_size or genotype_source.p < cfg.snp_count:
            raise DataError(
                f"external genotypes are {genotype_source.n}x{genotype_source.p}, "
                f"need at least {cfg.population_size}x{cfg.snp_count}"
            )
        genotypes = subsample(
            genotype_source, cfg.population_size, cols=cfg.snp_count, seed=geno_seed
        )
    return build_population(simulation_spec(cfg), genotypes)


def kernel_fits(cfg: McConfig, genotypes: GenotypeMatrix, y, scratch: _Scratch | None = None):
    """(kind, kernel, fit) for each kernel of ``cfg`` in order and each nlambda of its grid.

    One design of ``genotypes`` serves every kernel, and one sweep each kernel's grid.
    A kernel built in ``scratch`` is valid until the next one is built there.
    """
    design = design_matrix(genotypes, cfg.standardize, cfg.gaussian_bandwidth, scratch)
    for kind in cfg.kernels:
        kernel = make_kernel(kind, design)
        for fit_res in lambda_grid_fit(kernel, y, cfg.lambda_grid):
            yield kind, kernel, fit_res


def _rep_estimates(
    cfg: McConfig, pop: Population, scratch: _Scratch, row_idx: np.ndarray
) -> np.ndarray:
    """Heritability estimates for one subsample: shape (kernels, grid), NaN = undefined.

    Builds the Gram and kernels in ``scratch``, over those of the last call.
    """
    z_rows = GenotypeMatrix(pop.genotypes.data[row_idx])
    fits = kernel_fits(cfg, z_rows, pop.phenotypes[row_idx], scratch)
    return np.array([fit_res.h2_hat for _, _, fit_res in fits]).reshape(len(cfg.kernels), -1)


def run_mc(
    cfg: McConfig,
    genotype_source: GenotypeMatrix | None = None,
    workers: int = 1,
) -> McResultTable:
    """Execute the Monte Carlo protocol and aggregate per-cell results."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pop = build_mc_population(cfg, genotype_source)
    seeds = derive_sampling_seeds(cfg.sampling_seed, len(cfg.sample_sizes), cfg.repetitions)

    # Per sample size, the sorted row set of each repetition; identical row
    # sets are computed once (at n = N every repetition draws the whole
    # population, which is what makes those cells exactly degenerate).
    rep_keys: list[list[bytes]] = []
    unique_rows: dict[bytes, np.ndarray] = {}
    for i, n in enumerate(cfg.sample_sizes):
        keys = []
        for r in range(cfg.repetitions):
            idx = subsample_indices(cfg.population_size, n, seed=int(seeds[i, r]))
            key = idx.tobytes()
            keys.append(key)
            unique_rows.setdefault(key, idx)
        rep_keys.append(keys)

    # Pickled once per pool chunk, so each chunk reuses its own empty copy
    # of the scratch, and a serial run reuses this one.
    scratch = _Scratch(max(cfg.sample_sizes))
    job = functools.partial(_rep_estimates, cfg, pop, scratch)
    workers = min(workers, len(unique_rows))  # a pool forks every worker up front
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(unique_rows) // (4 * workers))
            estimates = list(pool.map(job, unique_rows.values(), chunksize=chunk))
    else:
        estimates = list(map(job, unique_rows.values()))
    results = dict(zip(unique_rows, estimates))
    # Shape (sizes, reps, kernels, grid).
    h2 = np.array([[results[key] for key in keys] for keys in rep_keys])

    rows: list[McCell] = []
    for i_kind, kind in enumerate(cfg.kernels):
        for j_lam, nlam in enumerate(cfg.lambda_grid):
            for i_size, n in enumerate(cfg.sample_sizes):
                values = h2[i_size, :, i_kind, j_lam]
                defined = values[~np.isnan(values)]
                excluded = int(values.size - defined.size)
                if defined.size == 0:
                    mean = float("nan")
                    sd = float("nan")
                elif defined.size == 1 or np.all(defined == defined[0]):
                    # Bitwise-identical repetitions (always the case when the
                    # sample is the whole population) have exactly zero spread;
                    # averaging would reintroduce one-ulp noise.
                    mean = float(defined[0])
                    sd = 0.0
                else:
                    mean = float(np.mean(defined))
                    sd = float(np.std(defined, ddof=1))
                rows.append(
                    McCell(
                        kernel=kind,
                        nlambda=float(nlam),
                        n=int(n),
                        mean=mean,
                        sd=sd,
                        excluded=excluded,
                    )
                )
    return McResultTable(rows=tuple(rows), reps=cfg.repetitions, true_h2=pop.true_h2)


TABLE_HEADER = "kernel,nlambda,n,mean,sd,reps,true_h2,excluded"


def write_table_csv(table: McResultTable, path) -> None:
    """Write the result table with a stable column order."""
    rows = [
        f"{c.kernel},{c.nlambda!r},{c.n},{c.mean!r},{c.sd!r},"
        f"{table.reps},{table.true_h2!r},{c.excluded}\n"
        for c in table.rows
    ]
    write_atomic(path, [TABLE_HEADER + "\n", *rows])


# ---------------------------------------------------------------------------
# Flat key=value run configuration files.

def _list_codec(convert, what: str, fmt=str, every=None):
    """Codec of a comma-separated list field; an empty item is an error, and
    ``all`` parses as ``every`` if given."""

    def parse(raw: str) -> tuple:
        if every is not None and raw == "all":
            return every
        parts = [part.strip() for part in raw.split(",")]
        try:
            if "" in parts:
                raise ValueError
            return tuple(convert(part) for part in parts)
        except ValueError:
            raise ValueError(f"expected comma-separated {what}, got {raw!r}") from None

    return parse, lambda value: ",".join(fmt(v) for v in value)


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw == "true"


# (parse, format) of every McConfig field, in declaration order: the one
# text form of a run setting, shared by config files, manifests and the
# command-line settings flags. Ranges are checked by McConfig, not here.
FIELD_CODECS = {
    "scenario": (str, str),
    "family": (str, str),
    "kernels": _list_codec(str, "names", every=KERNEL_KINDS),
    "lambda_grid": _list_codec(float, "numbers", repr),
    "sample_sizes": _list_codec(int, "integers"),
    "repetitions": (int, str),
    "population_seed": (int, str),
    "sampling_seed": (int, str),
    "population_size": (int, str),
    "snp_count": (int, str),
    "sigma_g": (float, repr),
    "sigma_eps": (float, repr),
    "standardize": (_parse_bool, lambda value: "true" if value else "false"),
    "gaussian_bandwidth": (
        lambda raw: None if raw in ("auto", "") else float(raw),
        lambda value: "auto" if value is None else repr(float(value)),
    ),
    "output_path": (lambda raw: raw or None, lambda value: "" if value is None else str(value)),
}


def parse_value(name: str, raw: str):
    """One configuration field from its text, as in a config file or flag.

    Surrounding whitespace is ignored. Raises ValueError for malformed
    text; ranges are checked by :class:`McConfig`.
    """
    return FIELD_CODECS[name][0](raw.strip())


def serialize_config(cfg: McConfig) -> str:
    """Canonical key=value form; parse(serialize(cfg)) == cfg."""
    lines = [f"{name}={fmt(getattr(cfg, name))}" for name, (_, fmt) in FIELD_CODECS.items()]
    return "\n".join(lines) + "\n"


def parse_config(text: str, source: str = "<config>") -> McConfig:
    """Parse a flat key=value run configuration.

    Blank lines and '#' comments are allowed. Lines end in LF, CRLF or a
    lone CR, as in every input file, and count from 1. Unknown keys,
    malformed values, a value that fails a rule of its own field and text
    that is not UTF-8 are rejected with their line number.
    """
    return _parse_lines(enumerate(io.StringIO(text, newline=None), start=1), source)


def read_config(path) -> McConfig:
    """The run configuration in a file, read by :func:`genotypes.read_lines`."""
    with read_lines(path) as lines:
        return _parse_lines(lines, str(path))


def _parse_lines(lines, source: str) -> McConfig:
    values: dict = {}
    linenos: dict = {}
    for lineno, line in lines:
        if not _is_utf8(line):
            raise DataError(f"{source}: bytes that are not UTF-8 at line {lineno}")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{source}: expected key=value, got {stripped!r} at line {lineno}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_CODECS:
            raise DataError(f"{source}: unknown configuration key {key!r} at line {lineno}")
        if key in values:
            raise DataError(f"{source}: duplicate key {key!r} at line {lineno}")
        try:
            values[key] = parse_value(key, raw)
        except ValueError as exc:
            raise DataError(f"{source}: bad value for {key!r}: {exc} at line {lineno}") from None
        linenos[key] = lineno
    try:
        return McConfig(**values)
    except ValueError as exc:
        error = str(exc)
    # A rule of one field, which the field alone fails the same way, names its line.
    for key, lineno in linenos.items():
        try:
            McConfig(**{key: values[key]})
        except ValueError as exc:
            if str(exc) == error:
                raise DataError(f"{source}: {error} at line {lineno}") from None
    raise DataError(f"{source}: {error}")


def write_manifest(cfg: McConfig, path, workers: int = 1) -> None:
    """Config echo plus seeds and library versions, as key=value."""
    geno_seed, pheno_seed = derive_population_seeds(cfg.population_seed)
    write_atomic(path, [
        f"kernherit_version={__version__}\n",
        f"numpy_version={np.__version__}\n",
        f"workers={workers}\n",
        f"derived_genotype_seed={geno_seed}\n",
        f"derived_phenotype_seed={pheno_seed}\n",
        serialize_config(cfg),
    ])


# ---------------------------------------------------------------------------
# Named presets mirroring the stock simulation settings.
#
# One row per (source, dimension) cell of the paper's simulation design.
# Source "hwe" simulates Hardy-Weinberg genotypes; "kgp" stands for the 1000
# Genomes panel and runs the external scenario (a user-supplied matrix).
# Dimension "low" has more samples than SNPs (N > p), "high" fewer (N < p).
# Each row: scenario, population size, SNP count, sample sizes, then the
# sigma_g of each effect family in FAMILIES order.
_DESIGN = {
    ("hwe", "low"): ("hwe", 1000, 500, LOW_DIM_SAMPLE_SIZES, (0.02, 0.03, 0.02)),
    ("hwe", "high"): ("hwe", 500, 1000, HIGH_DIM_SAMPLE_SIZES, (0.01, 0.02, 0.05)),
    ("kgp", "low"): ("external", 1092, 500, LOW_DIM_SAMPLE_SIZES, (0.02, 0.03, 0.05)),
    ("kgp", "high"): ("external", 1092, 1500, HIGH_DIM_SAMPLE_SIZES, (0.01, 0.015, 0.05)),
}

PRESETS: dict[str, McConfig] = {
    f"{source}-{family}-{dim}": McConfig(
        scenario=scenario,
        family=family,
        population_size=size,
        snp_count=snps,
        sigma_g=sigma_g,
        sample_sizes=sizes,
    )
    for (source, dim), (scenario, size, snps, sizes, sigmas) in _DESIGN.items()
    for family, sigma_g in zip(FAMILIES, sigmas)
}

# Small configuration that exercises the full pipeline in seconds.
PRESETS["desk"] = McConfig(
    family="linear",
    population_size=300,
    snp_count=60,
    sigma_g=0.05,
    lambda_grid=(0.8, 1.5, 2.3),
    sample_sizes=(100, 150, 200, 250, 300),
    repetitions=50,
)


def preset_config(name: str) -> McConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise DataError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
