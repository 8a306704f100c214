"""Command-line front end: simulate, estimate, diagnose, mc.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical failure. All randomness enters through explicit --seed
flags; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import harness, krr
from .exceptions import DataError, KernheritError, NumericalError
from .genotypes import read_genotype_csv, scan_csv, write_atomic, write_genotype_csv
from .phenosim import export_population


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)


def _number(field: str) -> float:
    """A finite float: an ASCII float literal without ``_``, as numpy's text
    loader reads it less its ``#`` comments; ``nan`` and ``inf`` parse, then fail."""
    text = field.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise ValueError(f"non-numeric value {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    return value


def _read_numeric(path, column: bool, rows: tuple[str, int]) -> np.ndarray:
    """One numeric column as a vector, or a matrix, from a file read by
    :func:`scan_csv`. ``rows`` is the genotype file and its row count,
    which the data rows must match."""
    data = scan_csv(path, _number, np.float64, width=1 if column else None)
    genotypes, n = rows
    if data.shape[0] != n:
        raise DataError(
            f"{path}: row count {data.shape[0]} does not match the {n} rows of {genotypes}"
        )
    return data[:, 0] if column else data


def _config_field_arg(name: str):
    """Flag type that parses its value as the config file's ``name`` field."""

    def parse(raw: str):
        try:
            return harness.parse_value(name, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


# Flags that each set one McConfig field and parse as its config key:
# flag -> (field, help). McConfig checks their ranges. A list field's flag
# adds to its earlier uses; any other flag's last use wins.
_SIMULATE_FIELD_FLAGS = {
    "--n-individuals": ("population_size", None),
    "--n-snps": ("snp_count", None),
    "--sigma-g": ("sigma_g", None),
    "--sigma-eps": ("sigma_eps", None),
    "--family": ("family", "one of " + ", ".join(harness.FAMILIES)),
}
_MC_FIELD_FLAGS = {
    "--reps": ("repetitions", None),
    "--kernels": ("kernels", "comma-separated kernel kinds, or all"),
    "--nlambda": ("lambda_grid", "comma-separated regularization strengths n*lambda"),
    "--sizes": ("sample_sizes", "comma-separated sample sizes"),
    "--population-seed": ("population_seed", None),
    "--sampling-seed": ("sampling_seed", None),
    "--out": ("output_path", "output directory"),
}
_FILE_FIELD_FLAGS = {  # estimate and diagnose
    "--kernel": ("kernels", "comma-separated kernel kinds, or all"),
    "--nlambda": ("lambda_grid", "comma-separated regularization strengths n*lambda"),
    "--gaussian-bandwidth": ("gaussian_bandwidth", "auto (p/2 standardized, 1 raw) or a number"),
}


class _Extend(argparse.Action):
    """Adds a list field's items to those of the flag's earlier uses."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, (getattr(namespace, self.dest) or ()) + values)


def _add_field_flags(parser, flags) -> None:
    defaults = harness.McConfig()
    for flag, (field, help_text) in flags.items():
        parser.add_argument(
            flag, dest=field, type=_config_field_arg(field), default=None,
            action=_Extend if isinstance(getattr(defaults, field), tuple) else "store",
            metavar=flag[2:].upper().replace("-", "_"),
            help=f"{field}: {help_text}" if help_text else field,
        )


def _given_fields(args, flags) -> dict:
    """Field -> value of each of the field ``flags`` given on the command line."""
    values = {field: getattr(args, field) for field, _ in flags.values()}
    return {field: value for field, value in values.items() if value is not None}


def _configure(base, fields) -> harness.McConfig:
    """``base`` with ``fields`` replaced; a value McConfig rejects is a usage error."""
    try:
        return dataclasses.replace(base, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_file_flags(parser) -> None:
    """The input, settings and output flags that estimate and diagnose share."""
    parser.add_argument("--genotypes", required=True)
    parser.add_argument("--phenotypes", required=True)
    _add_field_flags(parser, _FILE_FIELD_FLAGS)
    parser.add_argument(
        "--no-standardize", dest="standardize", action="store_false",
        help="build kernels on raw allele counts instead of column-standardized ones",
    )
    parser.add_argument("--out", default=None)


def _genotype_source(cfg, path):
    """The matrix an external scenario samples from, read from ``--genotypes``.

    ``--genotypes`` is required by the external scenario and refused by
    any other, as a usage error raised before the file is read.
    """
    if cfg.scenario != "external":
        if path is not None:
            raise UsageError(f"--genotypes is only read by external presets, not {cfg.scenario!r}")
        return None
    if path is None:
        raise UsageError("this preset samples from real data; pass --genotypes")
    return read_genotype_csv(path)


def cmd_simulate(args) -> int:
    fields = _given_fields(args, _SIMULATE_FIELD_FLAGS)
    given = [flag for flag, (field, _) in _SIMULATE_FIELD_FLAGS.items() if field in fields]
    if args.preset is not None:
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --preset")
        base = harness.preset_config(args.preset)
    else:
        missing = [flag for flag in _SIMULATE_FIELD_FLAGS if flag not in given + ["--sigma-eps"]]
        if missing:
            raise UsageError(f"missing {', '.join(missing)} (or use --preset)")
        base = harness.McConfig()
        fields["sample_sizes"] = (fields["population_size"],)  # unused here; must fit the population
    cfg = _configure(base, {**fields, "population_seed": args.seed})

    source = _genotype_source(cfg, args.genotypes)
    pop = harness.build_mc_population(cfg, source)

    prefix = args.out
    geno_path = prefix + ".genotypes.csv"
    write_genotype_csv(pop.genotypes, geno_path)
    paths = export_population(pop, harness.simulation_spec(cfg), prefix)
    print(f"wrote {geno_path}")
    for path in paths.values():
        print(f"wrote {path}")
    print(f"true_h2={pop.true_h2!r}")
    return 0


def _load_inputs(args, covariates=None):
    """Settings, genotypes and the phenotype to fit, for estimate and diagnose.

    The settings are checked before any file is read; fields other than
    ``kernels``, ``lambda_grid``, ``standardize`` and ``gaussian_bandwidth``
    keep their defaults and are never read.

    The intercept, and the ``covariates`` file's columns if given, are
    projected out of the phenotypes once; the residual is fitted when
    there are covariates, the phenotypes themselves otherwise. A phenotype
    whose norm overflows, or a non-zero one whose residual is rounding
    (norm at most n*eps times its own) and so has no variance to split,
    is a DataError naming its files, raised before any kernel is built.
    All zeros pass; their h2 is undefined.
    """
    cfg = _configure(harness.McConfig(standardize=args.standardize),
                     _given_fields(args, _FILE_FIELD_FLAGS))
    genotypes = read_genotype_csv(args.genotypes)
    rows = (args.genotypes, genotypes.n)
    y = _read_numeric(args.phenotypes, column=True, rows=rows)
    x = None if covariates is None else _read_numeric(covariates, column=False, rows=rows)
    files = args.phenotypes if x is None else f"{args.phenotypes} and {covariates}"
    with np.errstate(over="ignore"):
        norm_y = np.linalg.norm(y)
    if norm_y == math.inf:
        raise DataError(f"{files}: the norm of the phenotypes overflows")
    try:
        r = krr.residualize(y, x)
    except ValueError as exc:
        raise DataError(f"{files}: {exc}") from None
    if norm_y > 0.0 and np.linalg.norm(r) <= y.size * np.finfo(np.float64).eps * norm_y:
        raise DataError(f"{files}: the phenotypes have no variance to split")
    return cfg, (y if x is None else r), genotypes


def _write_lines(lines, out) -> int:
    """Write report lines to ``out``, or to stdout when no path is given."""
    text = "\n".join(lines) + "\n"
    if out:
        write_atomic(out, [text])
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_estimate(args) -> int:
    cfg, y, genotypes = _load_inputs(args, args.covariates)
    fits = harness.kernel_fits(cfg, genotypes, y)
    rows = [krr.estimate_csv_row(kind, fit_res) for kind, _, fit_res in fits]
    return _write_lines([krr.estimate_csv_header(), *rows], args.out)


def cmd_diagnose(args) -> int:
    from . import spectra  # imported here: no other command needs it

    cfg, y, genotypes = _load_inputs(args)
    g = None
    if args.true_g is not None:  # checked before any kernel is built
        g = _read_numeric(args.true_g, column=True, rows=(args.genotypes, y.size))
        with np.errstate(over="ignore"):
            norms = (np.linalg.norm(g), np.linalg.norm(y - g))
        if not all(map(math.isfinite, norms)):
            raise DataError(f"{args.true_g}: the norm of the signal or of the noise overflows")
        if not norms[0] > 0.0:  # spectra's own test of a signal
            raise DataError(f"{args.true_g}: the norm of the signal is zero or underflows")
    blocks = []
    # estimate's fits; each kernel's one eigenbasis serves its whole grid.
    for kind, kernel, fit_res in harness.kernel_fits(cfg, genotypes, y):
        if g is None and not np.linalg.norm(fit_res.g_hat) > 0.0:
            raise DataError(f"{args.phenotypes}: the norm of the fitted signal is zero or underflows")
        items = spectra.report_items(kind, kernel, y, fit_res, g)
        blocks.append("\n".join(f"{key}={value}" for key, value in items))
    return _write_lines(["\n\n".join(blocks)], args.out)


def cmd_mc(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.config is not None:
        cfg = harness.read_config(args.config)
    else:
        cfg = harness.preset_config(args.preset)
    cfg = _configure(cfg, _given_fields(args, _MC_FIELD_FLAGS))
    if cfg.output_path is None:
        raise UsageError("no output directory: pass --out or set output_path in the config")

    source = _genotype_source(cfg, args.genotypes)
    os.makedirs(cfg.output_path, exist_ok=True)  # before the run, so a bad --out costs nothing
    table = harness.run_mc(cfg, genotype_source=source, workers=args.workers)

    table_path = os.path.join(cfg.output_path, "table.csv")
    manifest_path = os.path.join(cfg.output_path, "manifest.txt")
    harness.write_table_csv(table, table_path)
    harness.write_manifest(cfg, manifest_path, workers=args.workers)
    excluded = sum(c.excluded for c in table.rows)
    print(f"wrote {table_path} ({len(table.rows)} rows)")
    print(f"wrote {manifest_path}")
    print(
        f"true_h2={table.true_h2!r} repetitions={cfg.repetitions} "
        f"excluded_estimates={excluded}"
    )
    if cfg.repetitions == 1:
        print("note: single repetition; sd columns are 0 by convention")
    return 0


@functools.cache  # once per process: parsing leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="kernherit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a genotype/phenotype population")
    p_sim.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    _add_field_flags(p_sim, _SIMULATE_FIELD_FLAGS)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--genotypes", default=None, help="source matrix for external presets")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    keys = ("Settings flags parse as the config key in their help; a bad value is a usage error. "
            "A repeated --kernel or --nlambda adds to its earlier uses. "
            "Defaults: --kernel all and the stock --nlambda grid.")
    p_est = sub.add_parser("estimate", help="estimate heritability from files", description=keys)
    _add_file_flags(p_est)
    p_est.add_argument("--covariates", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="spectral condition and bound report", description=keys
                            + " One report block per (kernel, nlambda), in estimate's row"
                            " order, with a blank line between blocks.")
    _add_file_flags(p_diag)
    p_diag.add_argument("--true-g", default=None, help="signal values from simulation")
    p_diag.set_defaults(func=cmd_diagnose)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo harness")
    source = p_mc.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", default=None)
    source.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    p_mc.add_argument("--genotypes", default=None, help="matrix for the external scenario")
    _add_field_flags(p_mc, _MC_FIELD_FLAGS)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:  # OSError: an unreadable or unwritable file
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except KernheritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
