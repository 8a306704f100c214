"""Command-line front end: simulate, estimate, diagnose, mc.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical failure. All randomness enters through explicit --seed
flags; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import harness, kernels, krr, phenosim, spectra
from .exceptions import ConditionNotMet, DataError, KernheritError, NumericalError
from .genotypes import read_genotype_csv, write_genotype_csv
from .phenosim import export_population


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)


def _read_numeric(path, column: bool) -> np.ndarray:
    """One numeric column as a vector, or a matrix, from a comma-separated file.

    A NaN or infinite value is a DataError naming its 1-based data row
    and, for a matrix, its column.
    """
    shape = "column" if column else "matrix"
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: could not parse numeric {shape}: {exc}") from None
    if column and data.shape[1] != 1:
        raise DataError(f"{path}: expected a single column, got shape {data.shape}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = (int(i) for i in bad[0])
        where = f"row {row + 1}" if column else f"row {row + 1}, column {col + 1}"
        raise DataError(f"{path}: non-finite value {float(data[row, col])} at {where}")
    return data[:, 0] if column else data


def _positive_float_arg(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw!r}")
    return value


def _gaussian_bandwidth_arg(raw: str):
    return None if raw == "auto" else _positive_float_arg(raw)


def _sizes_arg(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None


def _add_pipeline_flags(parser) -> None:
    parser.add_argument(
        "--no-standardize",
        dest="standardize",
        action="store_false",
        help="build kernels on raw allele counts instead of column-standardized ones",
    )
    parser.set_defaults(standardize=True)
    parser.add_argument(
        "--gaussian-bandwidth",
        type=_gaussian_bandwidth_arg,
        default=None,
        metavar="auto|FLOAT",
        help="Gaussian kernel bandwidth; 'auto' means p/2 standardized, 1 raw",
    )


def _kernel_kinds(arg: str) -> tuple[str, ...]:
    return kernels.KERNEL_KINDS if arg == "all" else (arg,)


def cmd_simulate(args) -> int:
    if args.preset is not None:
        base, fields = harness.preset_config(args.preset), {}
    else:
        missing = [
            name
            for name, value in (
                ("--n-individuals", args.n_individuals),
                ("--n-snps", args.n_snps),
                ("--sigma-g", args.sigma_g),
                ("--family", args.family),
            )
            if value is None
        ]
        if missing:
            raise UsageError(f"missing {', '.join(missing)} (or use --preset)")
        base = harness.McConfig()
        fields = dict(
            population_size=args.n_individuals,
            snp_count=args.n_snps,
            sigma_g=args.sigma_g,
            sigma_eps=args.sigma_eps,
            family=args.family,
            sample_sizes=(args.n_individuals,),  # unused here; must fit the population
        )
    try:
        cfg = dataclasses.replace(base, population_seed=args.seed, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    source = None
    if cfg.scenario == "external":
        if args.genotypes is None:
            raise UsageError("this preset samples from real data; pass --genotypes")
        source = read_genotype_csv(args.genotypes)
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


def _load_inputs(args):
    """Phenotypes, design matrix and Gaussian bandwidth for estimate and diagnose."""
    genotypes = read_genotype_csv(args.genotypes)
    y = _read_numeric(args.phenotypes, column=True)
    if y.shape[0] != genotypes.n:
        raise DataError(
            f"phenotype length {y.shape[0]} does not match genotype rows {genotypes.n}"
        )
    design = kernels.design_matrix(genotypes, args.standardize)
    bandwidth = kernels.resolve_gaussian_bandwidth(
        args.gaussian_bandwidth, args.standardize, genotypes.p
    )
    return y, design, bandwidth


def _write_lines(lines, out) -> int:
    """Write report lines to ``out``, or to stdout when no path is given."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_estimate(args) -> int:
    y, design, bandwidth = _load_inputs(args)
    if args.covariates is not None:
        y = krr.residualize(y, _read_numeric(args.covariates, column=False))
    grid = tuple(args.nlambda) if args.nlambda else krr.DEFAULT_NLAMBDA_GRID

    lines = [krr.estimate_csv_header()]
    for kind in _kernel_kinds(args.kernel):
        kernel = kernels.make_kernel(kind, design, gaussian_bandwidth=bandwidth)
        for fit_res in krr.lambda_grid_fit(kernel, y, grid):
            lines.append(krr.estimate_csv_row(kind, fit_res))
    return _write_lines(lines, args.out)


def cmd_diagnose(args) -> int:
    y, design, bandwidth = _load_inputs(args)
    n = y.shape[0]
    kernel = kernels.make_kernel(args.kernel, design, gaussian_bandwidth=bandwidth)
    fit_res = krr.fit(kernel, y, args.nlambda)
    if args.true_g is not None:
        g = _read_numeric(args.true_g, column=True)
        if g.shape[0] != n:
            raise DataError(f"signal length {g.shape[0]} does not match genotype rows {n}")
        proxy = False
        resid = y - g
        sigma_eps2 = float(resid @ resid) / n
    else:
        g = fit_res.g_hat
        proxy = True
        sigma_eps2 = fit_res.sigma_eps2_hat

    cond = spectra.check_conditions(kernel, g, g_is_proxy=proxy)
    bound = spectra.bound_report(kernel, y, g, args.nlambda, sigma_eps2, cond)
    lines = [spectra.report_text(cond, bound).rstrip("\n")]
    tag = ".proxy" if proxy else ""
    try:
        p3 = spectra.prop3_check(kernel, g, args.nlambda, cond)
        lines.append(f"alignment_bound_lhs{tag}={p3.lhs!r}")
        lines.append(f"alignment_bound_rhs{tag}={p3.rhs!r}")
        lines.append(f"alignment_bound_holds{tag}={'true' if p3.holds else 'false'}")
    except ConditionNotMet as exc:
        lines.append(f"alignment_bound{tag}=refused: {exc}")
    lines.append(f"sigma_g2_hat={fit_res.sigma_g2_hat!r}")
    lines.append(f"sigma_eps2_hat={fit_res.sigma_eps2_hat!r}")
    lines.append(f"h2_hat={fit_res.h2_hat!r}")
    return _write_lines(lines, args.out)


def cmd_mc(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.config is not None:
        cfg = harness.read_config(args.config)
    elif args.preset is not None:
        cfg = harness.preset_config(args.preset)
    else:
        raise UsageError("pass --config FILE or --preset NAME")
    overrides = {}
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.kernels is not None:
        overrides["kernels"] = tuple(part.strip() for part in args.kernels.split(","))
    if args.nlambda:
        overrides["lambda_grid"] = tuple(args.nlambda)
    if args.sizes is not None:
        overrides["sample_sizes"] = args.sizes
    if args.population_seed is not None:
        overrides["population_seed"] = args.population_seed
    if args.sampling_seed is not None:
        overrides["sampling_seed"] = args.sampling_seed
    if args.out is not None:
        overrides["output_path"] = args.out
    try:
        cfg = dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cfg.output_path is None:
        raise UsageError("no output directory: pass --out or set output_path in the config")

    source = read_genotype_csv(args.genotypes) if args.genotypes is not None else None
    table = harness.run_mc(cfg, genotype_source=source, workers=args.workers)

    os.makedirs(cfg.output_path, exist_ok=True)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="kernherit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a genotype/phenotype population")
    p_sim.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    p_sim.add_argument("--n-individuals", type=int, default=None)
    p_sim.add_argument("--n-snps", type=int, default=None)
    p_sim.add_argument("--sigma-g", type=float, default=None)
    p_sim.add_argument("--sigma-eps", type=float, default=0.5)
    p_sim.add_argument("--family", choices=phenosim.FAMILIES, default=None)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--genotypes", default=None, help="source matrix for external presets")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate heritability from files")
    p_est.add_argument("--genotypes", required=True)
    p_est.add_argument("--phenotypes", required=True)
    p_est.add_argument("--covariates", default=None)
    p_est.add_argument("--kernel", choices=kernels.KERNEL_KINDS + ("all",), default="all")
    p_est.add_argument(
        "--nlambda", type=_positive_float_arg, action="append", default=None,
        help="regularization strength n*lambda (repeatable; default: stock grid)",
    )
    _add_pipeline_flags(p_est)
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="spectral condition and bound report")
    p_diag.add_argument("--genotypes", required=True)
    p_diag.add_argument("--phenotypes", required=True)
    p_diag.add_argument("--kernel", choices=kernels.KERNEL_KINDS, required=True)
    p_diag.add_argument("--nlambda", type=_positive_float_arg, required=True)
    p_diag.add_argument("--true-g", default=None, help="signal values from simulation")
    _add_pipeline_flags(p_diag)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo harness")
    p_mc.add_argument("--config", default=None)
    p_mc.add_argument("--preset", default=None)
    p_mc.add_argument("--genotypes", default=None, help="matrix for the external scenario")
    p_mc.add_argument("--reps", type=int, default=None)
    p_mc.add_argument("--kernels", default=None, help="comma-separated kernel kinds")
    p_mc.add_argument("--nlambda", type=_positive_float_arg, action="append", default=None)
    p_mc.add_argument("--sizes", type=_sizes_arg, default=None, help="comma-separated sample sizes")
    p_mc.add_argument("--population-seed", type=int, default=None)
    p_mc.add_argument("--sampling-seed", type=int, default=None)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.add_argument("--out", default=None, help="output directory")
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
    except (DataError, ValueError) as exc:
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
