"""kernherit benchmark: run one workload as a user would and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

From the root of a checkout. Inputs come from ``--seed``; outputs are
checked against an independent reference (``oracle.py``). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` runs each command of the workload as ``python -m
kernherit.cli`` in a fresh process, repeatedly for ``--seconds``, and
reports the end-to-end metrics (medians over those runs). ``--trace 1``
runs the same commands in this process through ``kernherit.cli.main``,
alternating traced and untraced runs, and reports the per-layer metrics
from the spans that ``spans.py`` records. Why each workload and metric
was chosen is in RATIONALE.md.

BLAS thread variables are passed through to the workload as inherited:
pinning them would hide the oversubscription of the parallel harness.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The paper's candidacy grid, which ``estimate`` sweeps by default.
STOCK_GRID = (0.1, 0.5, 0.8, 1.0, 1.3, 1.5, 2.0, 2.3, 2.5, 3.0, 5.0)
KERNEL_KINDS = ("linear", "poly2", "gaussian")

# The ``files`` fixture: a 1000 Genomes sized matrix (1092 individuals)
# with more SNPs than individuals.
FILES_N, FILES_P, FILES_SIGMA_G = 1092, 1500, 0.01
DIAGNOSE_KERNEL, DIAGNOSE_NLAMBDA = "poly2", 2.3

IMPORT_PROBES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None = None  # None: the ``files`` workload
    reps: int | None = None  # None: the preset's repetitions
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-desk", preset="desk"),
        Workload("mc-desk-w2", preset="desk", workers=2),
        Workload("mc-low", preset="hwe-linear-low", reps=2),
        Workload("files"),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "genotypes.read_csv_s": "s",
    "genotypes.read_csv_mb_per_s": "MB/s",
    "genotypes.standardize_s": "s",
    "genotypes.standardize_calls": "count",
    "genotypes.subsample_s": "s",
    "phenosim.build_population_s": "s",
    "kernels.build_s": "s",
    "kernels.build_calls": "count",
    "kernels.gram_gflop": "GFLOP",
    "matrixcore.eigh_s": "s",
    "matrixcore.eigh_calls": "count",
    "matrixcore.eigh_lapack_s": "s",
    "matrixcore.eigh_verify_s": "s",
    "matrixcore.eigh_n3": "count",
    "matrixcore.cholesky_s": "s",
    "matrixcore.cholesky_calls": "count",
    "krr.sweep_s": "s",
    "krr.fit_s": "s",
    "krr.fit_calls": "count",
    "spectra.conditions_s": "s",
    "spectra.bounds_s": "s",
    "harness.requested_reps": "count",
    "harness.unique_rows": "count",
    "harness.dedup_ratio": "ratio",
    "harness.self_s": "s",
    "harness.workers_cpu_s": "s",
    "harness.cpu_per_wall": "s/s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Workload cases: the commands to run, their inputs and their checks.


class McCase:
    """``kernherit mc`` on a preset; the output is ``table.csv``."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        from kernherit import harness

        self.out = work / "mc"
        preset = harness.preset_config(wl.preset)
        self.cfg = cfg = dataclasses.replace(
            preset,
            population_seed=seed,
            sampling_seed=seed + 1,
            repetitions=wl.reps or preset.repetitions,
        )
        base = ["mc", "--preset", wl.preset, "--population-seed", str(seed),
                "--sampling-seed", str(seed + 1)]
        if wl.reps:
            base += ["--reps", str(wl.reps)]
        self.commands = [[*base, "--workers", str(wl.workers), "--out", str(self.out)]]
        self.estimates = (
            len(cfg.kernels) * len(cfg.lambda_grid) * len(cfg.sample_sizes) * cfg.repetitions
        )
        self.probe = ["mc", wl.preset, str(seed)]
        population = harness.build_mc_population(cfg)
        self.true_h2 = population.true_h2
        self.reference = oracle.mc_reference(cfg, population)
        # A parallel table must be byte-identical to the serial one.
        self.serial_table = None
        if wl.workers > 1:
            serial = work / "serial"
            ok = run_cli([*base, "--out", str(serial)], work / "serial.log")[0] == 0
            self.serial_table = (serial / "table.csv").read_text() if ok else ""
        self._checked: dict[str, int] = {}

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self) -> tuple[int, list[str]]:
        try:
            text = (self.out / "table.csv").read_text()
        except OSError as exc:
            return self.estimates, [f"no table: {exc}"]
        if text not in self._checked:
            failed = oracle.check_mc_table(text, self.cfg, self.reference, self.true_h2)
            if self.serial_table is not None and text != self.serial_table:
                failed = self.estimates
            self._checked[text] = failed
        failed = self._checked[text]
        return failed, [f"table.csv: {failed} estimates failed the check"] if failed else []


class FilesCase:
    """``estimate --kernel all`` then ``diagnose`` on simulated CSV files."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        import numpy as np

        from kernherit import (
            MafLaw,
            SimulationSpec,
            build_population,
            export_population,
            simulate_hwe,
            write_genotype_csv,
        )

        geno_seed, pheno_seed = np.random.SeedSequence(seed).generate_state(2)
        genotypes = simulate_hwe(FILES_N, FILES_P, MafLaw(), seed=int(geno_seed))
        spec = SimulationSpec(
            n_individuals=FILES_N, n_snps=FILES_P, sigma_g=FILES_SIGMA_G,
            family="linear", seed=int(pheno_seed),
        )
        population = build_population(spec, genotypes)
        geno = work / "pop.genotypes.csv"
        write_genotype_csv(genotypes, geno)
        paths = export_population(population, spec, work / "pop")
        self.est, self.diag = work / "estimate.csv", work / "diagnose.txt"
        inputs = ["--genotypes", str(geno), "--phenotypes", paths["phenotypes"]]
        self.commands = [
            ["estimate", *inputs, "--kernel", "all", "--out", str(self.est)],
            ["diagnose", *inputs, "--kernel", DIAGNOSE_KERNEL, "--nlambda",
             str(DIAGNOSE_NLAMBDA), "--true-g", paths["gvalues"], "--out", str(self.diag)],
        ]
        self.reference = oracle.estimates(
            oracle.standardize(genotypes.data), population.phenotypes, KERNEL_KINDS, STOCK_GRID
        )
        self.estimates = len(self.reference) + 1
        self.probe = ["files", str(geno), paths["phenotypes"]]

    def clear(self) -> None:
        for path in (self.est, self.diag):
            path.unlink(missing_ok=True)

    def check(self) -> tuple[int, list[str]]:
        key = (DIAGNOSE_KERNEL, DIAGNOSE_NLAMBDA)
        try:
            failed, h2_read = oracle.check_estimate(self.est.read_text(), self.reference)
        except OSError as exc:
            failed, h2_read = len(self.reference), {}
            notes = [f"no estimate output: {exc}"]
        else:
            notes = [f"estimate: {failed} rows failed the check"] if failed else []
        try:
            diag_failed = oracle.check_diagnose(
                self.diag.read_text(), self.reference[key], h2_read.get(key)
            )
        except OSError as exc:
            diag_failed = 1
            notes.append(f"no diagnose output: {exc}")
        if diag_failed:
            notes.append("diagnose: h2 disagrees with the reference or with estimate")
        return failed + diag_failed, notes


def make_case(wl: Workload, seed: int, work: Path):
    return McCase(wl, seed, work) if wl.preset else FilesCase(wl, seed, work)


# ---------------------------------------------------------------------------
# Processes.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run to completion: (exit code, wall s, CPU s, peak RSS MB).

    CPU and peak RSS cover the process and every descendant it waited
    for, such as pool workers.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


def run_cli(argv: list[str], log: Path):
    return run_process([sys.executable, "-m", "kernherit.cli", *argv], log)


def run_probe(argv: list[str], log: Path) -> tuple[float, float]:
    """(launch-to-exit seconds, import seconds) of one set-up probe."""
    code, wall, _, _ = run_process([sys.executable, str(HERE / "setup_probe.py"), *argv], log)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}: {log.read_text()}")
    return wall, float(log.read_text().split()[-1])


# ---------------------------------------------------------------------------
# Runs.


def end_to_end(case, work: Path, seconds: float):
    """Fresh-process runs of the workload for ``seconds``; medians.

    Each iteration runs one set-up probe and then the workload, so that
    set-up time is sampled across the whole run and each iteration's
    fit time (wall minus set-up) pairs two measurements taken together.
    """
    samples, attempted, failed, notes = [], 0, 0, []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        setup = run_probe(case.probe, work / "probe.log")[0]
        case.clear()
        wall = cpu = rss = 0.0
        codes = []
        for i, argv in enumerate(case.commands):
            code, w, c, r = run_cli(argv, work / f"cmd{i}.log")
            codes.append(code)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        attempted += case.estimates
        if any(codes):
            failed += case.estimates
            notes.append(f"exit codes {codes}")
        else:
            bad, why = case.check()
            failed += bad
            notes.extend(why)
        samples.append({
            "wall_s": wall, "setup_s": setup, "cpu_s": cpu, "peak_rss_mb": rss,
            "estimates_per_s": case.estimates / (wall - setup),
        })
    metrics = {
        name: statistics.median(s[name] for s in samples)
        for name in ("wall_s", "setup_s", "estimates_per_s", "cpu_s", "peak_rss_mb")
    }
    metrics["success_rate"] = 1.0 - failed / attempted
    details = {"samples": samples, "error_rate": failed / attempted}
    return metrics, attempted, failed, notes, details


def run_in_process(case, tracer=None) -> tuple[float, int]:
    """Run every command through ``cli.main``: (wall s, failed estimates)."""
    from kernherit import cli

    case.clear()
    codes = []
    t0 = time.perf_counter()
    for argv in case.commands:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # noqa: BLE001 - reported as failed estimates
                print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
                codes.append(-1)
    wall = time.perf_counter() - t0
    if any(codes):
        return wall, case.estimates
    return wall, case.check()[0]


def per_layer(case, work: Path, seconds: float):
    """Alternate traced and untraced in-process runs for ``seconds``."""
    imports = [run_probe(case.probe, work / "probe.log")[1] for _ in range(IMPORT_PROBES)]
    spill = work / "spill"
    spill.mkdir()
    attempted, failed, notes = case.estimates, run_in_process(case)[1], []  # warm-up
    traced_walls, plain_walls, runs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < 2 or time.perf_counter() < deadline:
        tracer = tracing.Tracer(spill)
        with tracer.patch():
            wall, bad = run_in_process(case, tracer)
        traced_walls.append(wall)
        runs.append(tracer.collect())
        plain_wall, plain_bad = run_in_process(case)
        plain_walls.append(plain_wall)
        attempted += 2 * case.estimates
        failed += bad + plain_bad
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)

    home = os.getpid()
    per_run = [tracing.layer_metrics(s, home) for s in runs]
    metrics = {"cli.import_s": statistics.median(imports)}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                notes.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = overhead

    # Self times must add up to each command's span and each run_mc span.
    worst = 0.0
    for spans in runs:
        selfs = tracing.self_times(spans)
        for s in spans:
            if s["pid"] == home and (s["parent"] is None or s["name"] == "harness.run_mc"):
                worst = max(worst, tracing.subtree_self_gap(spans, s, selfs))
    if worst > max(abs(overhead), 1e-6):
        notes.append(f"self times miss their root span by {worst:.3g} s")
    details = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls,
               "self_time_gap_s": worst, "spans": runs[-1]}
    return metrics, attempted, failed, notes, details


# ---------------------------------------------------------------------------
# Environment record.


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kernherit" / "__init__.py").is_file():
        print(f"kernherit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-s{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case = make_case(wl, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, notes, details = measure(case, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    env = environment()
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "notes": notes,
        "metrics": metrics, **{k: v for k, v in details.items() if k != "spans"},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in details:
        with open(results / f"{tag}.spans.jsonl", "w") as fh:
            for span in details["spans"]:
                fh.write(json.dumps(span) + "\n")

    for note in notes:
        print(f"note: {note}")
    print(f"environment: {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'error_rate':30s} {details['error_rate']:14.6g} share")
    correct = failed == 0 and not notes
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
