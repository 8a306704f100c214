"""Contracts the package keeps with code outside it.

``perfbench/spans.py`` wraps layer functions by looking them up in their
owners' ``__dict__``; a rename under ``src/`` would break its traced run
without failing anything else, and so would a kernel input whose
shape it cannot read, or a CLI path that stops calling a wrapped
function through its module. The benchmark must run and pass its
independent oracle's check on the smallest workload and on the one that
fits every kernel at n = 1092 and runs the diagnostics; its traced run
must report every declared layer, the genotype read among them. The CLI
must also start without scipy, which the package no longer depends on at
run time, and without ``spectra``, which only ``diagnose`` uses.
Every walkthrough in ``demos/`` must still run against the package, and
every name the package exports must resolve. The README's table of
settings flags must list exactly the flags the CLI parses as config keys.
No module but ``genotypes`` opens, reads or writes a file.
"""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kernherit
from kernherit import kernels
from kernherit.genotypes import simulate_hwe

REPO = Path(__file__).resolve().parents[1]


def _load_spans():
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layer_targets_exist():
    for owner, attr, name, _ in _load_spans().layer_targets():
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"


@pytest.mark.parametrize(
    "kinds, grid",
    [(["gaussian"], ["0.001"]), (["gaussian"], ["50"]), (["linear", "gaussian"], ["0.001", "50"])],
    ids=["0.001", "50", "two-kernels-two-nlambda"],
)
def test_diagnose_calls_each_spectra_layer_once_through_the_module(monkeypatch, kinds, grid):
    """The ``spectra.*`` per-layer metrics time these three module attributes,
    once per (kernel, nlambda); ``harness.make_kernel`` and
    ``harness.lambda_grid_fit`` run once per kernel, and ``krr.fit`` never."""
    from kernherit import cli, harness, krr, spectra

    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    names = ("check_conditions", "bound_report", "prop3_check")
    for name in names:
        counted(spectra, name)
    counted(harness, "make_kernel")
    counted(harness, "lambda_grid_fit")
    counted(krr, "fit")
    data = REPO / "tests" / "data"
    settings = [item for kind in kinds for item in ("--kernel", kind)]
    settings += [item for nlambda in grid for item in ("--nlambda", nlambda)]
    code = cli.main([
        "diagnose", "--genotypes", str(data / "fixture.genotypes.csv"),
        "--phenotypes", str(data / "fixture.phenotypes.csv"), *settings,
        "--true-g", str(data / "fixture.gvalues.csv"), "--out", os.devnull,
    ])
    assert code == 0
    pairs = len(kinds) * len(grid)
    assert Counter(calls) == {
        **dict.fromkeys(names, pairs), "make_kernel": len(kinds), "lambda_grid_fit": len(kinds),
    }


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "stand_in_pool"])
def test_mc_calls_each_traced_layer_once_per_row_set(monkeypatch, workers):
    """``harness.unique_rows`` counts ``harness._rep_estimates`` spans, and
    ``kernels.build_calls`` counts ``harness.make_kernel(kind, design)``
    spans: one per unique row set, and one per row set and kernel, each
    followed by one ``harness.lambda_grid_fit`` of that kernel."""
    from kernherit import harness

    log = []

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            log.append((name, args, kwargs))
            return original(*args, **kwargs)

        return wrapper

    class InProcessPool:
        """A stand-in pool that maps in process, so the wrappers see every call."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    for name in ("_rep_estimates", "make_kernel", "lambda_grid_fit"):
        monkeypatch.setattr(harness, name, counted(name))
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = harness.McConfig(
        kernels=("linear", "gaussian"), lambda_grid=(1.0, 2.0), sample_sizes=(20, 30),
        repetitions=3, population_size=30, snp_count=8, sigma_g=0.1,
    )
    harness.run_mc(cfg, workers=workers)
    seeds = harness.derive_sampling_seeds(cfg.sampling_seed, 2, 3)
    rows = {
        harness.subsample_indices(30, n, seed=int(seed)).tobytes()
        for n, row in zip(cfg.sample_sizes, seeds)
        for seed in row
    }
    assert len(rows) == 4  # three at n = 20, and the whole population once
    per_row_set = ["_rep_estimates"] + ["make_kernel", "lambda_grid_fit"] * len(cfg.kernels)
    assert [name for name, _, _ in log] == per_row_set * len(rows)
    reps = [args for name, args, _ in log if name == "_rep_estimates"]
    assert sorted(args[-1].tobytes() for args in reps) == sorted(rows)
    builds = [(args, kwargs) for name, args, kwargs in log if name == "make_kernel"]
    assert all(len(args) == 2 and not kwargs for args, kwargs in builds)
    assert all(isinstance(args[1], kernels.Design) for args, _ in builds)
    assert [args[0] for args, _ in builds] == list(cfg.kernels) * len(rows)


@pytest.mark.parametrize("standardize", [True, False])
def test_design_has_the_shape_the_bench_reads(standardize):
    """``spans._design`` sizes a kernel span by ``np.shape`` of its input."""
    g = simulate_hwe(9, 4, seed=0)
    design = kernels.design_matrix(g, standardize)
    assert np.shape(design) == (g.n, g.p)
    assert _load_spans()._design("linear", design) == {"n": g.n, "p": g.p}
    for kind in kernels.KERNEL_KINDS:
        assert kernels.make_kernel(kind, design).n == g.n


@pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
def test_kernel_matrix_has_the_order_the_bench_reads(kind):
    """``spans._order`` sizes an ``eigh`` span by the plain kernel array it gets."""
    k = kernels.make_kernel(kind, kernels.design_matrix(simulate_hwe(9, 4, seed=0), False))
    assert _load_spans()._order(k.matrix) == {"n": k.n}


def _package_env() -> dict:
    src = str(Path(kernherit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as the pytest settings
    return env


def test_export_list_resolves():
    assert len(set(kernherit.__all__)) == len(kernherit.__all__)
    missing = [name for name in kernherit.__all__ if not hasattr(kernherit, name)]
    assert missing == []
    namespace = {}
    exec("from kernherit import *", namespace)
    assert set(kernherit.__all__) <= namespace.keys()


def test_readme_flag_table_is_the_cli_flag_tables():
    """Each (command, flag, config key) row of the README's settings-flag table
    is in a CLI flag table and declared by the parser, and vice versa."""
    from kernherit import cli, harness

    readme = (REPO / "README.md").read_text()
    documented = re.findall(r"^\| `(\w+)` \| `(--[\w-]+)` \| `(\w+)` \|$", readme, re.M)
    assert len(documented) == len(set(documented))
    tables = {
        "simulate": cli._SIMULATE_FIELD_FLAGS,
        "estimate": cli._FILE_FIELD_FLAGS,
        "diagnose": cli._FILE_FIELD_FLAGS,
        "mc": cli._MC_FIELD_FLAGS,
    }
    declared = {
        (command, flag, field)
        for command, flags in tables.items()
        for flag, (field, _) in flags.items()
    }
    assert set(documented) == declared
    commands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        (command, flag, action.dest)
        for command, parser in commands.items()
        for action in parser._actions
        if action.dest in harness.FIELD_CODECS and action.dest != "standardize"
        for flag in action.option_strings
    }
    assert parsed == declared


def test_only_genotypes_touches_files():
    """Every file kernherit reads or writes goes through ``genotypes``, whose
    reader and writer hold the rules of every input and output file."""
    # "open(" also finds os.open, io.open and gzip.open.
    calls = ("open(", "gzip.", "np.loadtxt", "np.savetxt", ".read_text(", ".write_text(")
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted((REPO / "src" / "kernherit").glob("*.py"))
        if path.name != "genotypes.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if any(call in line for call in calls)
    ]
    assert found == []


def test_cli_import_does_not_load_scipy():
    code = "import sys, kernherit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_spectra():
    """Only ``diagnose`` needs ``spectra``; it is imported when first used."""
    code = (
        "import sys, kernherit.cli; print('kernherit.spectra' in sys.modules)\n"
        "print(kernherit.check_conditions.__module__, 'kernherit.spectra' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["False", "kernherit.spectra True"]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path, env=_package_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "workload,trace", [("mc-desk", 0), ("files", 0), ("files", 1)],
    ids=["mc-desk", "files", "files-traced"],
)
def test_bench_smoke_run(workload, trace):
    """A traced run must also see the genotype read through ``cli``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in metrics} <= set(result["metrics"])
    if trace:
        assert result["metrics"]["genotypes.read_csv_s"]["value"] > 0
