"""Span tracing of kernherit's layers, applied from outside the package.

``Tracer.patch`` replaces each layer function at the module (or class)
attribute its caller looks up with a wrapper that records a span: name,
start, end, parent span and process id, plus size attributes from which
work counts are computed. Spans are kept in memory. Forked pool workers
inherit the wrappers; each appends its spans to a file when its
top-level span ends, because a pool worker has no exit hook, and the
parent reads them back. ``layer_metrics`` turns the spans of one run
into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _order(a, *args, **kwargs):
    return {"n": int(np.shape(getattr(a, "data", a))[0])}


def _design(kind, x, *args, **kwargs):
    n, p = np.shape(x)
    return {"n": int(n), "p": int(p)}


def _file_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def layer_targets():
    """(owner, attribute, span name, size attributes) for every traced call."""
    from kernherit import cli, genotypes, harness, kernels, krr, matrixcore, spectra

    return [
        (cli, "read_genotype_csv", "genotypes.read_csv", _file_bytes),
        (genotypes.GenotypeMatrix, "__post_init__", "genotypes.validate", None),
        (genotypes.GenotypeMatrix, "standardized", "genotypes.standardize", None),
        (harness, "subsample_indices", "genotypes.subsample_indices", None),
        (harness, "build_mc_population", "phenosim.build_population", None),
        (harness, "make_kernel", "kernels.make_kernel", _design),
        (kernels, "make_kernel", "kernels.make_kernel", _design),
        (matrixcore, "eigh", "matrixcore.eigh", _order),
        (np.linalg, "eigh", "numpy.linalg.eigh", _order),
        (matrixcore, "solve_spd_shifted", "matrixcore.cholesky", _order),
        (harness, "lambda_grid_fit", "krr.lambda_grid_fit", None),
        (krr, "lambda_grid_fit", "krr.lambda_grid_fit", None),
        (krr, "fit", "krr.fit", None),
        (spectra, "check_conditions", "spectra.check_conditions", None),
        (spectra, "bound_report", "spectra.bound_report", None),
        (spectra, "prop3_check", "spectra.prop3_check", None),
        (harness, "run_mc", "harness.run_mc", None),
        (harness, "_rep_estimates", "harness.rep_estimates", None),
    ]


# Spans whose process CPU time (own and reaped children) is recorded.
_CPU_SPANS = ("harness.run_mc",)


class Tracer:
    """Collects spans in memory while its patches are applied."""

    def __init__(self, spill_dir: Path):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._home_pid = os.getpid()
        self._spill_dir = spill_dir
        self._active = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        if self._active:  # a worker starts with no spans and no open parent
            self.spans, self._stack = [], []

    def _open(self, name: str) -> dict:
        stack = self._stack
        span = {
            "id": self._next_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "pid": os.getpid(),
        }
        self._next_id += 1
        stack.append(span)
        if name in _CPU_SPANS:
            span["_times"] = os.times()
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack.pop()
        before = span.pop("_times", None)
        if before is not None:
            after = os.times()
            span["cpu_s"] = (after.user + after.system) - (before.user + before.system)
            span["children_cpu_s"] = (after.children_user + after.children_system) - (
                before.children_user + before.children_system
            )
        self.spans.append(span)
        if not self._stack and span["pid"] != self._home_pid:
            self._spill()

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sizes = attrs(*args, **kwargs) if attrs is not None else None
            span = self._open(name)
            if sizes:
                span.update(sizes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _spill(self) -> None:
        with open(self._spill_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    @contextlib.contextmanager
    def patch(self):
        """Apply every wrapper, collect spans, and restore the originals."""
        saved = []
        for owner, attr, name, attrs in layer_targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one CLI command."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def collect(self) -> list[dict]:
        """This process's spans plus those spilled by workers, sorted by start."""
        spans = list(self.spans)
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return sorted(spans, key=lambda s: s["t0"])


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append(s)
    out = {}
    for s in spans:
        covered, reached = 0.0, s["t0"]
        for c in sorted(children[(s["pid"], s["id"])], key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], reached), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                reached = hi
        out[(s["pid"], s["id"])] = (s["t1"] - s["t0"]) - covered
    return out


def subtree_self_gap(spans: list[dict], root: dict, selfs) -> float:
    """|sum of self times over ``root``'s subtree - ``root``'s duration|.

    Zero up to rounding when every child lies inside its parent and no
    two siblings overlap, which is what a consistent trace looks like.
    """
    children = defaultdict(list)
    for s in spans:
        if s["pid"] == root["pid"] and s["parent"] is not None:
            children[s["parent"]].append(s)
    total, todo = 0.0, [root]
    while todo:
        s = todo.pop()
        total += selfs[(s["pid"], s["id"])]
        todo.extend(children[s["id"]])
    return abs(total - (root["t1"] - root["t0"]))


# Per-layer metrics whose values are counts of work, which must repeat
# exactly between two traced runs with one seed.
COUNT_METRICS = (
    "genotypes.standardize_calls",
    "kernels.build_calls",
    "kernels.gram_gflop",
    "matrixcore.eigh_calls",
    "matrixcore.eigh_n3",
    "matrixcore.cholesky_calls",
    "krr.fit_calls",
    "harness.requested_reps",
    "harness.unique_rows",
    "harness.dedup_ratio",
)


def layer_metrics(spans: list[dict], home_pid: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0."""
    by_id = {(s["pid"], s["id"]): s for s in spans}
    selfs = self_times(spans)

    def parent_name(s):
        parent = by_id.get((s["pid"], s["parent"]))
        return parent["name"] if parent else None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(items):
        return sum(s["t1"] - s["t0"] for s in items)

    def self_of(items):
        return sum(selfs[(s["pid"], s["id"])] for s in items)

    reads = named("genotypes.read_csv")
    kernels = named("kernels.make_kernel")
    eighs = named("matrixcore.eigh")
    sweeps = named("krr.lambda_grid_fit")
    runs = [s for s in named("harness.run_mc") if s["pid"] == home_pid]
    requested = len(named("genotypes.subsample_indices"))
    unique = len(named("harness.rep_estimates"))
    run_wall = dur(runs)
    run_cpu = sum(s["cpu_s"] + s["children_cpu_s"] for s in runs)
    read_s = dur(reads)
    return {
        "genotypes.read_csv_s": read_s,
        "genotypes.read_csv_mb_per_s": (
            sum(s["bytes"] for s in reads) / 1e6 / read_s if read_s > 0 else 0.0
        ),
        "genotypes.standardize_s": dur(named("genotypes.standardize")),
        "genotypes.standardize_calls": len(named("genotypes.standardize")),
        "genotypes.subsample_s": dur(named("genotypes.subsample_indices")) + dur(
            s for s in named("genotypes.validate") if parent_name(s) == "harness.rep_estimates"
        ),
        "phenosim.build_population_s": dur(named("phenosim.build_population")),
        "kernels.build_s": self_of(kernels),
        "kernels.build_calls": len(kernels),
        "kernels.gram_gflop": sum(2.0 * s["n"] ** 2 * s["p"] for s in kernels) / 1e9,
        "matrixcore.eigh_s": dur(eighs),
        "matrixcore.eigh_calls": len(eighs),
        "matrixcore.eigh_lapack_s": dur(
            s for s in named("numpy.linalg.eigh") if parent_name(s) == "matrixcore.eigh"
        ),
        "matrixcore.eigh_verify_s": self_of(eighs),
        "matrixcore.eigh_n3": float(sum(s["n"] ** 3 for s in eighs)),
        "matrixcore.cholesky_s": dur(named("matrixcore.cholesky")),
        "matrixcore.cholesky_calls": len(named("matrixcore.cholesky")),
        "krr.sweep_s": dur(sweeps) - dur(
            s for s in eighs if parent_name(s) == "krr.lambda_grid_fit"
        ),
        "krr.fit_s": dur(named("krr.fit")),
        "krr.fit_calls": len(named("krr.fit")),
        "spectra.conditions_s": dur(named("spectra.check_conditions")),
        "spectra.bounds_s": dur(named("spectra.bound_report")) + dur(named("spectra.prop3_check")),
        "harness.requested_reps": requested,
        "harness.unique_rows": unique,
        "harness.dedup_ratio": unique / requested if requested else 0.0,
        "harness.self_s": self_of(runs),
        "harness.workers_cpu_s": sum(s["children_cpu_s"] for s in runs),
        "harness.cpu_per_wall": run_cpu / run_wall if run_wall > 0 else 0.0,
    }
