"""Independent reference for the benchmark's correctness checks.

The estimator is recomputed here from its definition, without any of
kernherit's estimation code: column standardization, the three kernel
formulas, one dense ``numpy.linalg.solve`` of (K + nlambda*I) alpha = y
per grid point, and the variance components

    sigma_g2 = sample variance of K alpha (divisor n-1)
    sigma_eps2 = ||y - K alpha||^2 / n
    h2 = sigma_g2 / (sigma_g2 + sigma_eps2).

Only the inputs are produced with kernherit (the population, through
its public simulation functions), and the Monte Carlo seed discipline is
re-derived from its documented definition. Every check returns the
number of attempted estimates that failed it, so no failure is skipped.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute agreement required between an output and the reference.
TOL = 1e-10


def standardize(genotypes: np.ndarray) -> np.ndarray:
    z = genotypes.astype(np.float64)
    sd = z.std(axis=0)
    return (z - z.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)


def kernel(kind: str, z: np.ndarray, bandwidth: float) -> np.ndarray:
    p = z.shape[1]
    cross = z @ z.T
    cross = (cross + cross.T) / 2.0
    if kind == "linear":
        return cross / p
    if kind == "poly2":
        return (1.0 + cross / p) ** 2
    if kind == "gaussian":
        sq = np.diag(cross)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * cross, 0.0)
        np.fill_diagonal(d2, 0.0)
        return np.exp(-0.5 * d2 / bandwidth)
    raise ValueError(f"unknown kernel {kind!r}")


def ridge_estimate(k: np.ndarray, y: np.ndarray, nlambda: float) -> tuple[float, float, float]:
    """(sigma_g2, sigma_eps2, h2) by a dense solve of the shifted system."""
    n = k.shape[0]
    alpha = np.linalg.solve(k + nlambda * np.eye(n), y)
    g = k @ alpha
    resid = y - g
    sigma_eps2 = float(resid @ resid) / n
    sigma_g2 = float(np.var(g, ddof=1))
    return sigma_g2, sigma_eps2, sigma_g2 / (sigma_g2 + sigma_eps2)


def estimates(z: np.ndarray, y: np.ndarray, kinds, grid) -> dict[tuple[str, float], tuple]:
    """Reference estimates keyed by (kernel kind, nlambda); bandwidth p/2."""
    out = {}
    for kind in kinds:
        k = kernel(kind, z, z.shape[1] / 2.0)
        for nlam in grid:
            out[(kind, float(nlam))] = ridge_estimate(k, y, nlam)
    return out


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= TOL


# ---------------------------------------------------------------------------
# Monte Carlo tables.


def mc_reference(cfg, population) -> dict[tuple[str, float, int], tuple[float, float]]:
    """Per-cell (mean, sd) of h2 over every requested repetition.

    Row sets follow the documented seed discipline: the seeds are
    ``SeedSequence(sampling_seed).generate_state(sizes * reps)`` reshaped
    to (sizes, reps), and each draws sorted rows without replacement.
    Repetitions are recomputed even when their row sets repeat, so the
    program's sharing of identical row sets is checked too.
    """
    seeds = np.random.SeedSequence(cfg.sampling_seed).generate_state(
        len(cfg.sample_sizes) * cfg.repetitions, dtype=np.uint64
    ).reshape(len(cfg.sample_sizes), cfg.repetitions)
    genotypes = population.genotypes.data
    cells: dict[tuple[str, float, int], list[float]] = {}
    for i, n in enumerate(cfg.sample_sizes):
        for r in range(cfg.repetitions):
            rng = np.random.default_rng(int(seeds[i, r]))
            rows = np.sort(rng.choice(cfg.population_size, size=n, replace=False))
            ests = estimates(
                standardize(genotypes[rows]), population.phenotypes[rows],
                cfg.kernels, cfg.lambda_grid,
            )
            for (kind, nlam), (_, _, h2) in ests.items():
                cells.setdefault((kind, nlam, int(n)), []).append(h2)
    return {
        key: (float(np.mean(v)), float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
        for key, v in cells.items()
    }


def check_mc_table(text: str, cfg, reference, true_h2: float) -> int:
    """Failed estimates in a ``table.csv``: each cell stands for ``reps`` of them."""
    reps = cfg.repetitions
    lines = text.splitlines()
    if not lines or lines[0] != "kernel,nlambda,n,mean,sd,reps,true_h2,excluded":
        return len(reference) * reps
    seen = set()
    failed = 0
    for line in lines[1:]:
        fields = line.split(",")
        try:
            kind, nlam, n = fields[0], float(fields[1]), int(fields[2])
            mean, sd, cell_reps = float(fields[3]), float(fields[4]), int(fields[5])
            cell_true, excluded = float(fields[6]), int(fields[7])
        except (IndexError, ValueError):
            continue
        key = (kind, nlam, n)
        if key not in reference or key in seen:
            continue
        seen.add(key)
        ref_mean, ref_sd = reference[key]
        ok = (
            cell_reps == reps
            and _close(mean, ref_mean)
            and _close(sd, ref_sd)
            and _close(cell_true, true_h2)
        )
        failed += reps if not ok else min(excluded, reps)
    failed += (len(reference) - len(seen)) * reps
    return failed


# ---------------------------------------------------------------------------
# ``estimate`` and ``diagnose`` outputs.


def check_estimate(text: str, reference) -> tuple[int, dict[tuple[str, float], float]]:
    """Failed rows of an ``estimate`` CSV, and the h2 of each row read."""
    lines = text.splitlines()
    if not lines or lines[0] != "kernel,nlambda,n,sigma_g2,sigma_eps2,h2":
        return len(reference), {}
    h2_read = {}
    failed = 0
    for line in lines[1:]:
        fields = line.split(",")
        try:
            key = (fields[0], float(fields[1]))
            sg2, se2, h2 = float(fields[3]), float(fields[4]), float(fields[5])
        except (IndexError, ValueError):  # includes h2 written as "undefined"
            continue
        if key not in reference or key in h2_read:
            continue
        h2_read[key] = h2
        ref = reference[key]
        if not (_close(sg2, ref[0]) and _close(se2, ref[1]) and _close(h2, ref[2])):
            failed += 1
    return failed + len(reference) - len(h2_read), h2_read


def check_diagnose(text: str, reference: tuple, estimate_h2: float | None) -> int:
    """1 if the ``diagnose`` estimate disagrees with the reference or with
    the ``estimate`` row for the same kernel and nlambda, else 0."""
    values = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    try:
        got = tuple(float(values[k]) for k in ("sigma_g2_hat", "sigma_eps2_hat", "h2_hat"))
    except (KeyError, ValueError):
        return 1
    ok = all(_close(a, b) for a, b in zip(got, reference))
    ok = ok and estimate_h2 is not None and _close(got[2], estimate_h2)
    return 0 if ok else 1
