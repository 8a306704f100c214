"""Acceptance suite: one test per exit criterion, in order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. Every tolerance is pinned here; nothing is deferred to later
calibration. Monte Carlo checks fix their seeds so the suite is fully
deterministic.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest
from scipy import stats

from kernherit import cli
from kernherit.genotypes import (
    GenotypeMatrix,
    MafLaw,
    hwe_probabilities,
    simulate_hwe,
    subsample_indices,
)
from kernherit.harness import (
    derive_population_seeds,
    derive_sampling_seeds,
    preset_config,
    run_mc,
)
from kernherit.kernels import KERNEL_KINDS, KernelMatrix, make_kernel
from kernherit.krr import DEFAULT_NLAMBDA_GRID, fit, lambda_grid_fit
from kernherit.matrixcore import eigh
from kernherit.phenosim import FAMILIES, SimulationSpec, build_population
from kernherit.spectra import (
    bound_report,
    check_conditions,
    decompose_terms,
    prop3_check,
    prop4_check,
)

from helpers import charpoly_roots, cramer_solve, random_symmetric, rel_err, symmetrize

SLACK = 1e-10


def _passed(num: int, detail: str) -> None:
    print(f"CRITERION {num} PASS: {detail}")


# ---------------------------------------------------------------------------
# Shared instance sets


@functools.lru_cache(maxsize=1)
def identity_instances():
    """200 random small instances with full-grid fits (criteria 1, 4, 8)."""
    rng = np.random.default_rng(20240)
    out = []
    for i in range(200):
        n = int(rng.integers(6, 61))
        p = int(rng.integers(2, 9))
        seeds = rng.integers(0, 2**63, size=2)
        genotypes = simulate_hwe(n, p, seed=int(seeds[0]))
        spec = SimulationSpec(
            n_individuals=n,
            n_snps=p,
            sigma_g=float(rng.uniform(0.1, 0.5)),
            sigma_eps=float(rng.uniform(0.2, 1.0)),
            family=FAMILIES[i % len(FAMILIES)],
            seed=int(seeds[1]),
        )
        pop = build_population(spec, genotypes)
        kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        kernel = make_kernel(kind, genotypes.standardized(), gaussian_bandwidth=p / 2.0)
        fits = lambda_grid_fit(kernel, pop.phenotypes, DEFAULT_NLAMBDA_GRID)
        out.append((kernel, pop, fits))
    return out


def _spiked_instance(rng: np.random.Generator):
    n = int(rng.integers(6, 17))
    a = np.ones(n) / np.sqrt(n) + 0.1 * rng.normal(size=n)
    a /= np.linalg.norm(a)
    noise = rng.normal(size=(n, n)) * 0.1
    k = symmetrize(5.0 * n * np.outer(a, a) + noise @ noise.T)
    g = 3.0 * np.sqrt(n) * a + 0.3 * rng.normal(size=n)
    y = g + 0.4 * rng.normal(size=n)
    return KernelMatrix(k), g, y


def _genotype_instance(rng: np.random.Generator):
    n = int(rng.integers(10, 21))
    p = int(rng.integers(3, 7))
    seeds = rng.integers(0, 2**63, size=2)
    genotypes = simulate_hwe(n, p, seed=int(seeds[0]))
    spec = SimulationSpec(
        n_individuals=n,
        n_snps=p,
        sigma_g=float(rng.uniform(0.2, 0.5)),
        family="linear",
        seed=int(seeds[1]),
    )
    pop = build_population(spec, genotypes)
    kernel = make_kernel("poly2", genotypes.standardized(), gaussian_bandwidth=p / 2.0)
    return kernel, pop.g_values, pop.phenotypes


@functools.lru_cache(maxsize=1)
def proposition_instances():
    """500 instances filtered to satisfy the alignment/gap preconditions."""
    rng = np.random.default_rng(20243)
    kept = []
    attempts = 0
    while len(kept) < 500 and attempts < 4000:
        attempts += 1
        if attempts % 2:
            kernel, g, y = _spiked_instance(rng)
        else:
            kernel, g, y = _genotype_instance(rng)
        report = check_conditions(kernel, g)
        if not report.conditions_met or not np.isfinite(report.lambda_threshold):
            continue
        nlam = max(1.01 * report.lambda_threshold, 0.5)
        kept.append((kernel, g, y, nlam, report))
    assert len(kept) == 500, f"only {len(kept)} passing instances in {attempts} attempts"
    return kept


@functools.lru_cache(maxsize=1)
def reproduction_tables():
    """Full-population runs of the stock low-dimensional linear setting.

    Five independent populations, all three kernels, nlambda = 2.3,
    n = N = 1000, 50 repetitions each (criteria 6 and 7).
    """
    base = preset_config("hwe-linear-low")
    results = []
    for seed in (1, 2, 3, 4, 5):
        cfg = dataclasses.replace(
            base,
            kernels=KERNEL_KINDS,
            lambda_grid=(2.3,),
            sample_sizes=(1000,),
            repetitions=50,
            population_seed=seed,
            sampling_seed=seed + 100,
        )
        table = run_mc(cfg)
        cells = {cell.kernel: cell for cell in table.rows}
        results.append((table.true_h2, cells))
    return results


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_algebraic_identities():
    start = time.monotonic()
    checked = 0
    for kernel, pop, fits in identity_instances():
        n = kernel.n
        k = kernel.matrix
        y = np.asarray(pop.phenotypes)
        cmat = np.eye(n) - np.ones((n, n)) / n
        for nlam, res in zip(DEFAULT_NLAMBDA_GRID, fits):
            m = np.linalg.inv(k + nlam * np.eye(n))
            spectral = nlam**2 * float(y @ m @ m @ y) / n
            assert rel_err(res.sigma_eps2_hat, spectral) <= 1e-10
            sandwich = float(res.alpha_hat @ k @ cmat @ k @ res.alpha_hat) / (n - 1)
            assert rel_err(res.sigma_g2_hat, sandwich) <= 1e-10
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, f"residual/spectral and variance identities on {checked} fits "
               f"(200 instances x 11 nlambda) in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20241)
    for case in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 6))
        genotypes = simulate_hwe(n, p, seed=int(rng.integers(0, 2**63)))
        kind = KERNEL_KINDS[case % len(KERNEL_KINDS)]
        kernel = make_kernel(kind, genotypes.standardized(), gaussian_bandwidth=p / 2.0)
        y = rng.normal(size=n) * 3.0
        nlam = float(rng.choice(DEFAULT_NLAMBDA_GRID))
        res = fit(kernel, y, nlam)
        expected = cramer_solve(kernel.matrix + nlam * np.eye(n), y)
        assert np.max(np.abs(res.alpha_hat - expected)) <= 1e-9

    for order in (3, 4):
        for case in range(25):
            a = random_symmetric(order, np.random.default_rng(1000 * order + case), scale=2.0)
            dec = eigh(a)
            assert np.max(np.abs(dec.eigenvalues - charpoly_roots(a))) <= 1e-8
    _passed(2, "ridge solve matches Cramer on 100 small systems; eigensolver "
               "matches the characteristic-polynomial oracle on 50 matrices")


def test_criterion_3_deterministic_propositions():
    start = time.monotonic()
    violations = 0
    for kernel, g, y, nlam, report in proposition_instances():
        p3 = prop3_check(kernel, g, nlam, report)
        if p3.lhs < p3.rhs - SLACK:
            violations += 1
        p4 = prop4_check(kernel, g, nlam, report)
        if not (p4.lower - SLACK <= p4.value <= p4.upper + SLACK):
            violations += 1
        rpt = bound_report(kernel, y, g, nlam, 0.16, report)
        assert rpt.conditions_available
        if not (rpt.i1g_lower - SLACK <= rpt.terms.i1g <= rpt.i1g_upper + SLACK):
            violations += 1
        if not (rpt.i1e_lower - SLACK <= rpt.terms.i1e <= rpt.i1e_upper + SLACK):
            violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    _passed(3, f"alignment bound, projection sandwich and both signal-term "
               f"sandwiches hold on 500 precondition-passing instances in {elapsed:.1f}s")


def test_criterion_4_decomposition_additivity():
    checked = 0
    for kernel, pop, fits in identity_instances():
        g = np.asarray(pop.g_values)
        y = np.asarray(pop.phenotypes)
        for nlam, res in zip(DEFAULT_NLAMBDA_GRID, fits):
            terms = decompose_terms(kernel, y, g, nlam)
            assert rel_err(terms.sigma_g2, res.sigma_g2_hat) <= 1e-8
            assert rel_err(terms.sigma_eps2, res.sigma_eps2_hat) <= 1e-8
            checked += 1
    for kernel, g, y, nlam, _report in proposition_instances():
        res = fit(kernel, y, nlam)
        terms = decompose_terms(kernel, y, g, nlam)
        assert rel_err(terms.sigma_g2, res.sigma_g2_hat) <= 1e-8
        assert rel_err(terms.sigma_eps2, res.sigma_eps2_hat) <= 1e-8
        checked += 1
    _passed(4, f"six-term split reconstructs both variance components on "
               f"{checked} instance/nlambda pairs")


def test_criterion_5_asymptotic_trend():
    # High-dimensional regime (n << p keeps the smoother spectrum stable
    # across sample sizes); population and sampling seeds are fixed so the
    # Monte Carlo path is reproducible.
    n_pop, p, nlam, reps = 1600, 3000, 1.0, 20
    sizes = (100, 200, 400, 800)
    pop_seed = 2024
    geno_seed, pheno_seed = derive_population_seeds(pop_seed)
    genotypes = simulate_hwe(n_pop, p, MafLaw(), seed=geno_seed)
    spec = SimulationSpec(
        n_individuals=n_pop, n_snps=p, sigma_g=0.01, family="linear", seed=pheno_seed
    )
    pop = build_population(spec, genotypes)
    seeds = derive_sampling_seeds(pop_seed + 1, len(sizes), reps)
    sigma_eps2 = spec.sigma_eps**2

    med_i3g, med_i3e, med_gap_g, med_gap_e = [], [], [], []
    for i, n in enumerate(sizes):
        i3g, i3e, gap_g, gap_e = [], [], [], []
        for r in range(reps):
            idx = subsample_indices(n_pop, n, seed=int(seeds[i, r]))
            rows = GenotypeMatrix(pop.genotypes.data[idx], maf=pop.genotypes.maf)
            kernel = make_kernel("linear", rows.standardized())
            report = check_conditions(kernel, pop.g_values[idx])
            rpt = bound_report(
                kernel, pop.phenotypes[idx], pop.g_values[idx], nlam, sigma_eps2, report
            )
            i3g.append(abs(rpt.terms.i3g))
            i3e.append(abs(rpt.terms.i3e))
            gap_g.append(rpt.i2g_gap / rpt.i2g_trace)
            gap_e.append(rpt.i2e_gap / rpt.i2e_trace)
        med_i3g.append(float(np.median(i3g)))
        med_i3e.append(float(np.median(i3e)))
        med_gap_g.append(float(np.median(gap_g)))
        med_gap_e.append(float(np.median(gap_e)))

    assert all(a > b for a, b in zip(med_i3g, med_i3g[1:])), med_i3g
    assert all(a > b for a, b in zip(med_i3e, med_i3e[1:])), med_i3e
    assert med_gap_g[-1] <= 0.15, med_gap_g
    assert med_gap_e[-1] <= 0.15, med_gap_e
    _passed(5, f"cross-term medians fall monotonically over n={sizes} "
               f"(|i3g| {med_i3g[0]:.3g}->{med_i3g[-1]:.3g}, "
               f"|i3e| {med_i3e[0]:.3g}->{med_i3e[-1]:.3g}); noise-term trace "
               f"gaps at n=800 are {med_gap_g[-1]:.1%} and {med_gap_e[-1]:.1%}")


def test_criterion_6_desk_scale_reproduction():
    start = time.monotonic()
    tables = reproduction_tables()
    poly_means = []
    for true_h2, cells in tables:
        cell = cells["poly2"]
        assert cell.sd == 0.0  # whole-population samples are degenerate
        assert cell.excluded == 0
        assert abs(true_h2 - 0.769) <= 0.06
        poly_means.append(cell.mean)
    across = float(np.mean(poly_means))
    assert abs(across - 0.736) <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s"
    _passed(6, f"5 populations: per-population sd exactly 0, mean estimate "
               f"{across:.3f} within 0.05 of 0.736, realized heritability "
               f"within 0.06 of 0.769 ({elapsed:.1f}s)")


def test_criterion_7_kernel_ordering():
    for true_h2, cells in reproduction_tables():
        poly = cells["poly2"].mean
        lin = cells["linear"].mean
        gau = cells["gaussian"].mean
        assert abs(poly - true_h2) < abs(lin - true_h2)
        assert abs(poly - true_h2) < abs(gau - true_h2)
        assert gau > lin
    _passed(7, "degree-2 polynomial kernel closest to the realized "
               "heritability and gaussian above linear on 5/5 populations")


def test_criterion_8_sigma_eps2_monotonicity():
    for kernel, pop, fits in identity_instances():
        values = [res.sigma_eps2_hat for res in fits]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12 * max(1.0, abs(a))
    _passed(8, "noise-variance estimate non-decreasing along the ascending "
               "nlambda grid on all 200 instances")


def test_criterion_9_hwe_generator_statistics():
    start = time.monotonic()
    n, p = 10000, 1000
    genotypes = simulate_hwe(n, p, MafLaw(), seed=20259)
    passed = 0
    for j in range(p):
        counts = np.bincount(genotypes.data[:, j], minlength=3)
        expected = n * np.array(hwe_probabilities(float(genotypes.maf[j])))
        if stats.chisquare(counts, expected).pvalue >= 0.001:
            passed += 1
    elapsed = time.monotonic() - start
    assert passed >= 0.99 * p, f"only {passed}/{p} columns pass"
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.1f}s"
    _passed(9, f"{passed}/{p} simulated columns pass the genotype-frequency "
               f"chi-square test at the 0.001 level in {elapsed:.1f}s")


def test_criterion_10_cmd_mc_determinism(tmp_path):
    def run_desk(out_dir, workers):
        code = cli.main([
            "mc", "--preset", "desk", "--workers", str(workers), "--out", str(out_dir)
        ])
        assert code == 0
        return (out_dir / "table.csv").read_bytes(), (out_dir / "manifest.txt").read_bytes()

    def strip_out_dir(manifest: bytes) -> bytes:
        lines = [l for l in manifest.splitlines() if not l.startswith(b"output_path=")]
        return b"\n".join(lines)

    table_a, manifest_a = run_desk(tmp_path / "a", 1)
    table_b, manifest_b = run_desk(tmp_path / "b", 1)
    table_c, _ = run_desk(tmp_path / "c", 2)  # manifest records the worker count
    assert table_a == table_b
    assert strip_out_dir(manifest_a) == strip_out_dir(manifest_b)
    assert table_a == table_c
    # counting oracle: 3 kernels x 3 nlambda x 5 sample sizes
    assert len(table_a.decode().strip().splitlines()) == 1 + 45
    _passed(10, "desk-scale Monte Carlo run is bitwise reproducible, "
                "serial and parallel")
