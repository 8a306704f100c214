import math
from pathlib import Path

import numpy as np
import pytest

from kernherit.genotypes import GenotypeMatrix, simulate_hwe
from kernherit.phenosim import (
    SimulationSpec,
    build_population,
    draw_beta,
    effect_function,
    export_population,
)


class TestEffectFunction:
    def test_linear_intercept(self):
        assert np.array_equal(effect_function("linear", np.zeros(4)), np.full(4, 5.0))

    def test_quadratic(self):
        assert np.array_equal(effect_function("quadratic", np.array([-3.0, 2.0])), [9.0, 4.0])

    def test_trigonometric(self):
        val = effect_function("trigonometric", np.array([math.pi / 2]))
        assert np.allclose(val, [1.0 + math.pi])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown effect family"):
            effect_function("cubic", np.zeros(2))


class TestDrawBeta:
    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError, match="sigma_g"):
            draw_beta(10, 0.0, seed=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scale(self, value):
        with pytest.raises(ValueError, match="sigma_g must be positive and finite"):
            draw_beta(10, value, seed=1)

    def test_large_sample_sd(self):
        beta = draw_beta(100_000, 0.02, seed=5)
        assert abs(np.std(beta) - 0.02) <= 0.02 * 0.02

    def test_same_seed_identical(self):
        assert np.array_equal(draw_beta(50, 0.3, seed=7), draw_beta(50, 0.3, seed=7))


class TestBuildPopulation:
    def _spec(self, **kw):
        base = dict(
            n_individuals=30, n_snps=6, sigma_g=0.2, family="linear", seed=3, sigma_eps=0.5
        )
        base.update(kw)
        return SimulationSpec(**base)

    @pytest.mark.parametrize(
        "field, value, message",
        [("sigma_g", np.nan, "sigma_g must be positive and finite"),
         ("sigma_g", np.inf, "sigma_g must be positive and finite"),
         ("sigma_eps", np.nan, "sigma_eps must be non-negative and finite"),
         ("sigma_eps", np.inf, "sigma_eps must be non-negative and finite")],
    )
    def test_spec_rejects_non_finite_scale(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            self._spec(**{field: value})

    def test_noiseless_population_has_unit_heritability(self):
        g = simulate_hwe(30, 6, seed=1)
        pop = build_population(self._spec(sigma_eps=0.0), g)
        assert pop.true_h2 == 1.0
        assert np.array_equal(pop.phenotypes, pop.g_values)

    def test_constant_signal_has_zero_heritability(self):
        # Monomorphic genotypes standardize to zero columns, so the
        # linear family collapses to the constant intercept.
        g = GenotypeMatrix(np.ones((25, 4), dtype=np.int8))
        pop = build_population(self._spec(n_individuals=25, n_snps=4), g)
        assert np.allclose(pop.g_values, 5.0)
        assert pop.true_h2 == 0.0

    def test_reproducible_bitwise(self):
        g = simulate_hwe(30, 6, seed=2)
        a = build_population(self._spec(), g)
        b = build_population(self._spec(), g)
        assert np.array_equal(a.phenotypes, b.phenotypes)
        assert np.array_equal(a.beta, b.beta)
        assert a.true_h2 == b.true_h2

    def test_true_h2_increases_with_sigma_g(self):
        g = simulate_hwe(200, 20, seed=4)
        values = []
        for sigma_g in (0.01, 0.02, 0.04, 0.08):
            spec = SimulationSpec(
                n_individuals=200, n_snps=20, sigma_g=sigma_g, family="linear", seed=11
            )
            values.append(build_population(spec, g).true_h2)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bound_m_matches_max_signal(self):
        g = simulate_hwe(40, 8, seed=6)
        pop = build_population(self._spec(n_individuals=40, n_snps=8), g)
        assert pop.bound_m == np.max(np.abs(pop.g_values))

    def test_phenotypes_are_signal_plus_noise(self):
        g = simulate_hwe(30, 6, seed=8)
        spec = self._spec(sigma_eps=0.7)
        pop = build_population(spec, g)
        noise = pop.phenotypes - pop.g_values
        assert not np.allclose(noise, 0.0)
        assert abs(np.std(noise) - 0.7) < 0.35

    def test_dimension_mismatch(self):
        g = simulate_hwe(10, 6, seed=1)
        with pytest.raises(ValueError, match="spec asks"):
            build_population(self._spec(n_individuals=12), g)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stock_low_dim_linear_heritability_band(self, seed):
        # The stock low-dimensional linear setting realizes a population
        # heritability of about 0.77 (documented band +/- 0.06).
        geno_seed, pheno_seed = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
        g = simulate_hwe(1000, 500, seed=int(geno_seed))
        spec = SimulationSpec(
            n_individuals=1000, n_snps=500, sigma_g=0.02, family="linear", seed=int(pheno_seed)
        )
        pop = build_population(spec, g)
        assert abs(pop.true_h2 - 0.769) <= 0.06


class TestExport:
    def test_files_round_trip(self, tmp_path):
        g = simulate_hwe(20, 5, seed=1)
        spec = SimulationSpec(
            n_individuals=20, n_snps=5, sigma_g=0.3, family="quadratic", seed=9
        )
        pop = build_population(spec, g)
        paths = export_population(pop, spec, tmp_path / "pop")
        y = np.loadtxt(paths["phenotypes"])
        assert np.allclose(y, pop.phenotypes, rtol=0, atol=0)
        beta = np.loadtxt(paths["beta"])
        assert np.allclose(beta, pop.beta, rtol=0, atol=0)
        meta = dict(
            line.split("=", 1) for line in Path(paths["metadata"]).read_text().splitlines()
        )
        assert meta["family"] == "quadratic"
        assert float(meta["true_h2"]) == pop.true_h2
