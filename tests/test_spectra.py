import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernherit.exceptions import ConditionNotMet
from kernherit.genotypes import simulate_hwe
from kernherit.kernels import KERNEL_KINDS, Design, KernelMatrix, design_matrix, make_kernel
from kernherit.krr import fit
from kernherit.matrixcore import EigenDecomposition
from kernherit.phenosim import FAMILIES, SimulationSpec, build_population
from kernherit.spectra import (
    UNTAGGED_KEYS,
    bound_report,
    check_conditions,
    decompose_terms,
    esd_integrals,
    prop3_check,
    prop4_check,
    report_items,
)

from helpers import rel_err, symmetrize


def ones_kernel(n: int) -> KernelMatrix:
    return KernelMatrix(np.ones((n, n)))


def diag_kernel(values) -> KernelMatrix:
    return KernelMatrix(np.diag(np.asarray(values, dtype=float)))


def genotype_instance(
    seed: int,
    n: int = 14,
    p: int = 4,
    kind: str = "poly2",
    standardize: bool = True,
    family: str = "linear",
):
    """Population-backed instance; the default poly2 kernel's intercept keeps alignment high."""
    seeds = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    g = simulate_hwe(n, p, seed=int(seeds[0]))
    spec = SimulationSpec(
        n_individuals=n, n_snps=p, sigma_g=0.4, family=family, seed=int(seeds[1])
    )
    pop = build_population(spec, g)
    kernel = make_kernel(kind, design_matrix(g, standardize))
    return kernel, pop.g_values, pop.phenotypes


@st.composite
def admissible_instances(draw):
    """A genotype-backed (kernel, g, y, conditions, nlambda) that meets (C3)/(C4),
    at 1, 1.01, 2 or 10 times its positive admissibility threshold."""
    kernel, g, y = genotype_instance(
        draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(5, 59)),
        p=draw(st.integers(2, 39)),
        kind=draw(st.sampled_from(KERNEL_KINDS)),
        standardize=draw(st.booleans()),
        family=draw(st.sampled_from(FAMILIES)),
    )
    assume(g.any())  # e.g. every SNP monomorphic
    rep = check_conditions(kernel, g)
    assume(rep.conditions_met and rep.lambda_threshold > 0.0)
    return kernel, g, y, rep, draw(st.sampled_from([1.0, 1.01, 2.0, 10.0])) * rep.lambda_threshold


def spiked_instance(seed: int, n: int = 10):
    """Synthetic kernel with a dominant direction near the ones vector."""
    rng = np.random.default_rng(seed)
    a = np.ones(n) / np.sqrt(n) + 0.1 * rng.normal(size=n)
    a /= np.linalg.norm(a)
    noise = rng.normal(size=(n, n)) * 0.1
    k = symmetrize(5.0 * n * np.outer(a, a) + noise @ noise.T)
    g = 3.0 * np.sqrt(n) * a + 0.3 * rng.normal(size=n)
    eps = 0.4 * rng.normal(size=n)
    return KernelMatrix(k), g, g + eps


def low_rank_instance(seed: int, n: int = 10):
    """Random rank-3 PSD kernel with an unaligned signal."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3))
    g = rng.normal(size=n) + 0.5
    return KernelMatrix(symmetrize(a @ a.T)), g, g + 0.4 * rng.normal(size=n)


class TestCheckConditions:
    def test_rank_one_perfectly_aligned(self):
        n = 6
        rep = check_conditions(ones_kernel(n), np.ones(n))
        assert rep.c_star == pytest.approx(1.0)
        assert np.isinf(rep.gap_ratio)
        assert rep.lambda_threshold == 0.0
        assert rep.conditions_met

    def test_orthogonal_signal_fails_alignment(self):
        n = 6
        g = np.tile([1.0, -1.0], 3)
        rep = check_conditions(ones_kernel(n), g)
        assert rep.c_star == pytest.approx(0.0, abs=1e-12)
        assert not rep.c3_met
        assert not rep.conditions_met

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 150),
        p=st.integers(2, 100),
        family=st.sampled_from(FAMILIES),
    )
    def test_standardized_linear_kernel_fails_alignment(self, seed, n, p, family):
        """Standardized columns sum to zero, so the linear kernel maps the ones
        vector to zero and c = 0 in exact arithmetic: C3 fails on its rounding,
        and a refusal names C3."""
        kernel, g, _ = genotype_instance(seed, n=n, p=p, kind="linear", family=family)
        assume(g.any() and kernel.matrix.any())  # e.g. every SNP monomorphic
        rep = check_conditions(kernel, g)
        assert not rep.c3_met
        with pytest.raises(ConditionNotMet, match=r"alignment condition \(C3\)"):
            prop3_check(kernel, g, 1.0, rep)

    def test_matches_direct_ratio_loop(self):
        kernel, g, _ = spiked_instance(3, n=8)
        rep = check_conditions(kernel, g)
        v1 = kernel.eig.eigenvectors[:, 0]
        n = 8
        r1 = abs(sum(v1)) / np.sqrt(n)
        r2 = abs(sum(v1[i] * g[i] for i in range(n))) / np.linalg.norm(g)
        r3 = abs(sum(g)) / (np.sqrt(n) * np.linalg.norm(g))
        assert abs(rep.c_star - min(1.0, r1, r2, r3)) < 1e-12

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            check_conditions(ones_kernel(4), np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="kernel order"):
            check_conditions(ones_kernel(4), np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_signal_rejected(self, bad):
        with pytest.raises(ValueError, match="signal must be finite"):
            check_conditions(ones_kernel(4), np.array([1.0, bad, 1.0, 1.0]))

    def test_alpha_respects_gap_margin(self):
        kernel, g, _ = genotype_instance(5)
        rep = check_conditions(kernel, g)
        assert rep.conditions_met
        c2 = rep.c_star**2
        # chosen alpha keeps the gap inequality strict with 1% margin
        assert (rep.alpha + 1.0 - c2) / c2 <= 0.99 * rep.gap_ratio + 1e-12
        assert rep.alpha <= 1.0
        assert rep.alpha_range_low <= rep.alpha <= max(rep.alpha_range_high, rep.alpha)


class TestDecomposeTerms:
    def test_noiseless_split(self):
        kernel, g, _ = genotype_instance(7)
        terms = decompose_terms(kernel, g, g, 1.0)
        scale = max(abs(terms.i1g), 1.0)
        for value in (terms.i2g, terms.i3g, terms.i2e, terms.i3e):
            assert abs(value) <= 1e-12 * scale
        res = fit(kernel, g, 1.0)
        assert rel_err(terms.i1g, res.sigma_g2_hat) < 1e-10

    def test_pure_noise_split(self):
        kernel, _, y = genotype_instance(8)
        terms = decompose_terms(kernel, y, np.zeros(kernel.n), 1.0)
        assert terms.i1g == 0.0 and terms.i3g == 0.0
        assert terms.i1e == 0.0 and terms.i3e == 0.0

    def test_matches_explicit_inverse_oracle(self):
        kernel, g, y = genotype_instance(9, n=5, p=3)
        nlam = 0.7
        n = 5
        k = kernel.matrix
        m = np.linalg.inv(k + nlam * np.eye(n))
        a = k @ m
        c = np.eye(n) - np.ones((n, n)) / n
        eps = y - g
        terms = decompose_terms(kernel, y, g, nlam)
        expect = {
            "i1g": g @ a.T @ c @ a @ g / (n - 1),
            "i2g": eps @ a.T @ c @ a @ eps / (n - 1),
            "i3g": 2.0 * g @ a.T @ c @ a @ eps / (n - 1),
            "i1e": nlam**2 * g @ m @ m @ g / n,
            "i2e": nlam**2 * eps @ m @ m @ eps / n,
            "i3e": 2.0 * nlam**2 * g @ m @ m @ eps / n,
        }
        for name, value in expect.items():
            assert abs(getattr(terms, name) - value) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_additivity_reconstructs_fit(self, seed):
        kernel, g, y = genotype_instance(seed, n=16)
        nlam = 1.3
        terms = decompose_terms(kernel, y, g, nlam)
        res = fit(kernel, y, nlam)
        assert rel_err(terms.sigma_g2, res.sigma_g2_hat) < 1e-8
        assert rel_err(terms.sigma_eps2, res.sigma_eps2_hat) < 1e-8


@pytest.mark.parametrize("nlambda", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda k, nlambda: decompose_terms(k, np.ones(3), np.ones(3), nlambda),
        esd_integrals,
        lambda k, nlambda: bound_report(
            k, np.ones(3), np.ones(3), nlambda, 0.1, check_conditions(k, np.ones(3))
        ),
        lambda k, nlambda: prop3_check(k, np.ones(3), nlambda, check_conditions(k, np.ones(3))),
        lambda k, nlambda: prop4_check(k, np.ones(3), nlambda, check_conditions(k, np.ones(3))),
    ],
    ids=["decompose_terms", "esd_integrals", "bound_report", "prop3_check", "prop4_check"],
)
def test_nlambda_must_be_positive_and_finite(entry, nlambda):
    with pytest.raises(ValueError, match="nlambda must be positive and finite"):
        entry(diag_kernel([3.0, 2.0, 1.0]), nlambda)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry, name",
    [
        (lambda k, v, rep: decompose_terms(k, np.ones(3), v, 1.0), "signal"),
        (lambda k, v, rep: decompose_terms(k, v, np.ones(3), 1.0), "phenotypes"),
        (lambda k, v, rep: prop3_check(k, v, 1.0, rep), "signal"),
        (lambda k, v, rep: prop4_check(k, v, 1.0, rep), "signal"),
        (lambda k, v, rep: bound_report(k, np.ones(3), v, 1.0, 0.1, rep), "signal"),
        (lambda k, v, rep: bound_report(k, v, np.ones(3), 1.0, 0.1, rep), "phenotypes"),
    ],
    ids=["decompose_terms-g", "decompose_terms-y", "prop3_check", "prop4_check",
         "bound_report-g", "bound_report-y"],
)
def test_nonfinite_vector_rejected(entry, name, bad):
    """A non-finite signal or phenotype is an error, not a failed inequality."""
    k = diag_kernel([3.0, 2.0, 1.0])
    rep = check_conditions(k, np.ones(3))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        entry(k, np.array([1.0, bad, 1.0]), rep)


@pytest.mark.parametrize("sigma_eps2", [-0.5, np.nan, np.inf])
def test_sigma_eps2_must_be_non_negative_and_finite(sigma_eps2):
    k, g = diag_kernel([3.0, 2.0, 1.0]), np.ones(3)
    with pytest.raises(ValueError, match="sigma_eps2 must be non-negative and finite"):
        bound_report(k, g, g, 1.0, sigma_eps2, check_conditions(k, g))


class TestEsdIntegrals:
    def test_two_point_spectrum(self):
        full, minus1 = esd_integrals(diag_kernel([2.0, 1.0]), 1.0)
        assert np.isclose(full, 25.0 / 72.0)
        assert np.isclose(minus1, 0.25)

    def test_total_shrinkage_limit(self):
        full, minus1 = esd_integrals(diag_kernel([2.0, 1.0, 0.5]), 1e12)
        assert full < 1e-20 and minus1 < 1e-20

    def test_scalar_spectrum_exact(self):
        c, nlam = 0.8, 1.7
        full, _ = esd_integrals(diag_kernel([c, c, c, c]), nlam)
        assert full == pytest.approx((c / (c + nlam)) ** 2, rel=1e-15)

    def test_bounds_and_relation(self):
        kernel, _, _ = genotype_instance(11)
        n = kernel.n
        full, minus1 = esd_integrals(kernel, 0.9)
        assert 0.0 <= full <= 1.0 and 0.0 <= minus1 <= 1.0
        assert minus1 <= full * n / (n - 1) + 1e-15


class TestProp3:
    def test_rank_one_closed_form(self):
        n, nlam = 6, 0.8
        kernel = ones_kernel(n)
        g = np.ones(n)
        rep = check_conditions(kernel, g)
        res = prop3_check(kernel, g, nlam, rep)
        assert res.holds
        assert np.isclose(res.lhs, n**2 / (n + nlam))
        assert res.rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_holds_on_passing_instances(self, seed):
        kernel, g, _ = spiked_instance(seed)
        rep = check_conditions(kernel, g)
        assert rep.conditions_met
        nlam = max(1.01 * rep.lambda_threshold, 0.5)
        assert prop3_check(kernel, g, nlam, rep).holds

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_instances())
    def test_holds_on_admissible_instances(self, instance):
        kernel, g, _, rep, nlam = instance
        assert prop3_check(kernel, g, nlam, rep).holds

    def test_refusal_names_failed_condition(self):
        n = 6
        g = np.tile([1.0, -1.0], 3)
        kernel = ones_kernel(n)
        rep = check_conditions(kernel, g)
        with pytest.raises(ConditionNotMet, match="C3"):
            prop3_check(kernel, g, 1.0, rep)

    def test_refusal_below_threshold(self):
        kernel, g, _ = genotype_instance(12)  # seed chosen to satisfy (C3)/(C4)
        rep = check_conditions(kernel, g)
        assert rep.conditions_met and rep.lambda_threshold > 0
        with pytest.raises(ConditionNotMet, match="threshold"):
            prop3_check(kernel, g, rep.lambda_threshold / 2.0, rep)


class TestProp4:
    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich_on_passing_instances(self, seed):
        kernel, g, _ = spiked_instance(seed + 20)
        rep = check_conditions(kernel, g)
        assert rep.conditions_met
        nlam = max(1.01 * rep.lambda_threshold, 0.5)
        res = prop4_check(kernel, g, nlam, rep)
        assert res.holds
        assert res.lower <= res.upper

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_instances())
    def test_sandwich_on_admissible_instances(self, instance):
        """Prop 4 and the deterministic i1e and i1g sandwiches of bound_report."""
        kernel, g, y, rep, nlam = instance
        res = prop4_check(kernel, g, nlam, rep)
        assert res.holds
        assert res.lower <= res.upper
        rpt = bound_report(kernel, y, g, nlam, 0.25, rep)
        assert rpt.conditions_available
        assert rpt.i1e_lower - 1e-10 <= rpt.terms.i1e <= rpt.i1e_upper + 1e-10
        assert rpt.i1g_lower - 1e-10 <= rpt.terms.i1g <= rpt.i1g_upper + 1e-10

    def test_refusal_when_ones_and_signal_are_orthogonal(self):
        """1^T g = 0 needs a report made for another signal: its own would fail (C3)."""
        n = 6
        kernel = KernelMatrix(np.ones((n, n)) + 0.01 * np.eye(n))
        rep = check_conditions(kernel, 1.0 + 0.01 * np.arange(n))
        assert rep.conditions_met
        g = np.tile([1.0, -1.0], 3)
        with pytest.raises(ConditionNotMet, match=r"1\^T g is exactly zero"):
            prop4_check(kernel, g, max(1.01 * rep.lambda_threshold, 0.5), rep)


class TestBoundReport:
    def test_unconditional_noise_sandwich(self):
        for seed in range(6):
            kernel, g, y = genotype_instance(seed + 30)
            rep = check_conditions(kernel, g)
            nlam = 1.1
            rpt = bound_report(kernel, y, g, nlam, 0.25, rep)
            assert rpt.i1e_lower - 1e-10 <= rpt.terms.i1e <= rpt.i1e_upper + 1e-10

    def test_conditional_signal_sandwich(self):
        kernel, g, y = genotype_instance(0)  # seed chosen to satisfy (C3)/(C4)
        rep = check_conditions(kernel, g)
        assert rep.conditions_met
        nlam = max(1.01 * rep.lambda_threshold, 0.5)
        rpt = bound_report(kernel, y, g, nlam, 0.25, rep)
        assert rpt.conditions_available
        assert rpt.i1g_lower - 1e-10 <= rpt.terms.i1g <= rpt.i1g_upper + 1e-10
        assert rpt.sigma_g2_lower <= rpt.sigma_g2_upper
        assert rpt.ratio_lower <= rpt.ratio_upper
        assert rpt.lambda_admissible_1 is True

    def test_partial_report_below_threshold(self):
        kernel, g, y = genotype_instance(2)  # seed chosen to satisfy (C3)/(C4)
        rep = check_conditions(kernel, g)
        assert rep.lambda_threshold > 0.2
        rpt = bound_report(kernel, y, g, 0.1, 0.25, rep)
        assert not rpt.conditions_available
        assert rpt.i1g_lower is None
        assert rpt.sigma_g2_lower is None and rpt.sigma_g2_upper is None
        assert rpt.ratio_lower is None and rpt.ratio_upper is None
        assert rpt.lambda_admissible_1 is False
        # the condition-free side still reports
        assert rpt.i1e_lower <= rpt.terms.i1e + 1e-12
        assert rpt.sigma_eps2_lower <= rpt.sigma_eps2_upper

    def test_rank_deficient_trace_bound(self):
        # Low-rank kernel: the noise-term trace expectation is capped by
        # rank * sigma_eps^2 / (n - 1).
        n, p = 16, 3
        g_mat = simulate_hwe(n, p, seed=41)
        kernel = make_kernel("linear", Design(g_mat.standardized()))
        rank = np.linalg.matrix_rank(kernel.matrix)
        g = np.ones(n) + 0.1 * np.random.default_rng(0).normal(size=n)
        rep = check_conditions(kernel, g)
        sigma_eps2 = 0.49
        rpt = bound_report(kernel, g + 0.1, g, 0.9, sigma_eps2, rep)
        assert rpt.i2g_trace <= rank * sigma_eps2 / (n - 1) + 1e-12

    def test_i2_gaps_measured(self):
        kernel, g, y = genotype_instance(33, n=18)
        rep = check_conditions(kernel, g)
        rpt = bound_report(kernel, y, g, 1.0, 0.25, rep)
        assert rpt.i2e_gap == abs(rpt.terms.i2e - rpt.i2e_trace)
        assert rpt.i2g_gap == abs(rpt.terms.i2g - rpt.i2g_trace)


class TestReportSerialization:
    def test_true_signal_keys(self):
        kernel, g, y = genotype_instance(34)
        items = dict(report_items("poly2", kernel, y, fit(kernel, y, 1.0), g))
        assert items["kernel"] == "poly2"
        assert items["signal_source"] == "true_g"
        assert "c_star" in items
        assert not [key for key in items if ".proxy" in key]

    def test_proxy_labeling(self):
        kernel, g, y = genotype_instance(35)
        items = dict(report_items("poly2", kernel, y, fit(kernel, y, 1.0)))
        assert items["kernel"] == "poly2"
        assert items["signal_source"] == "proxy_g_hat"
        assert "c_star.proxy" in items
        assert "i1g.proxy" in items

    def test_values_print_as_python_scalars(self):
        # numpy 2 prints a numpy scalar as np.float64(...); a numpy nlambda
        # must still give plain floats and bools.
        kernel, g, y = genotype_instance(0)
        nlam = np.float64(1.01 * check_conditions(kernel, g).lambda_threshold)
        res = dataclasses.replace(fit(kernel, y, nlam), nlambda=nlam)
        items = report_items("poly2", kernel, y, res, g)
        assert len(items) == 49
        assert items[:2] == [("kernel", "poly2"), ("signal_source", "true_g")]
        assert dict(items)["lambda_admissible_1"] == "true"
        for _, value in items[2:]:
            assert value in ("true", "false", "unavailable") or value == repr(float(value))

    def test_tags_every_key_that_depends_on_the_signal(self):
        # Demo 02's instance at nlambda 29.3: the same fit reported once on
        # the true signal and once on the fitted one. A key whose value moves
        # with the signal must be labeled in the proxy report; an untagged
        # key after the signal's source must not move.
        n, p, nlam = 200, 40, 29.3
        spec = SimulationSpec(n_individuals=n, n_snps=p, sigma_g=0.08, family="linear", seed=21)
        genotypes = simulate_hwe(n, p, seed=20)
        pop = build_population(spec, genotypes)
        kernel = make_kernel("poly2", Design(genotypes.standardized()))
        y, g = pop.phenotypes, pop.g_values
        res = fit(kernel, y, nlam)

        true_items = report_items("poly2", kernel, y, res, g)
        proxy_items = report_items("poly2", kernel, y, res)
        true_report = dict(true_items)
        assert [key for key, _ in proxy_items[:2]] == ["kernel", "signal_source"]
        differing = 0
        for proxy_key, proxy_value in proxy_items[2:]:
            key = proxy_key.removesuffix(".proxy")
            if key in UNTAGGED_KEYS:
                assert (proxy_key, proxy_value) == (key, true_report[key])
            else:
                assert proxy_key == key + ".proxy"
                differing += key in true_report and true_report[key] != proxy_value
        assert differing > 20
        assert true_report["conditions_available"] == "false"
        assert dict(proxy_items)["conditions_available.proxy"] == "true"


def _outcome(f, *args):
    """repr of a result (exact for floats), or the refusal it raised."""
    try:
        return repr(f(*args))
    except ConditionNotMet as exc:
        return f"ConditionNotMet: {exc}"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([genotype_instance, spiked_instance, low_rank_instance]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sampled_from([0.001, 0.5, 2.3, 50.0]),
    st.booleans(),
    st.data(),
)
def test_outputs_do_not_depend_on_eigenvector_signs(instance, seed, n, nlambda, proxy, data):
    """Every reader of the eigenvectors is bitwise sign-invariant, so the
    eigensolver's choice of column signs never reaches an output."""
    kernel, g, y = instance(seed, n=n)
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    flipped = KernelMatrix(kernel.matrix)
    dec = kernel.eig
    flipped.__dict__["eig"] = EigenDecomposition(dec.eigenvalues, dec.eigenvectors * signs)
    outcomes = []
    res = fit(kernel, y, nlambda)
    for k in (kernel, flipped):
        rep = check_conditions(k, g)
        outcomes.append([
            repr(rep),
            _outcome(decompose_terms, k, y, g, nlambda),
            _outcome(esd_integrals, k, nlambda),
            _outcome(report_items, "kernel", k, y, res, None if proxy else g),
            _outcome(prop3_check, k, g, nlambda, rep),
            _outcome(prop4_check, k, g, nlambda, rep),
        ])
    assert outcomes[0] == outcomes[1]
