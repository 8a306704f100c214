import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernherit import krr, matrixcore
from kernherit.exceptions import NumericalError
from kernherit.genotypes import simulate_hwe
from kernherit.kernels import KERNEL_KINDS, Design, KernelMatrix, make_kernel
from kernherit.krr import (
    DEFAULT_NLAMBDA_GRID,
    fit,
    lambda_grid_fit,
    residualize,
)
from kernherit.phenosim import SimulationSpec, build_population

from helpers import cramer_solve, rel_err, symmetrize


def identity_kernel(n: int) -> KernelMatrix:
    return KernelMatrix(np.eye(n))


def random_instance(seed: int, n: int = 12, p: int = 5, kind: str = "poly2"):
    """Small genotype-backed instance with known signal."""
    rng_seed = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    g = simulate_hwe(n, p, seed=int(rng_seed[0]))
    spec = SimulationSpec(
        n_individuals=n, n_snps=p, sigma_g=0.3, family="linear", seed=int(rng_seed[1])
    )
    pop = build_population(spec, g)
    kernel = make_kernel(kind, Design(g.standardized()))
    return kernel, pop


def dense_fit(k: np.ndarray, y: np.ndarray, nlambda: float):
    """(alpha, sigma_g2, sigma_eps2) from a dense solve of (K + nlambda I) alpha = y."""
    n = k.shape[0]
    alpha = np.linalg.solve(k + nlambda * np.eye(n), y)
    g = k @ alpha
    return alpha, float(np.var(g, ddof=1)), float(np.sum((y - g) ** 2)) / n


class TestFit:
    def test_identity_kernel_closed_form(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=9)
        res = fit(identity_kernel(9), y, 1.0)
        assert np.allclose(res.alpha_hat, y / 2.0, atol=1e-14)
        assert np.allclose(res.g_hat, y / 2.0, atol=1e-14)
        assert np.isclose(res.sigma_eps2_hat, np.sum((y / 2.0) ** 2) / 9.0)
        assert np.isclose(res.sigma_g2_hat, np.var(y / 2.0, ddof=1))

    def test_enormous_ridge_shrinks_h2_to_zero(self):
        kernel, pop = random_instance(1)
        res = fit(kernel, pop.phenotypes, 1e12)
        assert np.isfinite(res.h2_hat)
        assert res.h2_hat < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_matches_cramer_oracle(self, seed):
        n = 2 + seed % 5
        kernel, pop = random_instance(seed, n=n, p=3)
        nlam = 0.8
        res = fit(kernel, pop.phenotypes, nlam)
        expected = cramer_solve(
            kernel.matrix + nlam * np.eye(n), np.asarray(pop.phenotypes)
        )
        assert np.max(np.abs(res.alpha_hat - expected)) < 1e-9

    def test_matches_dense_solve(self):
        kernel, pop = random_instance(2, n=25)
        y = np.asarray(pop.phenotypes)
        res = fit(kernel, y, 1.3)
        alpha, sigma_g2, sigma_eps2 = dense_fit(kernel.matrix, y, 1.3)
        scale = max(1.0, np.max(np.abs(alpha)))
        assert np.max(np.abs(res.alpha_hat - alpha)) <= 1e-8 * scale
        assert rel_err(res.sigma_g2_hat, sigma_g2) < 1e-8
        assert rel_err(res.sigma_eps2_hat, sigma_eps2) < 1e-8

    def test_residual_form_equals_spectral_form(self):
        kernel, pop = random_instance(3, n=10)
        nlam = 2.3
        res = fit(kernel, pop.phenotypes, nlam)
        y = np.asarray(pop.phenotypes)
        m = np.linalg.inv(kernel.matrix + nlam * np.eye(10))
        spectral = nlam**2 * float(y @ m @ m @ y) / 10.0
        assert rel_err(res.sigma_eps2_hat, spectral) < 1e-10

    def test_sigma_g2_is_centering_sandwich(self):
        kernel, pop = random_instance(4, n=14)
        res = fit(kernel, pop.phenotypes, 0.5)
        k = kernel.matrix
        n = 14
        c = np.eye(n) - np.ones((n, n)) / n
        sandwich = float(res.alpha_hat @ k @ c @ k @ res.alpha_hat) / (n - 1)
        assert rel_err(res.sigma_g2_hat, sandwich) < 1e-10

    def test_stationarity(self):
        kernel, pop = random_instance(5, n=16)
        nlam = 1.5
        res = fit(kernel, pop.phenotypes, nlam)
        k = kernel.matrix
        grad = k @ ((k + nlam * np.eye(16)) @ res.alpha_hat - pop.phenotypes)
        assert np.max(np.abs(grad)) <= 1e-8 * max(1.0, np.max(np.abs(pop.phenotypes)))

    def test_h2_in_unit_interval(self):
        for seed in range(5):
            kernel, pop = random_instance(seed + 10, n=13)
            res = fit(kernel, pop.phenotypes, 1.0)
            assert np.isfinite(res.h2_hat)
            assert 0.0 <= res.h2_hat <= 1.0

    def test_single_individual_has_no_genetic_variance(self):
        res = fit(KernelMatrix([[2.0]]), [3.0], 1.0)
        assert res.alpha_hat.tolist() == [1.0]
        assert (res.sigma_g2_hat, res.sigma_eps2_hat, res.h2_hat) == (0.0, 1.0, 0.0)

    def test_undefined_h2_flagged_not_raised(self):
        res = fit(identity_kernel(4), np.zeros(4), 1.0)
        assert np.isnan(res.h2_hat)

    def test_rejects_bad_nlambda(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nlambda"):
                fit(identity_kernel(3), np.ones(3), bad)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fit(identity_kernel(3), np.ones(4), 1.0)

    def test_rejects_nonfinite_phenotypes(self):
        with pytest.raises(ValueError, match="finite"):
            fit(identity_kernel(3), np.array([1.0, np.nan, 0.0]), 1.0)


class TestLambdaGrid:
    def test_singleton_equals_fit(self):
        kernel, pop = random_instance(6)
        grid_res = lambda_grid_fit(kernel, pop.phenotypes, [1.0])
        single = fit(kernel, pop.phenotypes, 1.0)
        assert len(grid_res) == 1
        assert np.array_equal(grid_res[0].alpha_hat, single.alpha_hat)

    def test_default_grid_has_eleven_points(self):
        kernel, pop = random_instance(7)
        assert len(lambda_grid_fit(kernel, pop.phenotypes, DEFAULT_NLAMBDA_GRID)) == 11

    def test_matches_independent_fits(self):
        kernel, pop = random_instance(8)
        grid = (0.5, 1.0, 2.0)
        grid_res = lambda_grid_fit(kernel, pop.phenotypes, grid)
        for nlam, res in zip(grid, grid_res):
            indep = fit(kernel, pop.phenotypes, nlam)
            assert np.array_equal(res.alpha_hat, indep.alpha_hat)
            assert res.sigma_g2_hat == indep.sigma_g2_hat

    def test_sigma_eps2_nondecreasing_on_ascending_grid(self):
        kernel, pop = random_instance(9, n=20)
        values = [r.sigma_eps2_hat for r in lambda_grid_fit(kernel, pop.phenotypes, DEFAULT_NLAMBDA_GRID)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12 * max(1.0, abs(a))

    def test_rejects_empty_or_nonpositive(self):
        kernel, pop = random_instance(10)
        with pytest.raises(ValueError):
            lambda_grid_fit(kernel, pop.phenotypes, [])
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="all nlambda values"):
                lambda_grid_fit(kernel, pop.phenotypes, [1.0, bad])


class TestResidualize:
    def test_intercept_only_centers(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=15)
        out = residualize(y, None)
        assert np.allclose(out, y - y.mean(), atol=1e-12)

    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        y = 3.0 + x @ np.array([1.5, -2.0])
        out = residualize(y, x)
        assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(y)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        x_raw = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        out = residualize(y, x_raw)
        x = np.hstack([np.ones((20, 1)), x_raw])
        coef = np.linalg.inv(x.T @ x) @ (x.T @ y)
        assert np.max(np.abs(out - (y - x @ coef))) < 1e-9

    def test_output_orthogonal_to_covariates(self):
        rng = np.random.default_rng(4)
        x_raw = rng.normal(size=(30, 4))
        y = rng.normal(size=30) * 10
        out = residualize(y, x_raw)
        x = np.hstack([np.ones((30, 1)), x_raw])
        for j in range(x.shape[1]):
            bound = 1e-8 * np.linalg.norm(y) * np.linalg.norm(x[:, j])
            assert abs(out @ x[:, j]) <= bound

    def test_rank_deficiency_names_column(self):
        x = np.ones((10, 1))  # exactly constant columns are absorbed
        rng = np.random.default_rng(5)
        a = rng.normal(size=10)
        dup = np.column_stack([a, 2.0 * a])  # column 2 duplicates column 1
        with pytest.raises(ValueError, match="column 2"):
            residualize(rng.normal(size=10), dup)
        # constant covariate columns are dropped into the intercept
        out = residualize(np.arange(10.0), x)
        assert np.allclose(out, np.arange(10.0) - 4.5)

    def test_needs_more_rows_than_coefficients(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="more observations"):
            residualize(rng.normal(size=4), rng.normal(size=(4, 3)))

    def test_covariates_must_be_2d(self):
        with pytest.raises(ValueError, match="covariates must be 2-D"):
            residualize(np.zeros(4), np.zeros((4, 2, 2)))

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="3 rows but phenotypes have 4"):
            residualize(np.zeros(4), np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_column_rejected_not_dropped_as_constant(self, bad):
        raw = np.array([1.0] * 6 + [bad] + [2.0] * 13)
        with pytest.raises(ValueError, match="covariates must be finite"):
            residualize(np.zeros(20), raw)


def test_fit_uses_cached_spectrum_automatically(monkeypatch):
    """A fit computes no eigendecomposition of K, and repeats bitwise."""
    orders = _recorded_eigh_orders(monkeypatch)
    kernel, pop = random_instance(11)
    first = fit(kernel, pop.phenotypes, 1.0)
    assert orders == []
    second = fit(kernel, pop.phenotypes, 1.0)
    assert orders == []
    assert np.array_equal(first.alpha_hat, second.alpha_hat)
    assert first.h2_hat == second.h2_hat


def test_indefinite_kernel_raises():
    # diag(1, -0.5) + I is positive definite, so a shifted solve alone
    # would not notice; the spectrum itself is not a kernel's.
    kernel = KernelMatrix(np.diag([1.0, -0.5]))
    with pytest.raises(NumericalError, match="eigenvalue"):
        fit(kernel, np.array([1.0, 2.0]), 1.0)
    with pytest.raises(NumericalError, match="eigenvalue"):
        lambda_grid_fit(kernel, np.array([1.0, 2.0]), [1.0])


def test_singular_shifted_projection_raises():
    # T_1 + nlambda I = -1 + 1 is a zero pivot: K has an eigenvalue <= -nlambda.
    kernel = KernelMatrix(np.array([[-1.0]]))
    with pytest.raises(NumericalError, match="not positive semidefinite.*eigenvalue"):
        fit(kernel, np.array([1.0]), 1.0)


def test_zero_pivot_of_a_shift_at_or_below_sigma_raises():
    # T_1 = -1e-9 passes the PSD check, as sigma = 1e-8 max K_ii = 1e-8, but
    # T_1 + nlambda I = 0 at nlambda = 1e-9.
    kernel = KernelMatrix(np.diag([-1e-9, 1.0]))
    with pytest.raises(NumericalError, match="singular at nlambda=1e-09"):
        fit(kernel, np.array([1.0, 0.0]), 1e-9)


def test_phenotype_in_the_null_space_of_a_centered_design_is_fit():
    # Centered columns map the ones vector to zero under the linear kernel, so the
    # sweep starts in null(K) and T_1 = 1^T K 1 / n is rounding of either sign.
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=(30, 8))
        x -= x.mean(axis=0)
        x[:, 3] = 0.0  # a monomorphic SNP, standardized
        for res in lambda_grid_fit(make_kernel("linear", Design(x)), np.full(30, 2.0),
                                   DEFAULT_NLAMBDA_GRID):
            assert np.isfinite([res.sigma_g2_hat, res.sigma_eps2_hat, res.h2_hat]).all()


def _relative_residual(k: np.ndarray, y: np.ndarray, nlambda: float, alpha: np.ndarray) -> float:
    residual = np.linalg.norm(k @ alpha + nlambda * alpha - y)
    scale = (np.linalg.norm(k) + nlambda) * np.linalg.norm(alpha) + np.linalg.norm(y)
    return residual / scale if scale > 0 else residual


@st.composite
def gram_instances(draw):
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 6))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-3.0, 3.0)))
    y = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    kind = draw(st.sampled_from(KERNEL_KINDS))
    nlambda = draw(st.floats(1e-3, 1e3))
    return make_kernel(kind, Design(x)), y, nlambda


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gram_instances())
def test_fit_matches_dense_solve_property(instance):
    kernel, y, nlambda = instance
    res = fit(kernel, y, nlambda)
    k = kernel.matrix
    assert _relative_residual(k, y, nlambda, res.alpha_hat) <= 1e-12
    alpha, sigma_g2, sigma_eps2 = dense_fit(k, y, nlambda)
    assert np.max(np.abs(res.alpha_hat - alpha)) <= 1e-8 * max(1.0, np.max(np.abs(alpha)))
    total = max(sigma_g2 + sigma_eps2, 1e-300)
    assert abs(res.sigma_g2_hat - sigma_g2) <= 1e-8 * total
    assert abs(res.sigma_eps2_hat - sigma_eps2) <= 1e-8 * total
    undefined = res.sigma_g2_hat + res.sigma_eps2_hat < 1e-300  # NaN marks exactly these
    assert np.isnan(res.h2_hat) == undefined
    if not undefined:
        assert 0.0 <= res.h2_hat <= 1.0


@st.composite
def design_instances(draw):
    """Any kernel on a design with p on either side of n, with duplicated
    and all-zero columns (a standardized monomorphic SNP is all zero)."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, n - 1)) if draw(st.booleans()) else draw(st.integers(n, n + 4))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-3.0, 3.0)))
    x = x[:, draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))]
    x[:, draw(arrays(np.bool_, p))] = 0.0
    y = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    kind = draw(st.sampled_from(KERNEL_KINDS))
    nlambda = draw(st.floats(1e-3, 1e3))
    return make_kernel(kind, Design(x)), y, nlambda


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(design_instances())
# y nearly in the range of K: sum((y - K alpha)^2) would lose its digits to cancellation.
@example((make_kernel("linear", Design(np.full((6, 1), 10.0))), np.full(6, 3.0), 2.0**-8))
def test_sweep_matches_spectral_solve_property(instance):
    kernel, y, nlambda = instance
    res = fit(kernel, y, nlambda)
    k = kernel.matrix
    eig = kernel.eig
    coef = eig.eigenvectors.T @ y
    alpha = eig.eigenvectors @ (coef / (eig.eigenvalues + nlambda))
    g = k @ alpha
    # y - K alpha = sum_i nlambda / (l_i + nlambda) (v_i . y) v_i, summed without cancellation.
    shrink = nlambda / (eig.eigenvalues + nlambda)
    sigma_g2 = float(np.var(g, ddof=1))
    sigma_eps2 = float(np.sum((shrink * coef) ** 2)) / len(y)
    assert _relative_residual(k, y, nlambda, res.alpha_hat) <= 1e-12
    assert np.max(np.abs(res.alpha_hat - alpha)) <= 1e-8 * max(1.0, np.max(np.abs(alpha)))
    total = sigma_g2 + sigma_eps2
    assert abs(res.sigma_g2_hat - sigma_g2) <= 1e-10 * total
    assert abs(res.sigma_eps2_hat - sigma_eps2) <= 1e-10 * total


def _recorded_eigh_orders(monkeypatch) -> list[int]:
    """Record the order of every matrix ``matrixcore.eigh`` factors."""
    orders = []
    real = matrixcore.eigh

    def recording(a):
        orders.append(np.shape(getattr(a, "data", a))[0])
        return real(a)

    monkeypatch.setattr(matrixcore, "eigh", recording)
    return orders


def _counted_lanczos_steps(monkeypatch) -> list[int]:
    """Count the Lanczos steps of every sweep (one ``_orthogonalize`` call each)."""
    steps = []
    real = krr._orthogonalize

    def counting(basis, w):
        steps.append(1)
        return real(basis, w)

    monkeypatch.setattr(krr, "_orthogonalize", counting)
    return steps


def test_dual_route_factors_only_the_gram(monkeypatch):
    """A linear-kernel sweep with p < n eigendecomposes nothing, not even T_k."""
    orders = _recorded_eigh_orders(monkeypatch)
    k = make_kernel("linear", Design(simulate_hwe(30, 5, seed=2).standardized()))
    y = np.random.default_rng(3).normal(size=30)
    lambda_grid_fit(k, y, DEFAULT_NLAMBDA_GRID)
    assert orders == []


def test_sweep_stops_before_the_krylov_space_is_exhausted(monkeypatch):
    orders = _recorded_eigh_orders(monkeypatch)
    steps = _counted_lanczos_steps(monkeypatch)
    k = make_kernel("poly2", Design(simulate_hwe(200, 50, seed=5).standardized()))
    y = np.random.default_rng(6).normal(size=200)
    for res in lambda_grid_fit(k, y, DEFAULT_NLAMBDA_GRID):
        assert _relative_residual(k.matrix, y, res.nlambda, res.alpha_hat) <= 1e-12
    assert 0 < len(steps) < 200
    assert orders == []


@st.composite
def sweep_instances(draw):
    """Genotype kernels large enough for the sweep to stop early, with whole grids."""
    n = draw(st.integers(30, 150))
    p = draw(st.integers(5, 2 * n))
    kind = draw(st.sampled_from(KERNEL_KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=11))
    return n, p, kind, seed, grid


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_instances())
def test_sweep_matches_dense_solve_over_grids_property(instance):
    n, p, kind, seed, grid = instance
    x = simulate_hwe(n, p, seed=seed).standardized()
    kernel = make_kernel(kind, Design(x, gaussian_bandwidth=p / 2.0))
    y = np.random.default_rng(seed).normal(size=n)
    k = kernel.matrix
    for nlambda, res in zip(grid, lambda_grid_fit(kernel, y, grid)):
        assert _relative_residual(k, y, nlambda, res.alpha_hat) <= 1e-12
        alpha = np.linalg.solve(k + nlambda * np.eye(n), y)
        assert np.max(np.abs(res.alpha_hat - alpha)) <= 1e-8 * max(1.0, np.max(np.abs(alpha)))


@st.composite
def population_instances(draw):
    """A simulated population's kernel and an ascending nlambda grid."""
    n = draw(st.integers(3, 120))
    p = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(KERNEL_KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=11)))
    kernel, pop = random_instance(seed, n=n, p=p, kind=kind)
    return kernel, pop.phenotypes, grid


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(population_instances())
def test_h2_in_unit_interval_property(instance):
    kernel, y, grid = instance
    for res in lambda_grid_fit(kernel, y, grid):
        assert np.isfinite(res.h2_hat)
        assert 0.0 <= res.h2_hat <= 1.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(population_instances())
def test_sigma_eps2_nondecreasing_property(instance):
    kernel, y, grid = instance
    values = [r.sigma_eps2_hat for r in lambda_grid_fit(kernel, y, grid)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12 * max(1.0, abs(a))


@st.composite
def planted_negative_instances(draw):
    """A spectrum with one eigenvalue -c l_max that y excites by >= 10% of its norm.

    l_max = 1 and nlambda <= l_max, as with kernels on the stock grids.
    Far above l_max the sweep may converge before it resolves the
    negative eigenvalue (3 misses in 153 random cases with nlambda from
    l_max to 10 l_max).
    """
    n = draw(st.integers(20, 160))
    c = draw(st.floats(1e-3, 1.0))
    share = draw(st.floats(0.1, 1.0))
    nlambda = draw(st.floats(1e-3, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.0, 1.0, size=n)
    lam[0], lam[-1] = 1.0, -c
    kernel = KernelMatrix(symmetrize((v * lam) @ v.T))
    rest = v[:, :-1] @ rng.normal(size=n - 1)
    y = share * v[:, -1] + np.sqrt(1.0 - share**2) * rest / np.linalg.norm(rest)
    return kernel, y, nlambda


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(planted_negative_instances())
def test_ritz_values_reveal_a_negative_eigenvalue_property(instance):
    kernel, y, nlambda = instance
    with pytest.raises(NumericalError, match="eigenvalue"):
        fit(kernel, y, nlambda)


@st.composite
def barely_excited_instances(draw):
    """A low-rank linear kernel and y = (null-space vector) + eps (range vector).

    T_1 = y^T K y / ||y||^2 is then about eps^2 times the kernel's scale,
    so a PSD tolerance taken from T_1 alone would reject the rounding-level
    negative Ritz values of a PSD kernel. With eps = 0, y lies in null(K),
    T_1 is rounding of either sign and the sweep breaks down at step 1.
    """
    n = draw(st.integers(40, 200))
    p = draw(st.integers(2, 39))
    eps = draw(st.just(0.0) | st.floats(-8.0, -2.0).map(lambda e: 10.0**e))
    seed = draw(st.integers(0, 2**32 - 1))
    z = simulate_hwe(n, p, seed=seed).standardized()
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(z)
    null = rng.normal(size=n)
    null -= q @ (q.T @ null)
    span = z @ rng.normal(size=p)
    y = null / np.linalg.norm(null) + eps * span / np.linalg.norm(span)
    return make_kernel("linear", Design(z)), y


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(barely_excited_instances())
def test_barely_excited_psd_kernel_is_not_rejected_property(instance):
    kernel, y = instance
    for res in lambda_grid_fit(kernel, y, DEFAULT_NLAMBDA_GRID):
        assert _relative_residual(kernel.matrix, y, res.nlambda, res.alpha_hat) <= 1e-12


@st.composite
def invariance_instances(draw):
    """Any kernel on either side of p < n, a permutation and a scale for y.

    nlambda spans the stock grid; far below it (nlambda = 1e-3) rounding
    alone moves the estimates of a permuted problem by about 1e-11.
    """
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, n - 1)) if draw(st.booleans()) else draw(st.integers(n, n + 4))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-3.0, 3.0)))
    y = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    assume(np.linalg.norm(y) >= 1e-3)
    kind = draw(st.sampled_from(KERNEL_KINDS))
    nlambda = draw(st.floats(0.1, 10.0))
    perm = np.array(draw(st.permutations(range(n))))
    c = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from((-1.0, 1.0)))
    return kind, x, y, nlambda, perm, c


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invariance_instances())
def test_permuting_individuals_leaves_estimates_unchanged(instance):
    kind, x, y, nlambda, perm, _ = instance
    a = fit(make_kernel(kind, Design(x)), y, nlambda)
    b = fit(make_kernel(kind, Design(x[perm])), y[perm], nlambda)
    total = a.sigma_g2_hat + a.sigma_eps2_hat
    assert abs(a.sigma_g2_hat - b.sigma_g2_hat) <= 1e-12 * total
    assert abs(a.sigma_eps2_hat - b.sigma_eps2_hat) <= 1e-12 * total
    assert np.isfinite([a.h2_hat, b.h2_hat]).all()
    assert abs(a.h2_hat - b.h2_hat) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invariance_instances())
def test_scaling_phenotypes_leaves_h2_unchanged(instance):
    kind, x, y, nlambda, _, c = instance
    k = make_kernel(kind, Design(x))
    a, b = fit(k, y, nlambda), fit(k, c * y, nlambda)
    assert np.isfinite([a.h2_hat, b.h2_hat]).all()
    assert abs(a.h2_hat - b.h2_hat) <= 1e-12
