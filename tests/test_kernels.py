import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernherit import kernels, krr, matrixcore, spectra
from kernherit.exceptions import NumericalError
from kernherit.genotypes import GenotypeMatrix, simulate_hwe
from kernherit.kernels import KERNEL_KINDS, Design, KernelMatrix, design_matrix, make_kernel

from helpers import naive_gaussian_kernel, naive_linear_kernel, symmetrize


def _counted_eigh_calls(monkeypatch) -> list[int]:
    """Record one entry per ``matrixcore.eigh`` call (``KernelMatrix.eig`` calls it)."""
    calls = []
    real = matrixcore.eigh

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(matrixcore, "eigh", counting)
    return calls


class TestKernelMatrix:
    """The one kernel type checks its matrix where it enters and owns a copy."""

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not exactly symmetric"):
            KernelMatrix(np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            KernelMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            KernelMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            KernelMatrix(np.zeros((0, 0)))

    def test_adopt_rejects_empty(self):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            KernelMatrix._adopt(np.zeros((0, 0)))

    def test_symmetrize_produces_exact_symmetry(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        m = symmetrize(a)
        assert np.array_equal(m, m.T)
        assert np.array_equal(KernelMatrix(m).matrix, m)

    def test_data_is_readonly(self):
        k = KernelMatrix(np.eye(3))
        with pytest.raises(ValueError):
            k.matrix[0, 0] = 2.0

    def test_caller_mutation_leaves_kernel_and_eig_unchanged(self):
        a = np.diag([3.0, 2.0, 1.0])
        k = KernelMatrix(a)
        eigenvalues = k.eig.eigenvalues.copy()
        a[0, 0] = 7.0
        a[0, 1] = a[1, 0] = 0.5
        assert np.array_equal(k.matrix, np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(k.eig.eigenvalues, eigenvalues)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_overflowed_gram_rejected(self, kind):
        """Without the Gram's own check this Gaussian kernel would be a finite identity."""
        design = Design(np.array([[1e200], [-1e200], [1.0]]))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            make_kernel(kind, design)

    def test_overflowing_norm_rejected(self):
        """Finite entries whose ||K||_F overflows would make every residual bound infinite."""
        x = np.random.default_rng(0).standard_normal((6, 3))
        with pytest.raises(ValueError, match="^matrix Frobenius norm overflows$"):
            KernelMatrix((x @ x.T) * 1e160)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_overflowing_gram_norm_rejected(self, kind):
        """The Gram of finite rows can have finite entries and an infinite norm."""
        x = np.random.default_rng(0).standard_normal((6, 3))
        with pytest.raises(ValueError, match="^matrix Frobenius norm overflows$"):
            make_kernel(kind, Design(x * 1e80))

    def test_admitted_norm_is_kept(self):
        k = make_kernel("poly2", Design(np.random.default_rng(1).standard_normal((7, 4))))
        a = k.matrix
        assert k.frobenius_norm == math.sqrt(float(np.einsum("ij,ij->", a, a)))
        assert KernelMatrix(a).frobenius_norm == k.frobenius_norm


class TestLinearKernel:
    def test_identity_like(self):
        k = make_kernel("linear", design_matrix(GenotypeMatrix(np.eye(2, dtype=np.int8)), False))
        assert np.allclose(k.matrix, [[0.5, 0.0], [0.0, 0.5]])

    def test_single_snp_outer_product(self):
        g = GenotypeMatrix(np.array([[2], [1]], dtype=np.int8))
        k = make_kernel("linear", design_matrix(g, False))
        assert np.allclose(k.matrix, [[4.0, 2.0], [2.0, 1.0]])

    def test_matches_naive_double_loop(self):
        g = simulate_hwe(6, 4, seed=5)
        k = make_kernel("linear", design_matrix(g, False))
        assert np.max(np.abs(k.matrix - naive_linear_kernel(g.as_float()))) < 1e-12


class TestPolynomialKernel:
    def test_zero_matrix_gives_all_ones(self):
        k = make_kernel("poly2", Design(np.zeros((3, 2))))
        assert np.array_equal(k.matrix, np.ones((3, 3)))

    def test_entrywise_square_of_one_plus_linear(self):
        z = np.eye(2)  # linear diagonal entries 0.5
        k = make_kernel("poly2", Design(z))
        assert np.allclose(np.diag(k.matrix), 2.25)
        assert np.allclose(k.matrix[0, 1], 1.0)

    def test_numerically_psd(self):
        g = simulate_hwe(15, 6, seed=7)
        k = make_kernel("poly2", design_matrix(g, False))
        lam = k.eig.eigenvalues
        assert lam[-1] >= -matrixcore.PSD_RTOL * lam[0]


class TestGaussianKernel:
    def test_identical_rows(self):
        z = np.array([[1.0, 2.0], [1.0, 2.0]])
        k = make_kernel("gaussian", Design(z))
        assert k.matrix[0, 1] == 1.0

    def test_one_snp_apart(self):
        z = np.array([[1.0, 0.0], [1.0, 1.0]])
        k = make_kernel("gaussian", Design(z))
        assert np.isclose(k.matrix[0, 1], np.exp(-0.5))

    def test_unit_diagonal_exact(self):
        g = simulate_hwe(10, 5, seed=2)
        k = make_kernel("gaussian", design_matrix(g, False))
        assert np.array_equal(np.diag(k.matrix), np.ones(10))

    def test_matches_naive_distance_loop(self):
        g = simulate_hwe(7, 4, seed=9)
        k = make_kernel("gaussian", design_matrix(g, False))
        assert np.max(np.abs(k.matrix - naive_gaussian_kernel(g.as_float()))) < 1e-12

    def test_bandwidth_rescales_distances(self):
        z = np.array([[0.0], [2.0]])
        k = make_kernel("gaussian", Design(z, gaussian_bandwidth=4.0))
        assert np.isclose(k.matrix[0, 1], np.exp(-0.5 * 4.0 / 4.0))

    def test_entries_in_unit_interval(self):
        g = simulate_hwe(12, 6, seed=3)
        k = make_kernel("gaussian", design_matrix(g, False))
        assert np.all(k.matrix > 0.0) and np.all(k.matrix <= 1.0)

    def test_rejects_bad_bandwidth(self):
        g = simulate_hwe(4, 3, seed=0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            message = f"bandwidth must be positive and finite, got {bad}"
            with pytest.raises(ValueError, match=message):
                make_kernel("gaussian", Design(np.zeros((2, 2)), gaussian_bandwidth=bad))
            # Rejected where the design is built, even when no Gaussian kernel is asked for.
            with pytest.raises(ValueError, match=message):
                make_kernel("linear", Design(np.zeros((2, 2)), gaussian_bandwidth=bad))
            for standardize in (True, False):
                with pytest.raises(ValueError, match=message):
                    design_matrix(g, standardize, bad)


@st.composite
def raw_count_designs(draw):
    """Raw allele counts of any shape, as a GenotypeMatrix, and a Gaussian bandwidth."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 30))
    counts = draw(arrays(np.int8, (n, p), elements=st.integers(0, 2)))
    return GenotypeMatrix(counts), draw(st.floats(1e-2, 1e3))


class TestSharedProperties:
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(instance=raw_count_designs(), standardize=st.booleans())
    def test_exact_bit_symmetry(self, kind, instance, standardize):
        g, bandwidth = instance
        k = make_kernel(kind, design_matrix(g, standardize, bandwidth))
        assert np.array_equal(k.matrix, k.matrix.T)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(instance=raw_count_designs(), data=st.data())
    def test_permuting_rows_permutes_kernel(self, kind, instance, data):
        g, bandwidth = instance
        perm = np.array(data.draw(st.permutations(range(g.n))))
        k = make_kernel(kind, Design(g.as_float(), bandwidth))
        kp = make_kernel(kind, Design(g.as_float()[perm], bandwidth))
        assert np.allclose(kp.matrix, k.matrix[np.ix_(perm, perm)], atol=1e-13)

    @pytest.mark.parametrize("kind", ["linear", "poly2"])
    def test_column_order_invariance(self, kind):
        g = simulate_hwe(8, 6, seed=8)
        shuffled = g.as_float()[:, ::-1]
        a = make_kernel(kind, design_matrix(g, False)).matrix
        b = make_kernel(kind, Design(shuffled)).matrix
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            make_kernel("cubic", Design(np.zeros((2, 2))))

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Design(np.zeros((0, 3)))


@st.composite
def genotype_designs(draw):
    """Genotypes with p on either side of n, duplicated and all-zero
    columns, taken standardized or raw."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, n - 1)) if draw(st.booleans()) else draw(st.integers(n, n + 6))
    counts = draw(arrays(np.int8, (n, p), elements=st.integers(0, 2)))
    counts = counts[:, draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))]
    counts[:, draw(arrays(np.bool_, p))] = 0
    return GenotypeMatrix(counts), draw(st.booleans())


def _out_of_place_kernel(kind, z, bandwidth):
    """Each kernel written as one out-of-place expression from its own Gram."""
    a = z @ z.T
    gram = (a + a.T) / 2.0
    if kind == "linear":
        return gram / z.shape[1]
    if kind == "poly2":
        return (1.0 + gram / z.shape[1]) ** 2
    sq = np.diag(gram)
    return np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0) / bandwidth)


def _dense_kernel(kind, z, bandwidth):
    """The defining formulas, with distances taken from row differences."""
    if kind == "gaussian":
        d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * bandwidth))
    linear = np.einsum("ik,jk->ij", z, z) / z.shape[1]
    return linear if kind == "linear" else (1.0 + linear) ** 2


class TestSharedDesign:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(genotype_designs())
    def test_shared_gram_matches_fresh_and_dense_kernels(self, instance):
        g, standardize = instance
        design = design_matrix(g, standardize)
        z, bandwidth = np.array(design.data), design.gaussian_bandwidth
        # The Gaussian kernel is the Gram identity on the design's own Gram, so
        # each distance (i, i) is 2 G_ii - 2 G_ii = 0 and K_ii is exactly 1.
        gram = design.gram
        sq = np.diag(gram)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        from_gram = np.exp(-0.5 * d2 / bandwidth)
        for kind in KERNEL_KINDS:
            shared = make_kernel(kind, design).matrix
            fresh = make_kernel(kind, Design(z, bandwidth)).matrix
            assert np.array_equal(shared, fresh)
            assert np.array_equal(shared, _out_of_place_kernel(kind, z, bandwidth))
            assert np.max(np.abs(shared - _dense_kernel(kind, z, bandwidth))) <= 1e-12
            if kind == "gaussian":
                assert np.array_equal(shared, from_gram)
                assert (np.diag(shared) == 1.0).all()

    @pytest.mark.parametrize("standardize", [True, False])
    def test_one_gram_product_per_design(self, monkeypatch, standardize):
        orders = []
        real = Design.gram.func

        def recording(design):
            gram = real(design)
            orders.append(gram.shape)
            return gram

        monkeypatch.setattr(Design.gram, "func", recording)
        g = simulate_hwe(20, 7, seed=3)
        design = design_matrix(g, standardize, 3.5)
        assert np.shape(design) == (20, 7) and orders == []
        for kind in KERNEL_KINDS:
            make_kernel(kind, design)
        assert orders == [(20, 20)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 130), st.integers(2, 170), st.integers(0, 2**32 - 1))
    def test_layout_leaves_kernel_bits_unchanged(self, n, p, seed):
        """A design built from any view of an array, contiguous or strided,
        gives the kernels of its contiguous copy, bit for bit."""
        base = np.random.default_rng(seed).normal(size=(n, p))
        views = (base, np.asfortranarray(base), base[:, ::2], base[::-1, ::-1])
        for view in views:
            bandwidth = view.shape[1] / 2.0
            design = Design(view, bandwidth)
            copy = Design(np.ascontiguousarray(view), bandwidth)
            for kind in KERNEL_KINDS:
                got = make_kernel(kind, design).matrix
                want = make_kernel(kind, copy).matrix
                assert np.array_equal(got, want), (kind, view.strides)

    def test_design_is_read_only_and_leaves_its_input_writable(self):
        g = simulate_hwe(6, 3, seed=1)
        design = design_matrix(g, True)
        assert not design.data.flags.writeable and not design.gram.flags.writeable
        z = g.standardized()
        make_kernel("linear", Design(z))
        assert z.flags.writeable


def _block_rows(monkeypatch, n, rows):
    """Make kernel builds and checks of order n use blocks of ``rows`` rows."""
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows * n)
    assert len(kernels._row_blocks(n)) == -(-n // rows)


def _rejection(build, a) -> str:
    with pytest.raises(ValueError) as exc:
        build(a)
    return str(exc.value)


class TestBlockedBuild:
    """``make_kernel`` fills one array in row blocks and the kernel adopts it."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("rows", [1, 2, 3, "n+1"])
    def test_block_size_leaves_kernel_bits_unchanged(self, monkeypatch, n, rows):
        _block_rows(monkeypatch, n, n + 1 if rows == "n+1" else rows)
        z = np.random.default_rng(n).normal(size=(n, 9))
        design = Design(z, 4.5)
        for kind in KERNEL_KINDS:
            got = make_kernel(kind, design).matrix
            assert np.array_equal(got, _out_of_place_kernel(kind, z, 4.5)), kind

    @staticmethod
    def symmetric(n):
        return symmetrize(np.random.default_rng(n).normal(size=(n, n)))

    @pytest.mark.parametrize("rows", [2, 3])
    def test_nan_in_last_partial_block_rejected(self, monkeypatch, rows):
        n = 7  # blocks of 2 or 3 rows end with a block of 1 row
        _block_rows(monkeypatch, n, rows)
        a = self.symmetric(n)
        a[n - 1, 0] = np.nan  # also breaks symmetry, but finiteness is checked first
        public = _rejection(KernelMatrix, a)
        assert public == "matrix entries must be finite"
        assert _rejection(KernelMatrix._adopt, a) == public

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_asymmetric_pair_across_blocks_rejected(self, monkeypatch, rows):
        n = 7
        _block_rows(monkeypatch, n, rows)
        a = self.symmetric(n)
        a[n - 1, 0] = np.nextafter(a[0, n - 1], np.inf)
        public = _rejection(KernelMatrix, a)
        assert public == "matrix is not exactly symmetric"
        assert _rejection(KernelMatrix._adopt, a) == public

    def test_adopted_array_is_kept_without_a_copy(self):
        a = self.symmetric(5)
        k = KernelMatrix._adopt(a)
        assert k.matrix is a and not a.flags.writeable
        for kind in KERNEL_KINDS:
            m = make_kernel(kind, Design(np.eye(5))).matrix
            assert m.flags.owndata and not m.flags.writeable

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_build_allocates_one_kernel_sized_array(self, kind):
        n = 400
        design = Design(np.random.default_rng(0).normal(size=(n, 50)), 25.0)
        design.gram  # cached before tracing, as every kernel of a design shares it
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            make_kernel(kind, design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n


class TestScratch:
    """A design given a scratch builds its Gram and kernels in the scratch's buffers."""

    @pytest.mark.parametrize(
        "shape, strided",
        [((1, 5), False), ((6, 1), False), ((30, 7), False), ((7, 30), False), ((20, 9), True)],
        ids=["n=1", "p=1", "n>p", "n<p", "strided"],
    )
    def test_gram_is_bitwise_z_zt(self, shape, strided):
        scratch = kernels._Scratch(40)
        Design(np.ones((40, 3)), scratch=scratch).gram  # leaves stale entries behind
        base = np.random.default_rng(shape[0]).normal(size=(shape[0], 2 * shape[1]))
        view = base[:, ::2] if strided else base[:, : shape[1]]
        design = Design(view, scratch=scratch)
        z = np.ascontiguousarray(view)
        gram = design.gram
        assert np.shares_memory(gram, scratch._buffers["gram"])
        assert gram.flags.c_contiguous and not gram.flags.writeable
        assert np.array_equal(gram, z @ z.T) and np.array_equal(gram, gram.T)
        for kind in KERNEL_KINDS:
            k = make_kernel(kind, design).matrix
            assert np.shares_memory(k, scratch._buffers["kernel"])
            assert np.array_equal(k, make_kernel(kind, Design(z)).matrix), kind

    def test_pickled_scratch_has_no_buffers(self):
        scratch = kernels._Scratch(100)
        make_kernel("gaussian", Design(np.ones((100, 4)), scratch=scratch))
        assert sorted(scratch._buffers) == ["gram", "kernel"]
        data = pickle.dumps(scratch)
        copy = pickle.loads(data)
        assert copy.n_max == 100 and copy._buffers == {}
        assert len(data) < 1000
        assert sorted(scratch._buffers) == ["gram", "kernel"]  # the original keeps its own

    def test_gram_check_allocates_no_order_n2_array(self):
        """The Gram's norm check allocates nothing of order n^2."""
        n = 400
        scratch = kernels._Scratch(n)
        data = np.random.default_rng(0).normal(size=(n, 50))
        Design(data, scratch=scratch).gram  # allocates the scratch's Gram buffer
        design = Design(data, scratch=scratch)
        tracemalloc.start()
        try:
            design.gram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n / 4  # an n-by-n bool array is n^2 bytes


class TestEigCaching:
    def test_lazy_and_cached(self, monkeypatch):
        calls = _counted_eigh_calls(monkeypatch)
        k = make_kernel("linear", design_matrix(simulate_hwe(6, 3, seed=1), False))
        assert len(calls) == 0
        first = k.eig
        assert len(calls) == 1
        assert k.eig is first
        assert len(calls) == 1

    def test_basis_verified_once_and_never_for_fits(self, monkeypatch):
        calls = []
        real = matrixcore._residuals

        def counting(a, dec):
            calls.append(1)
            return real(a, dec)

        monkeypatch.setattr(matrixcore, "_residuals", counting)
        k = make_kernel("linear", design_matrix(simulate_hwe(30, 5, seed=2), False))
        y = np.arange(30.0)
        krr.lambda_grid_fit(k, y, (0.5, 1.0))
        assert calls == []
        spectra.check_conditions(k, y)
        spectra.decompose_terms(k, y, y / 2.0, 1.0)
        spectra.esd_integrals(k, 1.0)
        assert calls == [1]
        assert k.eig is k.eig and calls == [1]


class TestCorruptedFactorization:
    """Eigenvectors, Lanczos vectors or ridge solutions off by about 1e-6 must
    not pass silently anywhere."""

    @staticmethod
    def corrupt_eigh(monkeypatch):
        real = np.linalg.eigh

        def corrupted(a):
            w, v = real(a)
            return w, v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)

        monkeypatch.setattr(np.linalg, "eigh", corrupted)  # what matrixcore.eigh calls

    @staticmethod
    def instances():
        """A linear kernel of rank below n and a full-rank poly2 one, on one design."""
        design = Design(simulate_hwe(40, 12, seed=4).standardized())
        y = np.random.default_rng(1).normal(size=40)
        return [(make_kernel("linear", design), y), (make_kernel("poly2", design), y)]

    def test_ridge_sweep_fails_its_residual_check(self, monkeypatch):
        real = krr._back_substitute
        rng = np.random.default_rng(0)

        def corrupted(lower, v):
            c = real(lower, v)
            return c + 1e-6 * np.linalg.norm(c) / np.sqrt(c.size) * rng.standard_normal(c.size)

        monkeypatch.setattr(krr, "_back_substitute", corrupted)
        for k, y in self.instances():
            with pytest.raises(NumericalError, match="residual check"):
                krr.lambda_grid_fit(k, y, krr.DEFAULT_NLAMBDA_GRID)

    def test_perturbed_lanczos_vectors_fail_residual_check(self, monkeypatch):
        real = krr._orthogonalize
        rng = np.random.default_rng(0)

        def perturbed(basis, w):
            h = real(basis, w)
            w += 1e-6 * np.linalg.norm(w) / np.sqrt(w.size) * rng.standard_normal(w.size)
            return h

        monkeypatch.setattr(krr, "_orthogonalize", perturbed)
        # The residual check alone must catch it; the PSD check, off at an
        # infinite tolerance, may fire first.
        monkeypatch.setattr(matrixcore, "PSD_RTOL", math.inf)
        for k, y in self.instances():
            with pytest.raises(NumericalError, match="residual check"):
                krr.lambda_grid_fit(k, y, krr.DEFAULT_NLAMBDA_GRID)

    def test_nonfinite_eigenvectors_rejected(self, monkeypatch):
        real = np.linalg.eigh

        def poisoned(a):
            w, v = real(a)
            v = v.copy()
            v[0, 0] = np.nan
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        calls = _counted_eigh_calls(monkeypatch)
        for k, _ in self.instances():
            for attempt in (1, 2):  # a failure is not cached
                with pytest.raises(NumericalError, match="non-finite"):
                    k.eig
                assert len(calls) == attempt
            calls.clear()

    def test_indefinite_spectrum_rejected(self):
        for k, y in self.instances():
            negated = KernelMatrix(-k.matrix)
            with pytest.raises(NumericalError, match="not positive semidefinite"):
                krr.fit(negated, y, 1.0)

    def test_nan_solution_fails_residual_check(self):
        for k, y in self.instances():
            with pytest.raises(NumericalError, match="residual check"):
                krr._finalize(k, y, 1.0, np.full(k.n, np.nan))

    def test_eigh_alone_fails_basis_verification(self, monkeypatch):
        self.corrupt_eigh(monkeypatch)
        for k, _ in self.instances():
            with pytest.raises(NumericalError, match="failed verification"):
                matrixcore.eigh(k.matrix)

    def test_spectra_fail_basis_verification(self, monkeypatch):
        self.corrupt_eigh(monkeypatch)
        calls = _counted_eigh_calls(monkeypatch)
        for k, y in self.instances():
            with pytest.raises(NumericalError, match="failed verification"):
                spectra.check_conditions(k, y)
            assert len(calls) == 1
            with pytest.raises(NumericalError, match="failed verification"):
                k.eig
            assert len(calls) == 2  # the failed factorization was not cached
            calls.clear()
