import contextlib
import gzip
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from kernherit import genotypes
from kernherit.exceptions import DataError
from kernherit.genotypes import (
    GenotypeMatrix,
    MafLaw,
    hwe_probabilities,
    read_genotype_csv,
    simulate_hwe,
    subsample,
    write_genotype_csv,
)

from helpers import ODD_TOKENS, naive_read_genotype_csv, rowwise_write_genotype_csv


class TestHweProbabilities:
    def test_symmetric_allele(self):
        assert hwe_probabilities(0.5) == (0.25, 0.5, 0.25)

    def test_direct_evaluation(self):
        p0, p1, p2 = hwe_probabilities(0.2)
        assert np.allclose([p0, p1, p2], [0.64, 0.32, 0.04])

    def test_limit_of_rare_allele(self):
        p0, p1, p2 = hwe_probabilities(1e-9)
        assert p0 > 1.0 - 3e-9
        assert p1 < 3e-9
        assert p2 < 1e-17

    def test_sums_to_one(self):
        for maf in (0.01, 0.13, 0.37, 0.5):
            assert abs(sum(hwe_probabilities(maf)) - 1.0) < 1e-15

    @pytest.mark.parametrize("maf", [0.0, -0.1, 0.51, 1.0])
    def test_rejects_out_of_range(self, maf):
        with pytest.raises(ValueError):
            hwe_probabilities(maf)


class TestMafLaw:
    def test_defaults(self):
        law = MafLaw()
        assert law.lower == 0.01 and law.upper == 0.5

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (0.2, 0.1), (0.1, 0.6)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            MafLaw(lo, hi)


class TestSimulateHwe:
    def test_single_snp_frequencies_within_binomial_error(self):
        n = 10000
        g = simulate_hwe(n, 1, seed=1234)
        m = float(g.maf[0])
        counts = np.bincount(g.data[:, 0], minlength=3)
        for k, prob in enumerate(hwe_probabilities(m)):
            se = np.sqrt(n * prob * (1.0 - prob))
            assert abs(counts[k] - n * prob) <= 4.0 * max(se, 1.0)

    def test_same_seed_identical(self):
        a = simulate_hwe(40, 7, seed=9)
        b = simulate_hwe(40, 7, seed=9)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.maf, b.maf)

    def test_tiny_matrix_domain(self):
        g = simulate_hwe(1, 3, seed=0)
        assert g.data.shape == (1, 3)
        assert set(np.unique(g.data)) <= {0, 1, 2}

    def test_maf_within_law(self):
        law = MafLaw(0.05, 0.3)
        g = simulate_hwe(10, 200, law, seed=2)
        assert np.all(g.maf >= 0.05) and np.all(g.maf <= 0.3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate_hwe(0, 3, seed=0)

    def test_hwe_goodness_of_fit(self):
        # Small-scale version of the generator statistics check; the
        # full-size one runs in the acceptance suite.
        g = simulate_hwe(4000, 300, seed=77)
        passed = 0
        for j in range(g.p):
            counts = np.bincount(g.data[:, j], minlength=3)
            expected = 4000 * np.array(hwe_probabilities(float(g.maf[j])))
            p_value = stats.chisquare(counts, expected).pvalue
            passed += p_value >= 0.001
        assert passed >= 0.98 * g.p


class TestSubsample:
    def test_counts_reproducible(self):
        g = simulate_hwe(10, 6, seed=5)
        a = subsample(g, rows=5, cols=3, seed=11)
        b = subsample(g, rows=5, cols=3, seed=11)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.maf, b.maf)

    def test_indices_sorted_so_full_draw_is_identity(self):
        g = simulate_hwe(15, 3, seed=6)
        s = subsample(g, rows=15, seed=123)
        assert np.array_equal(s.data, g.data)

    def test_oversampling_rejected(self):
        g = simulate_hwe(5, 5, seed=1)
        with pytest.raises(ValueError, match="requested"):
            subsample(g, rows=6, seed=0)
        with pytest.raises(ValueError, match="requested"):
            subsample(g, rows=2, cols=9, seed=0)


class TestCsvRoundTrip:
    def test_small_literal(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n2,0\n")
        g = read_genotype_csv(path)
        assert np.array_equal(g.data, [[0, 1], [2, 0]])

    def test_bad_value_names_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n0,3\n")
        with pytest.raises(DataError, match=r"line 2, column 2"):
            read_genotype_csv(path)

    def test_non_integer_names_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,x\n")
        with pytest.raises(DataError, match=r"line 1, column 2"):
            read_genotype_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,2\n0,1\n")
        with pytest.raises(DataError, match="ragged row at line 2"):
            read_genotype_csv(path)

    def test_round_trip_bitwise(self, tmp_path):
        g = simulate_hwe(50, 20, seed=3)
        path = tmp_path / "g.csv"
        write_genotype_csv(g, path)
        back = read_genotype_csv(path)
        assert np.array_equal(back.data, g.data)

    def test_gzip_round_trip(self, tmp_path):
        g = simulate_hwe(10, 4, seed=3)
        path = tmp_path / "g.csv.gz"
        write_genotype_csv(g, path)
        back = read_genotype_csv(path)
        assert np.array_equal(back.data, g.data)

    def test_gzip_not_written_at_level_9(self, tmp_path):
        """Byte 8 of a gzip header (XFL) is 2 only at compresslevel 9,
        which takes over 20 times as long as level 6 on genotype text."""
        path = tmp_path / "g.csv.gz"
        write_genotype_csv(simulate_hwe(10, 4, seed=3), path)
        assert path.read_bytes()[8] != 2


def _matrices(max_n=30, max_p=30):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_p)).flatmap(
        lambda shape: arrays(np.int8, shape, elements=st.integers(0, 2))
    )


def _read_bytes(path):
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
        return fh.read()


@contextlib.contextmanager
def _counted_scans():
    """Record the path of each call of the field scan inside the block."""
    calls = []
    scan = genotypes.scan_csv

    def counted(path, *args, **kwargs):
        calls.append(path)
        return scan(path, *args, **kwargs)

    genotypes.scan_csv = counted
    try:
        yield calls
    finally:
        genotypes.scan_csv = scan


class TestCsvWriter:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_matrices(), _matrices(1, 1), _matrices(1, 40), _matrices(40, 1)),
           st.sampled_from(["g.csv", "g.csv.gz"]))
    def test_bytes_equal_rowwise_writer(self, counts, name):
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = os.path.join(tmp, "a" + name), os.path.join(tmp, "b" + name)
            write_genotype_csv(GenotypeMatrix(counts), ours)
            rowwise_write_genotype_csv(counts, theirs)
            assert _read_bytes(ours) == _read_bytes(theirs)


class TestCanonicalLayout:
    """Every variant of the written layout is read back without the scan."""

    @staticmethod
    def _variant(text, kind):
        if kind == "crlf":
            return text.replace("\n", "\r\n")
        if kind == "no_final_newline":
            return text[:-1]
        if kind == "space_padded":
            return "\n".join(" " + line.replace(",", " ,\t") + "  " for line in
                             text.splitlines()) + "\n"
        return text

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_matrices(12, 12),
           st.sampled_from(["plain", "crlf", "no_final_newline", "space_padded"]),
           st.booleans())
    def test_round_trip(self, counts, kind, gz):
        g = GenotypeMatrix(counts)
        with tempfile.TemporaryDirectory() as tmp, _counted_scans() as scans:
            source = os.path.join(tmp, "w.csv")
            write_genotype_csv(g, source)
            with open(source) as fh:
                text = self._variant(fh.read(), kind)
            path = os.path.join(tmp, "g.csv.gz" if gz else "g.csv")
            with (gzip.open if gz else open)(path, "wt", newline="") as fh:
                fh.write(text)
            back = read_genotype_csv(path)
        assert np.array_equal(back.data, g.data)
        assert back.data.dtype == np.int8
        assert scans == []

    def test_blank_line_is_left_to_the_scan(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n\n2,0\n")
        with _counted_scans() as scans:
            assert np.array_equal(read_genotype_csv(path).data, [[0, 1], [2, 0]])
        assert scans == [path]

    def test_lone_carriage_returns_are_left_to_the_scan(self, tmp_path):
        path, twin = tmp_path / "cr.csv", tmp_path / "lf.csv"
        path.write_bytes(b"0,1,2\r1,2,0\r")
        twin.write_bytes(b"0,1,2\n1,2,0\n")
        with _counted_scans() as scans:
            back = read_genotype_csv(path)
        assert scans == [path]
        assert np.array_equal(back.data, read_genotype_csv(twin).data)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_matrices(8, 8), st.data(), st.sampled_from(["3", "x", "-1", "1.0", "9", "2 2"]))
def test_bad_cell_is_named_by_file_line_and_column(counts, data, token):
    """A canonical file with one bad cell goes to the scan, whose message
    names the cell's file line and column."""
    row = data.draw(st.integers(0, counts.shape[0] - 1))
    col = data.draw(st.integers(0, counts.shape[1] - 1))
    lines = [[str(v) for v in r] for r in counts]
    lines[row][col] = token
    text = "".join(",".join(r) + "\n" for r in lines)
    with tempfile.TemporaryDirectory() as tmp, _counted_scans() as scans:
        path = os.path.join(tmp, "g.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(DataError) as err:
            read_genotype_csv(path)
    assert scans == [path]
    assert f"at line {row + 1}, column {col + 1}" in str(err.value)


@st.composite
def genotype_files(draw):
    """(text, gzip flag) of a small genotype CSV, maybe corrupted."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[str(draw(st.integers(0, 2))) for _ in range(p)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token", "ragged", "blank", "empty"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "token":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "ragged":
            if len(rows[i]) > 1 and draw(st.booleans()):
                rows[i].pop()
            else:
                rows[i].append("0")
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  ", "\t"]))])
        else:
            rows = [[""]]
    lines = [",".join(r) for r in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, draw(st.booleans())


def _outcome(read, path):
    try:
        return "ok", read(path).tolist()
    except DataError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(genotype_files())
def test_reader_matches_field_scan_oracle(case):
    text, gz = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.csv.gz" if gz else "g.csv")
        with (gzip.open if gz else open)(path, "wt", newline="") as fh:
            fh.write(text)
        expected = _outcome(naive_read_genotype_csv, path)
        got = _outcome(lambda p: read_genotype_csv(p).data, path)
    assert got == expected


class TestGenotypeMatrix:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="0, 1, or 2"):
            GenotypeMatrix(np.array([[0, 3]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            GenotypeMatrix(np.zeros((0, 3), dtype=np.int8))

    @pytest.mark.parametrize("values", [
        np.array([[True, False]]),
        np.array([[0, 1, 2]], dtype=np.int8),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[2, 3]], dtype=np.int64),
        np.array([[0, 2**40]], dtype=np.int64),
        np.array([[1, 2, 258]], dtype="<u2"),  # 258 casts to int8 2
        np.array([[0.0, -0.0, 1.0, 2.0]]),
        np.array([[np.nan, 1.0]]),
        np.array([[0.5, 1.0]]),
        np.array([[3.0, 0.0]]),
        np.array([[np.inf, 0.0]]),
        np.array([[0, 1.0, 2]], dtype=object),
        np.array([[0, None]], dtype=object),
        np.array([[0, "1"]], dtype=object),
        np.array([["0", "1"]]),
        np.array([[b"0", b"2"]]),
    ])
    def test_domain_check_matches_isin(self, values):
        if np.isin(values, (0, 1, 2)).all():
            assert np.array_equal(GenotypeMatrix(values).data, values.astype(np.int8))
        else:
            with pytest.raises(ValueError, match="0, 1, or 2"):
                GenotypeMatrix(values)

    def test_standardized_columns(self):
        g = GenotypeMatrix(np.array([[0, 1], [2, 1], [1, 1]]))
        w = g.standardized()
        assert np.allclose(w.mean(axis=0), 0.0, atol=1e-15)
        # Monomorphic column maps to zeros instead of dividing by zero.
        assert np.allclose(w[:, 1], 0.0)
        assert np.allclose(w[:, 0].std(), 1.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
            lambda shape: arrays(np.int8, shape, elements=st.integers(0, 2))
        ),
        st.integers(0, 2),
    )
    def test_standardized_equals_mean_and_std_formula_bitwise(self, counts, fill):
        counts[:, :: max(1, counts.shape[1] // 3)] = fill  # monomorphic columns
        z = counts.astype(np.float64)
        sd = z.std(axis=0)
        expected = (z - z.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
        assert np.array_equal(GenotypeMatrix(counts).standardized(), expected)
