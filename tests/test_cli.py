import contextlib
import dataclasses
import gzip
import io
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernherit import harness, spectra
from kernherit.cli import _read_numeric, build_parser, main
from kernherit.genotypes import read_genotype_csv, simulate_hwe, write_genotype_csv
from kernherit.exceptions import DataError
from kernherit.harness import build_mc_population, parse_config, preset_config
from kernherit.kernels import KERNEL_KINDS
from kernherit.krr import DEFAULT_NLAMBDA_GRID

from helpers import ODD_TOKENS

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_GENO = os.path.join(DATA, "fixture.genotypes.csv")
FIXTURE_PHENO = os.path.join(DATA, "fixture.phenotypes.csv")
FIXTURE_G = os.path.join(DATA, "fixture.gvalues.csv")
FIXTURE_GOLDEN = os.path.join(DATA, "fixture.golden_estimates.csv")
GOLDEN_DIAGNOSE = os.path.join(DATA, "fixture.golden_diagnose_{}.txt")
FIXTURE = (FIXTURE_GENO, FIXTURE_PHENO, FIXTURE_G)


def run(*argv) -> int:
    return main(list(argv))


class TestSimulate:
    def test_explicit_args_write_all_files(self, tmp_path, capsys):
        prefix = tmp_path / "pop"
        code = run(
            "simulate", "--n-individuals", "25", "--n-snps", "6", "--sigma-g", "0.2",
            "--family", "linear", "--seed", "7", "--out", str(prefix),
        )
        assert code == 0
        for suffix in (".genotypes.csv", ".phenotypes.csv", ".beta.csv", ".gvalues.csv", ".meta.txt"):
            assert (tmp_path / ("pop" + suffix)).exists()
        out = capsys.readouterr().out
        assert "true_h2=" in out

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            assert run(
                "simulate", "--n-individuals", "20", "--n-snps", "5", "--sigma-g", "0.1",
                "--family", "quadratic", "--seed", "3", "--out", str(prefix),
            ) == 0
        for suffix in (".genotypes.csv", ".phenotypes.csv", ".beta.csv"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()

    def test_missing_sigma_g_is_usage_error(self, tmp_path, capsys):
        code = run(
            "simulate", "--n-individuals", "10", "--n-snps", "4",
            "--family", "linear", "--seed", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "--sigma-g" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--sigma-g", "0"), ("--sigma-eps", "-1"), ("--n-snps", "0"),
                        ("--n-individuals", "0"), ("--seed", "-1")],
    )
    def test_invalid_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        field = {"--sigma-g": "sigma_g", "--sigma-eps": "sigma_eps", "--n-snps": "snp_count",
                 "--n-individuals": "population_size", "--seed": "population_seed"}[flag]
        argv = {"--n-individuals": "10", "--n-snps": "4", "--sigma-g": "0.1",
                "--sigma-eps": "0.5", "--family": "linear", "--seed": "1"}
        argv[flag] = value
        flat = [item for pair in argv.items() for item in pair]
        assert run("simulate", *flat, "--out", str(tmp_path / "x")) == 1
        assert f"usage error: {field} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("preset", ["desk", "kgp-linear-low"])
    def test_preset_writes_the_monte_carlo_population(self, tmp_path, preset):
        cfg = dataclasses.replace(preset_config(preset), population_seed=11)
        argv = ["simulate", "--preset", preset, "--seed", "11", "--out", str(tmp_path / "pop")]
        source = None
        if cfg.scenario == "external":
            write_genotype_csv(simulate_hwe(1100, 520, seed=5), tmp_path / "source.csv")
            source = read_genotype_csv(tmp_path / "source.csv")
            argv += ["--genotypes", str(tmp_path / "source.csv")]
        assert run(*argv) == 0
        pop = build_mc_population(cfg, source)
        written = read_genotype_csv(tmp_path / "pop.genotypes.csv")
        assert np.array_equal(written.data, pop.genotypes.data)
        assert np.array_equal(np.loadtxt(tmp_path / "pop.phenotypes.csv"), pop.phenotypes)

    def test_preset_dimensions(self, tmp_path):
        prefix = tmp_path / "stock"
        assert run("simulate", "--preset", "hwe-linear-low", "--seed", "1", "--out", str(prefix)) == 0
        with open(str(prefix) + ".genotypes.csv") as fh:
            first = fh.readline().strip().split(",")
            rows = 1 + sum(1 for _ in fh)
        assert len(first) == 500
        assert rows == 1000
        meta = dict(
            line.split("=", 1)
            for line in Path(str(prefix) + ".meta.txt").read_text().splitlines()
        )
        assert meta["sigma_g"] == "0.02"

    @pytest.mark.parametrize(
        "flag, value",
        [("--n-individuals", "50"), ("--n-snps", "7"), ("--sigma-g", "0.1"),
         ("--sigma-eps", "0.5"), ("--family", "quadratic")],
    )
    def test_explicit_flag_with_preset_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run("simulate", "--preset", "desk", flag, value, "--seed", "1",
                   "--out", str(tmp_path / "pop"))
        assert code == 1
        assert f"usage error: {flag} cannot be combined with --preset" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [("--preset", "desk"),
         ("--n-individuals", "10", "--n-snps", "4", "--sigma-g", "0.1", "--family", "linear")],
    )
    def test_genotypes_outside_the_external_scenario_is_usage_error(self, tmp_path, capsys, argv):
        # The path does not exist: the flag is refused before any file is read.
        code = run("simulate", *argv, "--seed", "1", "--genotypes", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "pop"))
        assert code == 1
        assert "usage error: --genotypes is only read by external presets" in (
            capsys.readouterr().err
        )
        assert not list(tmp_path.iterdir())

    def test_sigma_eps_defaults_to_the_config_default(self, tmp_path):
        argv = ("simulate", "--n-individuals", "20", "--n-snps", "5", "--sigma-g", "0.1",
                "--family", "linear", "--seed", "3")
        assert run(*argv, "--out", str(tmp_path / "a")) == 0
        assert run(*argv, "--sigma-eps", "0.5", "--out", str(tmp_path / "b")) == 0
        for suffix in (".phenotypes.csv", ".meta.txt"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()

    def test_external_preset_needs_and_uses_source(self, tmp_path, capsys):
        prefix = tmp_path / "kgp"
        code = run("simulate", "--preset", "kgp-linear-low", "--seed", "2", "--out", str(prefix))
        assert code == 1
        assert "--genotypes" in capsys.readouterr().err

        source_path = tmp_path / "source.csv"
        write_genotype_csv(simulate_hwe(1100, 520, seed=5), source_path)
        code = run(
            "simulate", "--preset", "kgp-linear-low", "--seed", "2",
            "--genotypes", str(source_path), "--out", str(prefix),
        )
        assert code == 0
        with open(str(prefix) + ".genotypes.csv") as fh:
            first = fh.readline().strip().split(",")
            rows = 1 + sum(1 for _ in fh)
        assert (rows, len(first)) == (1092, 500)


class TestEstimate:
    def test_matches_committed_golden_file(self, tmp_path):
        out = tmp_path / "est.csv"
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "all", "--nlambda", "0.8", "--nlambda", "1.5", "--out", str(out),
        )
        assert code == 0
        golden = Path(FIXTURE_GOLDEN).read_text().splitlines()
        fresh = out.read_text().splitlines()
        assert fresh[0] == golden[0]
        for got, want in zip(fresh[1:], golden[1:]):
            g_parts, w_parts = got.split(","), want.split(",")
            assert g_parts[:3] == w_parts[:3]
            for g_val, w_val in zip(g_parts[3:], w_parts[3:]):
                assert abs(float(g_val) - float(w_val)) <= 1e-10 * max(1.0, abs(float(w_val)))

    def test_kernel_all_single_nlambda_gives_three_rows(self, capsys):
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "all", "--nlambda", "0.8",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kernel,nlambda,n,sigma_g2,sigma_eps2,h2"
        assert len(lines) == 4

    def test_repeated_nlambda_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")  # rejected before any file is read
        code = run("estimate", "--genotypes", missing, "--phenotypes", missing,
                   "--nlambda", "0.5", "--nlambda", "0.8", "--nlambda", "0.5")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: lambda_grid must be distinct, got 0.5 more than once" in captured.err

    def test_repeated_kernel_keeps_every_value_in_order(self, capsys):
        code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--kernel", "poly2", "--kernel", "gaussian,linear", "--nlambda", "1")
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["poly2", "gaussian", "linear"]

    def test_zero_phenotypes_print_undefined(self, tmp_path, capsys):
        geno, pheno = tmp_path / "g.csv", tmp_path / "y.csv"
        geno.write_text("0,1\n1,2\n2,0\n")
        pheno.write_text("0\n0\n0\n")
        files = ["--genotypes", str(geno), "--phenotypes", str(pheno), "--kernel", "all",
                 "--nlambda", "1"]
        assert run("estimate", *files) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert row.endswith(",0.0,0.0,undefined")
        # diagnose prints the same three estimates, as key=value lines ending each block.
        g = write_column(tmp_path / "g_true.csv", [1.0, -1.0, 0.5])
        assert run("diagnose", *files, "--true-g", g) == 0
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
        assert len(blocks) == 3
        for block in blocks:
            assert block.splitlines()[-3:] == ["sigma_g2_hat=0.0", "sigma_eps2_hat=0.0",
                                               "h2_hat=undefined"]

    def test_intercept_only_covariates_equal_centered_estimation(self, tmp_path, capsys):
        cov = tmp_path / "cov.csv"
        cov.write_text("\n".join(["1.0"] * 30) + "\n")
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--covariates", str(cov), "--kernel", "linear", "--nlambda", "1.0",
        )
        assert code == 0
        with_cov = capsys.readouterr().out

        y = np.loadtxt(FIXTURE_PHENO)
        centered = tmp_path / "centered.csv"
        np.savetxt(centered, y - y.mean(), fmt="%.17g")
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", str(centered),
            "--kernel", "linear", "--nlambda", "1.0",
        )
        assert code == 0
        plain = capsys.readouterr().out
        row_a = with_cov.splitlines()[1].split(",")
        row_b = plain.splitlines()[1].split(",")
        for a, b in zip(row_a[3:], row_b[3:]):
            assert abs(float(a) - float(b)) < 1e-9

    def test_unknown_kernel_is_usage_error(self, capsys):
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "cubic",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--nlambda", "nan"), ("--nlambda", "inf"), ("--nlambda", "0"),
         ("--gaussian-bandwidth", "nan"), ("--gaussian-bandwidth", "inf"),
         ("--gaussian-bandwidth", "-1")],
    )
    def test_bad_number_is_usage_error(self, capsys, flag, value):
        code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   flag, value)
        assert code == 1
        key = {"--nlambda": "lambda_grid", "--gaussian-bandwidth": "gaussian_bandwidth"}[flag]
        assert capsys.readouterr().err == (
            f"usage error: {key} must be positive and finite, got {float(value)}\n"
        )

    @pytest.mark.parametrize("value", [" auto", ""])
    def test_gaussian_bandwidth_reads_auto_as_its_config_key(self, capsys, value):
        outputs = []
        for raw in ("auto", value):
            code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                       "--kernel", "gaussian", "--nlambda", "1", "--gaussian-bandwidth", raw)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert harness.parse_value("gaussian_bandwidth", value) is None

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("1.0\n2.0\n")
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", str(short),
            "--kernel", "linear", "--nlambda", "1.0",
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_bad_genotype_value_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n0,3\n")
        pheno = tmp_path / "y.csv"
        pheno.write_text("1.0\n2.0\n")
        code = run(
            "estimate", "--genotypes", str(bad), "--phenotypes", str(pheno),
            "--kernel", "linear", "--nlambda", "1.0",
        )
        assert code == 2
        assert "line 2, column 2" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, capsys):
        from kernherit.exceptions import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("solver diverged")

        monkeypatch.setattr(harness, "lambda_grid_fit", boom)  # the sweep estimate calls
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "linear", "--nlambda", "1.0",
        )
        assert code == 3
        assert "numerical error" in capsys.readouterr().err


class TestUnreadableFiles:
    """A file that cannot be opened is a data error (exit 2) naming its path."""

    def test_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run("mc", "--config", str(missing), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(missing) in err
        assert "Traceback" not in err

    def test_missing_genotypes(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = run("estimate", "--genotypes", str(missing), "--phenotypes", FIXTURE_PHENO)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(missing) in err

    def test_mc_output_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_mc", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        code = run("mc", "--preset", "desk", "--reps", "1", "--sizes", "100", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err
        assert calls == []

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "dir" / "x.csv"
        code = run(
            "estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "linear", "--nlambda", "1.0", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err
        assert not out.exists()


class TestNonFiniteInput:
    """A NaN or infinite value in an input file is a data error naming where it is."""

    @staticmethod
    def poison(source, path, row, value):
        lines = Path(source).read_text().splitlines()
        lines[row - 1] = value
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_phenotypes(self, tmp_path, capsys, value):
        pheno = self.poison(FIXTURE_PHENO, tmp_path / "y.csv", 7, value)
        code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", pheno,
                   "--kernel", "linear", "--nlambda", "1.0")
        assert code == 2
        assert f"data error: {pheno}: non-finite value" in capsys.readouterr().err

    def test_true_signal(self, tmp_path, capsys):
        g = self.poison(FIXTURE_G, tmp_path / "g.csv", 7, "nan")
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--true-g", g, "--kernel", "poly2", "--nlambda", "1.0")
        assert code == 2
        assert (f"data error: {g}: non-finite value nan at line 7, column 1\n"
                in capsys.readouterr().err)

    def test_covariates(self, tmp_path, capsys):
        cov = tmp_path / "cov.csv"
        rows = [f"{i % 5}.5,{1.0 if i < 15 else 2.0}" for i in range(30)]
        rows[6] = "3.5,nan"
        cov.write_text("\n".join(rows) + "\n")
        code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--covariates", str(cov), "--kernel", "linear", "--nlambda", "1.0")
        assert code == 2
        assert f"{cov}: non-finite value nan at line 7, column 2" in capsys.readouterr().err


def _loadtxt(path) -> np.ndarray:
    """The numeric reader this package used before its own line scanner."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


class TestNumberSyntax:
    """A numeric field is read as numpy's text loader read it: the same fields
    are accepted, to the same float64 bits, and NaN and infinities are then refused."""

    TOKENS = [*ODD_TOKENS, "Infinity", "+nan", "1e999", ".5", "5.", "-0", "1_000", "\uff11",
              "\ufeff1", "nan(1)", "0x1p3", '"1"']

    @staticmethod
    def same_bits(path, column, rows):
        ours = _read_numeric(path, column=column, rows=("g.csv", rows))
        theirs = _loadtxt(path)
        assert ours.tobytes() == (theirs[:, 0] if column else theirs).tobytes()
        return ours

    @pytest.mark.parametrize("token", TOKENS)
    def test_single_field_lines(self, tmp_path, token):
        path = tmp_path / "y.csv"
        path.write_text(f"{token}\n")
        try:
            theirs = _loadtxt(path)
        except ValueError:
            theirs = np.empty((0, 1))
        if theirs.size and np.isfinite(theirs).all():
            assert _read_numeric(path, column=True, rows=("g.csv", 1)).tobytes() == theirs.tobytes()
        else:
            with pytest.raises(DataError, match="non-finite" if theirs.size else None):
                _read_numeric(path, column=True, rows=("g.csv", 1))

    @pytest.mark.parametrize("fmt", [repr, "{:.25e}".format])
    def test_random_doubles(self, tmp_path, fmt):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
        subnormal = rng.integers(1, 2**52, size=500, dtype=np.uint64).view(np.float64)
        big = np.finfo(np.float64).max
        values = np.concatenate([values[np.isfinite(values)], subnormal, -subnormal,
                                 [0.0, -0.0, big, -big, 5e-324, -5e-324]])
        path = tmp_path / "y.csv"
        path.write_text("".join(fmt(float(v)) + "\n" for v in values))
        ours = self.same_bits(path, True, values.size)
        assert ours.tobytes() == values.tobytes()

    def test_fixture_files_and_covariates(self, tmp_path):
        for path in (FIXTURE_PHENO, FIXTURE_G):
            self.same_bits(path, True, 30)
        x = np.random.default_rng(6).normal(size=(30, 3)) * [1.0, 1e-200, 1e200]
        cov = tmp_path / "cov.csv"
        cov.write_text("".join(f"{a!r}, {b:.17g},{c!r} \n" for a, b, c in x.tolist()))
        assert self.same_bits(cov, False, 30).tobytes() == x.tobytes()


def _corrupt(flag, kind, line, col):
    """Bytes of a valid fixture-shaped file for ``flag`` with one bad cell, and
    the file line and column the error must name (column None: only the line,
    the first whose field count differs from the first data line's)."""
    if flag == "--covariates":
        rows = [[f"{i % 5}.5", "1.0" if i < 15 else "2.0"] for i in range(30)]
    else:
        source = {"--genotypes": FIXTURE_GENO, "--phenotypes": FIXTURE_PHENO, "--true-g": FIXTURE_G}
        rows = [text.split(",") for text in Path(source[flag]).read_text().splitlines()]
    line = (line - 1) % len(rows) + 1
    cells = rows[line - 1]
    col = (col - 1) % len(cells) + 1
    if kind == "missing field" and len(cells) > 1:
        del cells[col - 1]
        col = None
    elif kind in ("extra field", "missing field"):  # one field less would be a blank line
        cells.append("0")
        col = None
    elif kind == "comment line":
        rows.insert(line - 1, ["# note"])
        # A first line sets the field count and fails its field; a later one
        # has one field too few, unless its file has one field a line.
        col = 1 if len(cells) == 1 or line == 1 else None
    elif kind == "byte order mark":
        line, col = 1, 1
        rows[0][0] = "\ufeff" + rows[0][0]
    elif kind == "comment":
        cells[col - 1] += " # x"
    elif kind == "undecodable byte":
        cells[col - 1] = "\udcff"  # encoded as the lone byte 0xFF
    else:
        cells[col - 1] = kind
    if col is None and line == 1 and flag in ("--genotypes", "--covariates"):
        line = 2  # the first data line sets their field count
    text = "".join(",".join(r) + "\n" for r in rows)
    return text.encode("utf-8", "surrogateescape"), line, col


@pytest.mark.parametrize("kind", ["text", "extra field", "missing field", "nan", "inf", "1e999",
                                  "byte order mark", "comment", "comment line", "undecodable byte"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(line=st.integers(1, 30), col=st.integers(1, 8), gz=st.booleans())
def test_bad_input_is_named_by_file_line_and_column(kind, line, col, gz):
    """One bad cell in any input file is a data error (exit 2) naming the file,
    its line and, for a bad field, its column. A lone CR is left out: it is a
    valid line end."""
    for flag in ("--genotypes", "--phenotypes", "--covariates", "--true-g"):
        text, at_line, at_col = _corrupt(flag, kind, line, col)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.csv.gz" if gz else "bad.csv")
            with (gzip.open if gz else open)(path, "wb") as fh:
                fh.write(text)
            files = {"--genotypes": FIXTURE_GENO, "--phenotypes": FIXTURE_PHENO, flag: path}
            argv = ["diagnose", "--kernel", "poly2"] if flag == "--true-g" else ["estimate"]
            for name, value in files.items():
                argv += [name, value]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--nlambda", "1"])
        err = err.getvalue()
        assert code == 2, err
        assert err.startswith(f"data error: {path}: "), err
        assert re.search(rf"\bline {at_line}\b", err), err
        if at_col is not None:
            assert f"line {at_line}, column {at_col}\n" in err, err


def write_column(path, values) -> str:
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path)


class TestConstantPhenotypes:
    """A non-zero phenotype with no variance beyond its mean, or beyond the
    intercept and covariates, is a data error naming its files, raised
    before any kernel is built."""

    @staticmethod
    def run_unbuilt(monkeypatch, *argv) -> int:
        """Exit code of a command that must build no kernel."""
        built = []
        monkeypatch.setattr(harness, "make_kernel", lambda *args: built.append(args))
        code = run(*argv)
        assert built == []
        return code

    @pytest.mark.parametrize("command", ["estimate", "diagnose"])
    def test_is_data_error(self, tmp_path, capsys, monkeypatch, command):
        # A monomorphic SNP, as in a 30 x 8 file where the constant trait once
        # started the ridge sweep in null(K) and failed as a non-PSD kernel.
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, size=(30, 8))
        x[:, 3] = 1
        geno, pheno = tmp_path / "g.csv", tmp_path / "y.csv"
        geno.write_text("".join(",".join(map(str, row)) + "\n" for row in x))
        pheno.write_text("2.0\n" * 30)
        kernel = "all" if command == "estimate" else "poly2"
        code = self.run_unbuilt(monkeypatch, command, "--genotypes", str(geno),
                                "--phenotypes", str(pheno), "--kernel", kernel, "--nlambda", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pheno}: the phenotypes have no variance to split\n"
        )

    def test_near_constant_is_data_error(self, tmp_path, capsys, monkeypatch):
        noise = np.random.default_rng(0).normal(size=30)
        pheno = write_column(tmp_path / "y.csv", 2.0 + 1e-15 * noise)
        assert len(set(np.loadtxt(pheno))) > 1  # not all equal, only within rounding
        code = self.run_unbuilt(monkeypatch, "estimate", "--genotypes", FIXTURE_GENO,
                                "--phenotypes", pheno, "--nlambda", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pheno}: the phenotypes have no variance to split\n"
        )

    def test_explained_by_the_covariates_is_data_error(self, tmp_path, capsys, monkeypatch):
        column = [(i % 7) + 0.5 for i in range(30)]
        pheno = write_column(tmp_path / "y.csv", column)
        cov = write_column(tmp_path / "cov.csv", column)
        code = self.run_unbuilt(monkeypatch, "estimate", "--genotypes", FIXTURE_GENO,
                                "--phenotypes", pheno, "--covariates", cov, "--nlambda", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pheno} and {cov}: the phenotypes have no variance to split\n"
        )

    @pytest.mark.parametrize("value", ["0.0", "2.0"])
    def test_single_row_is_data_error(self, tmp_path, capsys, monkeypatch, value):
        geno, pheno = tmp_path / "g.csv", tmp_path / "y.csv"
        geno.write_text("0,1,2\n")
        pheno.write_text(value + "\n")
        code = self.run_unbuilt(monkeypatch, "estimate", "--genotypes", str(geno),
                                "--phenotypes", str(pheno), "--nlambda", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pheno}: need more observations (1) than fitted coefficients (1)\n"
        )

    def test_overflowing_norm_is_not_taken_for_no_variance(self, tmp_path, capsys, monkeypatch):
        # ||y|| overflows to inf, which must not pass for a residual of rounding:
        # finite values that no fit can square are a data error of their own,
        # raised without a RuntimeWarning (which the test settings make errors).
        noise = np.random.default_rng(1).normal(size=30)
        pheno = write_column(tmp_path / "y.csv", 1e160 * (1.0 + noise))
        cov = write_column(tmp_path / "cov.csv", noise)
        for command, extra, files in [("estimate", (), pheno),
                                      ("diagnose", (), pheno),
                                      ("estimate", ("--covariates", cov), f"{pheno} and {cov}")]:
            code = self.run_unbuilt(monkeypatch, command, "--genotypes", FIXTURE_GENO,
                                    "--phenotypes", pheno, *extra,
                                    "--kernel", "linear", "--nlambda", "1")
            assert code == 2
            assert capsys.readouterr().err == (
                f"data error: {files}: the norm of the phenotypes overflows\n"
            )

    @pytest.mark.parametrize("offset, scale", [(0.0, 0.0), (1e8, 1e-3)])
    def test_zeros_and_small_variance_at_a_large_offset_pass(
        self, tmp_path, capsys, offset, scale
    ):
        noise = np.random.default_rng(0).normal(size=30)
        pheno = write_column(tmp_path / "y.csv", offset + scale * noise)
        code = run("estimate", "--genotypes", FIXTURE_GENO, "--phenotypes", pheno, "--nlambda", "1")
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            h2 = row.split(",")[-1]
            assert h2 == "undefined" if scale == 0.0 else 0.0 <= float(h2) <= 1.0


class TestEmptyInput:
    """An input file with no data rows is a data error naming the file, without
    a numpy warning. There is no comment syntax: a ``#`` line is refused at its line."""

    @pytest.mark.parametrize("content", ["", " \n\t\n\n", "# header comment only\n"])
    @pytest.mark.parametrize("flag", ["--phenotypes", "--true-g", "--covariates"])
    def test_no_data_rows(self, tmp_path, capsys, recwarn, flag, content):
        empty = tmp_path / "empty.csv"
        empty.write_text(content)
        files = {"--phenotypes": FIXTURE_PHENO, flag: str(empty)}
        command = "estimate" if flag == "--covariates" else "diagnose"
        argv = [command, "--genotypes", FIXTURE_GENO, "--kernel", "poly2", "--nlambda", "1.0"]
        for name, path in files.items():
            argv += [name, path]
        assert run(*argv) == 2
        text = content.strip()
        reason = f"non-numeric value {text!r} at line 1, column 1" if text else "no data rows"
        assert f"data error: {empty}: {reason}\n" in capsys.readouterr().err
        assert not [w for w in recwarn if "loadtxt" in str(w.message)]


class TestRowCountMismatch:
    """An input file with another row count than the genotypes is a data error
    naming both files and both counts."""

    @pytest.mark.parametrize("flag", ["--phenotypes", "--true-g", "--covariates"])
    def test_names_both_files_and_counts(self, tmp_path, capsys, flag):
        short = tmp_path / "short.csv"
        short.write_text("1.0\n2.0\n")
        files = {"--phenotypes": FIXTURE_PHENO, flag: str(short)}
        command = "estimate" if flag == "--covariates" else "diagnose"
        argv = [command, "--genotypes", FIXTURE_GENO, "--kernel", "poly2", "--nlambda", "1.0"]
        for name, path in files.items():
            argv += [name, path]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {short}: row count 2 does not match the 30 rows of {FIXTURE_GENO}\n"
        )


class TestDiagnose:
    @staticmethod
    def _assert_matches_golden(text, golden_path):
        """Same keys in the same order; numbers to 1e-10, other values exactly."""
        fresh = [line.split("=", 1) for line in text.splitlines()]
        golden = [line.split("=", 1) for line in Path(golden_path).read_text().splitlines()]
        assert [key for key, _ in fresh] == [key for key, _ in golden]
        for (key, got), (_, want) in zip(fresh, golden):
            try:
                want_val = float(want)
            except ValueError:
                assert got == want, key
                continue
            got_val = float(got)
            if math.isfinite(want_val):
                assert abs(got_val - want_val) <= 1e-10 * max(1.0, abs(want_val)), key
            else:
                assert got == want, key

    @pytest.mark.parametrize(
        "case, argv",
        [
            ("true_g", ["--kernel", "gaussian", "--nlambda", "50", "--true-g", FIXTURE_G]),
            ("proxy", ["--kernel", "poly2", "--nlambda", "2.3"]),
        ],
    )
    def test_matches_committed_golden_file(self, tmp_path, case, argv):
        out = tmp_path / "diag.txt"
        code = run(
            "diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            *argv, "--out", str(out),
        )
        assert code == 0
        self._assert_matches_golden(out.read_text(), GOLDEN_DIAGNOSE.format(case))

    def test_true_signal_report(self, capsys):
        code = run(
            "diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--true-g", FIXTURE_G, "--kernel", "poly2", "--nlambda", "1.0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "signal_source=true_g" in out
        assert ".proxy" not in out
        assert "c_star=" in out
        assert "h2_hat=" in out

    def test_proxy_labeling_without_signal(self, capsys):
        code = run(
            "diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--kernel", "poly2", "--nlambda", "1.0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "signal_source=proxy_g_hat" in out
        assert "c_star.proxy=" in out

    def test_refusal_is_reported_not_fatal(self, capsys):
        # nlambda far below the admissibility threshold: the alignment
        # bound refuses but the partial report still prints.
        code = run(
            "diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
            "--true-g", FIXTURE_G, "--kernel", "poly2", "--nlambda", "0.001",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alignment_bound=refused" in out
        assert "sigma_g2_lower=unavailable" in out


    def test_all_zero_true_signal_is_data_error(self, tmp_path, capsys):
        g = write_column(tmp_path / "g.csv", np.zeros(30))
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--true-g", g, "--kernel", "poly2", "--nlambda", "1.0")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {g}: the norm of the signal is zero or underflows\n"
        )

    def test_overflowing_true_signal_is_data_error(self, tmp_path, capsys):
        # ||g|| overflows to inf; finite values that no report can square are a
        # data error naming the file, raised without a RuntimeWarning.
        noise = np.random.default_rng(1).normal(size=30)
        g = write_column(tmp_path / "g.csv", 1e160 * (1.0 + noise))
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--true-g", g, "--kernel", "linear", "--nlambda", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {g}: the norm of the signal or of the noise overflows\n"
        )

    # At 1e-170 g is not zero but ||g|| underflows to 0, and spectra tests a
    # signal by its norm: refused as a zero signal is.
    @pytest.mark.parametrize("scale", [0.0, 1e160, 1e-170])
    def test_bad_true_signal_is_rejected_before_any_kernel(
        self, tmp_path, capsys, monkeypatch, scale
    ):
        def unbuilt(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(harness, "make_kernel", unbuilt)
        noise = np.random.default_rng(1).normal(size=30)
        g = write_column(tmp_path / "g.csv", scale * (1.0 + noise))
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--true-g", g, "--kernel", "poly2", "--nlambda", "1")
        assert code == 2
        reason = "or of the noise overflows" if scale > 1.0 else "is zero or underflows"
        assert capsys.readouterr().err == f"data error: {g}: the norm of the signal {reason}\n"

    def test_all_zero_phenotypes_without_true_signal_is_data_error(self, tmp_path, capsys):
        pheno = write_column(tmp_path / "y.csv", np.zeros(30))
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", pheno,
                   "--kernel", "poly2", "--nlambda", "1.0")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {pheno}: the norm of the fitted signal is zero or underflows\n"
        )

    def test_underflowing_fitted_signal_is_data_error(self, capsys):
        # At nlambda 1e300 the fitted signal is about 1e-300 * K y: not zero,
        # but its norm underflows.
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--kernel", "poly2", "--nlambda", "1e300")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {FIXTURE_PHENO}: the norm of the fitted signal is zero or underflows\n"
        )

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        """Genotype, phenotype and signal files of a simulated 200 x 300 set, on which
        the shifts of the stock grid stop at different Lanczos steps (11 to 69)."""
        cfg = harness.McConfig(population_size=200, snp_count=300, sample_sizes=(200,))
        pop = build_mc_population(cfg)
        path = tmp_path_factory.mktemp("simulated")
        write_genotype_csv(pop.genotypes, path / "g.csv")
        return (str(path / "g.csv"), write_column(path / "y.csv", pop.phenotypes),
                write_column(path / "g_true.csv", pop.g_values))

    @staticmethod
    def _diagnose(capsys, inputs, true_g, *argv):
        geno, pheno, g = inputs
        signal = ["--true-g", g] if true_g else []
        code = run("diagnose", "--genotypes", geno, "--phenotypes", pheno, *signal, *argv)
        assert code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("true_g", [False, True], ids=["proxy", "true_g"])
    def test_grid_is_the_one_pair_reports_joined_by_blank_lines(self, capsys, simulated, true_g):
        for inputs in (FIXTURE, simulated):
            whole = self._diagnose(capsys, inputs, true_g, "--kernel", "all",
                                   "--nlambda", "0.8", "--nlambda", "2.3")
            pairs = [self._diagnose(capsys, inputs, true_g, "--kernel", kind, "--nlambda", nlambda)
                     for kind in KERNEL_KINDS for nlambda in ("0.8", "2.3")]
            assert whole == "\n".join(pairs)

    @pytest.mark.parametrize("true_g", [False, True], ids=["proxy", "true_g"])
    def test_defaults_report_every_estimate_row_in_order(self, capsys, simulated, true_g):
        for inputs in (FIXTURE, simulated):
            assert run("estimate", "--genotypes", inputs[0], "--phenotypes", inputs[1]) == 0
            rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
            blocks = self._diagnose(capsys, inputs, true_g).split("\n\n")
            assert len(rows) == len(blocks) == len(KERNEL_KINDS) * len(DEFAULT_NLAMBDA_GRID)
            for (kind, nlambda, _, sigma_g2, sigma_eps2, h2), block in zip(rows, blocks):
                report = dict(line.split("=", 1) for line in block.splitlines())
                assert (report["kernel"], report["nlambda"], report["sigma_g2_hat"],
                        report["sigma_eps2_hat"], report["h2_hat"]) == (
                            kind, nlambda, sigma_g2, sigma_eps2, h2)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("true_g", [False, True])
    def test_cli_block_is_the_spectra_report(self, capsys, simulated, kind, true_g):
        # diagnose adds nothing to spectra.report_items of estimate's fit.
        for inputs in (FIXTURE, simulated):
            geno, pheno, g_path = inputs
            cfg = harness.McConfig(kernels=(kind,), lambda_grid=(2.3,))
            y = np.loadtxt(pheno)
            g = np.loadtxt(g_path) if true_g else None
            [(_, kernel, fit_res)] = harness.kernel_fits(cfg, read_genotype_csv(geno), y)
            lines = [f"{key}={value}"
                     for key, value in spectra.report_items(kind, kernel, y, fit_res, g)]
            out = self._diagnose(capsys, inputs, true_g, "--kernel", kind, "--nlambda", "2.3")
            assert out.splitlines() == lines

    def test_grid_factors_each_kernel_once(self, capsys, monkeypatch):
        # One checked n x n eigendecomposition per kernel, shared by its grid.
        from kernherit import matrixcore

        orders = []
        eigh = matrixcore.eigh

        def counted(a):
            orders.append(len(a))
            return eigh(a)

        monkeypatch.setattr(matrixcore, "eigh", counted)
        out = self._diagnose(capsys, FIXTURE, True)
        assert out.count("signal_source=") == len(KERNEL_KINDS) * len(DEFAULT_NLAMBDA_GRID)
        assert orders == [len(np.loadtxt(FIXTURE_PHENO))] * len(KERNEL_KINDS)

    def test_standardized_linear_kernel_refuses_on_alignment(self, capsys):
        # The standardized linear kernel maps the ones vector to zero, so
        # c is rounding of zero and C3, not C4, is what fails.
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--true-g", FIXTURE_G, "--kernel", "linear", "--nlambda", "2.3")
        assert code == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert float(report["c_star"]) < 1e-15
        assert (report["c3_met"], report["c4_met"]) == ("false", "false")
        assert report["alignment_bound"].startswith(
            "refused: precondition not met: alignment condition (C3)"
        )

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_nlambda_is_usage_error(self, capsys, value):
        code = run("diagnose", "--genotypes", FIXTURE_GENO, "--phenotypes", FIXTURE_PHENO,
                   "--kernel", "linear", "--nlambda", value)
        assert code == 1
        assert f"usage error: lambda_grid must be positive and finite, got {float(value)}" in (
            capsys.readouterr().err
        )


class TestMc:
    CFG = (
        "family=linear\nkernels=linear\nlambda_grid=1.0,2.0\n"
        "sample_sizes=15,30\nrepetitions=3\npopulation_size=30\nsnp_count=6\n"
        "sigma_g=0.1\npopulation_seed=4\nsampling_seed=9\n"
    )

    def test_config_run_writes_table_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CFG)
        out = tmp_path / "out"
        code = run("mc", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert (out / "table.csv").exists()
        assert (out / "manifest.txt").exists()
        stdout = capsys.readouterr().out
        assert "true_h2=" in stdout

    def test_rerun_identical_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("mc", "--config", str(cfg), "--out", str(out_a)) == 0
        assert run("mc", "--config", str(cfg), "--out", str(out_b)) == 0
        assert (out_a / "table.csv").read_bytes() == (out_b / "table.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", "--sizes", "100",
                   "--workers", workers, "--out", str(out))
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--population-seed", "-1", "population_seed"), ("--sampling-seed", "-2", "sampling_seed")],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", "--sizes", "100",
                   flag, value, "--out", str(out))
        assert code == 1
        assert f"{field} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_nlambda_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1",
                   "--nlambda", "0.8", "--nlambda", "0.8", "--out", str(out))
        assert code == 1
        assert "usage error: lambda_grid must be distinct, got 0.8 more than once" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--nlambda", "nan", "must be positive and finite"),
         ("--nlambda", "-2", "must be positive and finite"),
         ("--sizes", "abc", "expected comma-separated integers"),
         ("--sizes", "100,x", "expected comma-separated integers")],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", flag, value, "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        if flag == "--nlambda":  # out of range: McConfig names the key and the value
            assert f"usage error: lambda_grid {message}, got {float(value)}" in err
        else:  # unparsable: argparse names the flag
            assert f"usage error: argument {flag}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, key, value",
        [("--sizes", "sample_sizes", "100,"),
         ("--sizes", "sample_sizes", ",100"),
         ("--sizes", "sample_sizes", "50,,100"),
         ("--sizes", "sample_sizes", ""),
         ("--kernels", "kernels", "linear,"),
         ("--kernels", "kernels", "linear,,poly2"),
         ("--kernels", "kernels", "")],
    )
    def test_flag_and_config_key_reject_the_same_value(self, tmp_path, capsys, flag, key, value):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", flag, value, "--out", str(out))
        assert code == 1
        assert f"argument {flag}: expected comma-separated" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(DataError, match=f"^run.cfg:1: bad value for '{key}'"):
            parse_config(f"{key}={value}\n", source="run.cfg")

    @pytest.mark.parametrize(
        "flag, key, value",
        [("--reps", "repetitions", "1.5"),
         ("--reps", "repetitions", "two"),
         ("--population-seed", "population_seed", "1e3"),
         ("--sampling-seed", "sampling_seed", ""),
         ("--kernels", "kernels", "linear,"),
         ("--sizes", "sample_sizes", "100,x"),
         ("--n-individuals", "population_size", "1e2"),
         ("--n-snps", "snp_count", "5.0"),
         ("--sigma-g", "sigma_g", "abc"),
         ("--sigma-eps", "sigma_eps", ""),
         ("--kernel", "kernels", "linear,"),
         ("--nlambda", "lambda_grid", "1,,2"),
         ("--gaussian-bandwidth", "gaussian_bandwidth", "wide")],
    )
    def test_every_field_flag_rejects_what_its_key_rejects(self, tmp_path, capsys, flag, key, value):
        code = run(*self.field_flag_argv(flag, value, str(tmp_path / "out")))
        assert code == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        with pytest.raises(DataError, match=f"^run.cfg:1: bad value for '{key}'"):
            parse_config(f"{key}={value}\n", source="run.cfg")

    @pytest.mark.parametrize(
        "flag, key, value",
        [("--out", "output_path", " x"),
         ("--reps", "repetitions", " 2"),
         ("--population-seed", "population_seed", "5 "),
         ("--sampling-seed", "sampling_seed", "7"),
         ("--kernels", "kernels", "linear, gaussian"),
         ("--sizes", "sample_sizes", " 100 ,300"),
         ("--family", "family", " linear"),
         ("--n-snps", "snp_count", "5 "),
         ("--n-individuals", "population_size", " 1500"),
         ("--sigma-g", "sigma_g", "0.1 "),
         ("--sigma-eps", "sigma_eps", " 0.5"),
         ("--kernel", "kernels", " all"),
         ("--kernel", "kernels", "poly2, linear"),
         ("--nlambda", "lambda_grid", " 0.5,2.3 "),
         ("--gaussian-bandwidth", "gaussian_bandwidth", " 7"),
         ("--gaussian-bandwidth", "gaussian_bandwidth", "auto")],
    )
    def test_every_field_flag_accepts_what_its_key_accepts(self, flag, key, value):
        args = build_parser().parse_args(self.field_flag_argv(flag, value, "x"))
        assert getattr(args, key) == getattr(parse_config(f"{key}={value}\n"), key)

    @staticmethod
    def field_flag_argv(flag, value, out):
        """A simulate, estimate or mc command line that sets one field flag,
        writing to ``out``; estimate's input files do not exist."""
        if flag in ("--n-individuals", "--n-snps", "--sigma-g", "--sigma-eps", "--family"):
            return ["simulate", "--seed", "1", "--out", out, flag, value]
        if flag in ("--kernel", "--nlambda", "--gaussian-bandwidth"):
            missing = os.path.join(os.path.dirname(out), "missing.csv")
            return ["estimate", "--genotypes", missing, "--phenotypes", missing, "--out", out,
                    flag, value]
        return ["mc", "--preset", "desk", "--out", out, flag, value]

    def test_out_is_stripped_like_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run("mc", "--preset", "desk", "--reps", "1", "--sizes", "100",
                   "--kernels", "linear", "--out", " x")
        assert code == 0
        assert (tmp_path / "x" / "table.csv").exists()
        assert parse_config("output_path= x\n").output_path == "x"

    @pytest.mark.parametrize(
        "flags, message",
        [(("--kernels", "linear,linear"), "kernels must be distinct, got 'linear'"),
         (("--nlambda", "1", "--nlambda", "1.0"), "lambda_grid must be distinct, got 1.0"),
         (("--sizes", "100,100"), "sample_sizes must be distinct, got 100")],
    )
    def test_repeated_value_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "2", *flags, "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_list_flags_keep_every_value_in_order(self, tmp_path):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", "--sizes", "100", "--sizes", "150",
                   "--kernels", "linear", "--kernels", "poly2", "--nlambda", "1",
                   "--out", str(out))
        assert code == 0
        rows = [line.split(",")[:3] for line in (out / "table.csv").read_text().splitlines()[1:]]
        assert rows == [["linear", "1.0", "100"], ["linear", "1.0", "150"],
                        ["poly2", "1.0", "100"], ["poly2", "1.0", "150"]]

    def test_kernels_all_means_every_kind(self):
        assert parse_config("kernels=all\n").kernels == KERNEL_KINDS
        args = build_parser().parse_args(["mc", "--preset", "desk", "--kernels", "all"])
        assert args.kernels == KERNEL_KINDS
        assert "kernels=linear,poly2,gaussian\n" in harness.serialize_config(
            parse_config("kernels=all\n")
        )

    def test_config_parse_error_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=linear\nwhat=1\n")
        code = run("mc", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "desk"
        code = run(
            "mc", "--preset", "desk", "--reps", "2", "--sizes", "50,100",
            "--nlambda", "1.0", "--kernels", "linear", "--out", str(out),
        )
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 * 1 * 2

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("mc", "--preset", "nope", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "invalid choice: 'nope'" in err
        assert not out.exists()

    def test_missing_config_and_preset_is_usage_error(self, capsys):
        assert run("mc") == 1

    def test_config_and_preset_together_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_path={tmp_path / 'out'}\n")
        code = run("mc", "--config", str(cfg), "--preset", "desk", "--reps", "1")
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_genotypes_outside_the_external_scenario_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("mc", "--preset", "desk", "--reps", "1", "--genotypes",
                   str(tmp_path / "none.csv"), "--out", str(out))
        assert code == 1
        assert "usage error: --genotypes is only read by external presets, not 'hwe'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_external_scenario_without_genotypes_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("mc", "--preset", "kgp-linear-low", "--reps", "1", "--out", str(out))
        assert code == 1
        assert "pass --genotypes" in capsys.readouterr().err
        assert not out.exists()

    def test_single_repetition_note(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CFG.replace("repetitions=3", "repetitions=1"))
        code = run("mc", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0
        assert "single repetition" in capsys.readouterr().out
