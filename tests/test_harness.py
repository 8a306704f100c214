import dataclasses
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernherit
from kernherit import harness, kernels
from kernherit.exceptions import DataError
from kernherit.genotypes import GenotypeMatrix, simulate_hwe, subsample_indices
from kernherit.harness import (
    FIELD_CODECS,
    McCell,
    McConfig,
    McResultTable,
    PRESETS,
    SCENARIOS,
    build_mc_population,
    derive_sampling_seeds,
    parse_config,
    preset_config,
    read_config,
    run_mc,
    serialize_config,
    write_manifest,
    write_table_csv,
)
from kernherit.kernels import KERNEL_KINDS, Design, design_matrix, make_kernel
from kernherit.krr import lambda_grid_fit
from kernherit.phenosim import FAMILIES


def tiny_config(**overrides) -> McConfig:
    base = dict(
        family="linear",
        kernels=("linear", "poly2", "gaussian"),
        lambda_grid=(0.8, 1.5, 2.3),
        sample_sizes=(20, 30, 40, 50, 60),
        repetitions=3,
        population_seed=5,
        sampling_seed=6,
        population_size=60,
        snp_count=12,
        sigma_g=0.1,
    )
    base.update(overrides)
    return McConfig(**base)


@st.composite
def small_configs(draw):
    """A small valid Monte Carlo config: any kernel subset, grid, family and seeds."""
    population = draw(st.integers(3, 40))
    sizes = draw(st.lists(st.integers(2, population), min_size=1, max_size=3, unique=True))
    kinds = draw(st.lists(st.sampled_from(KERNEL_KINDS), min_size=1, max_size=3, unique=True))
    grid = draw(st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=4, unique=True))
    return McConfig(
        family=draw(st.sampled_from(FAMILIES)),
        kernels=tuple(kinds),
        lambda_grid=tuple(grid),
        sample_sizes=tuple(sizes),
        repetitions=draw(st.integers(1, 3)),
        population_seed=draw(st.integers(0, 2**32 - 1)),
        sampling_seed=draw(st.integers(0, 2**32 - 1)),
        population_size=population,
        snp_count=draw(st.integers(1, 30)),
        sigma_g=draw(st.floats(0.01, 1.0)),
        standardize=draw(st.booleans()),
    )


class TestRunMc:
    def test_deterministic_bitwise(self, tmp_path):
        cfg = tiny_config()
        a = run_mc(cfg)
        b = run_mc(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(a, pa)
        write_table_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_config()
        serial = run_mc(cfg, workers=1)
        parallel = run_mc(cfg, workers=2)
        ps, pp = tmp_path / "s.csv", tmp_path / "p.csv"
        write_table_csv(serial, ps)
        write_table_csv(parallel, pp)
        assert ps.read_bytes() == pp.read_bytes()

    def test_parallel_matches_serial_under_spawn(self, tmp_path):
        # The job reaches the workers by argument, so no start method is assumed.
        cfg_path, ps, pp = tmp_path / "run.cfg", tmp_path / "s.csv", tmp_path / "p.csv"
        cfg_path.write_text(serialize_config(tiny_config()))
        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from kernherit.harness import read_config, run_mc, write_table_csv\n"
            "cfg = read_config(sys.argv[1])\n"
            "write_table_csv(run_mc(cfg, workers=1), sys.argv[2])\n"
            "write_table_csv(run_mc(cfg, workers=2), sys.argv[3])\n"
        )
        src = str(Path(kernherit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(ps), str(pp)],
            env=env, check=True, timeout=300,
        )
        assert ps.read_bytes() == pp.read_bytes()

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(small_configs())
    def test_parallel_matches_serial_property(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            ps, pp = Path(tmp, "s.csv"), Path(tmp, "p.csv")
            write_table_csv(run_mc(cfg, workers=1), ps)
            write_table_csv(run_mc(cfg, workers=2), pp)
            assert ps.read_bytes() == pp.read_bytes()

    @pytest.mark.parametrize(
        "sizes, reps, unique, pool",
        [((60,), 4, 1, None), ((20,), 3, 3, 3)],
        ids=["one_row_set_in_process", "three_row_sets"],
    )
    def test_pool_has_no_more_workers_than_row_sets(self, monkeypatch, sizes, reps, unique, pool):
        # A stand-in pool that records its size and maps in process, so no
        # worker is ever forked; one row set runs with no pool at all.
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                assert chunksize >= 1
                return map(fn, iterable)

        cfg = tiny_config(sample_sizes=sizes, repetitions=reps)
        seeds = derive_sampling_seeds(cfg.sampling_seed, 1, reps)[0]
        rows = {subsample_indices(60, sizes[0], seed=int(s)).tobytes() for s in seeds}
        assert len(rows) == unique
        serial = run_mc(cfg)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run_mc(cfg, workers=8) == serial
        assert built == ([] if pool is None else [pool])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_mc(tiny_config(), workers=workers)

    def test_full_population_cells_have_zero_sd(self):
        cfg = tiny_config(repetitions=4)
        table = run_mc(cfg)
        full = [c for c in table.rows if c.n == 60]
        assert full
        for cell in full:
            assert cell.sd == 0.0

    def test_single_repetition_sd_zero_by_convention(self):
        cfg = tiny_config(repetitions=1, sample_sizes=(30,))
        table = run_mc(cfg)
        assert table.reps == 1
        for cell in table.rows:
            assert cell.sd == 0.0

    def test_row_count_matches_grid(self):
        cfg = tiny_config()
        table = run_mc(cfg)
        assert len(table.rows) == 3 * 3 * 5

    def test_cell_means_in_unit_interval(self):
        table = run_mc(tiny_config())
        for cell in table.rows:
            assert 0.0 <= cell.mean <= 1.0
            assert cell.sd >= 0.0

    def test_matches_straight_line_script(self):
        # The harness must agree bitwise with a direct loop over the
        # library primitives.
        cfg = tiny_config(kernels=("poly2",), lambda_grid=(1.0, 2.0), sample_sizes=(25, 60))
        table = run_mc(cfg)

        pop = build_mc_population(cfg)
        seeds = derive_sampling_seeds(cfg.sampling_seed, 2, cfg.repetitions)
        expected = {}
        for i, n in enumerate(cfg.sample_sizes):
            values = {nlam: [] for nlam in cfg.lambda_grid}
            for r in range(cfg.repetitions):
                idx = subsample_indices(cfg.population_size, n, seed=int(seeds[i, r]))
                rows = GenotypeMatrix(pop.genotypes.data[idx], maf=pop.genotypes.maf)
                design = Design(rows.standardized(), gaussian_bandwidth=cfg.snp_count / 2.0)
                kernel = make_kernel("poly2", design)
                for nlam, res in zip(
                    cfg.lambda_grid, lambda_grid_fit(kernel, pop.phenotypes[idx], cfg.lambda_grid)
                ):
                    values[nlam].append(res.h2_hat)
            for nlam in cfg.lambda_grid:
                vals = np.array(values[nlam])
                if np.all(vals == vals[0]):  # degenerate cell: exact collapse
                    expected[(nlam, n)] = (float(vals[0]), 0.0)
                else:
                    expected[(nlam, n)] = (float(np.mean(vals)), float(np.std(vals, ddof=1)))
        for cell in table.rows:
            mean, sd = expected[(cell.nlambda, cell.n)]
            assert cell.mean == mean
            assert cell.sd == sd

    def test_undefined_estimates_counted_and_excluded(self):
        # A monomorphic external population with zero noise makes every
        # phenotype identically zero under the quadratic family, so every
        # repetition's estimate is undefined.
        source = GenotypeMatrix(np.ones((20, 4), dtype=np.int8))
        cfg = McConfig(
            scenario="external",
            family="quadratic",
            kernels=("linear",),
            lambda_grid=(1.0,),
            sample_sizes=(10,),
            repetitions=3,
            population_size=20,
            snp_count=4,
            sigma_g=0.1,
            sigma_eps=0.0,
        )
        table = run_mc(cfg, genotype_source=source)
        cell = table.rows[0]
        assert cell.excluded == 3
        assert np.isnan(cell.mean)

    def test_external_scenario_requires_source(self):
        cfg = tiny_config(scenario="external")
        with pytest.raises(DataError, match="external scenario"):
            run_mc(cfg)

    def test_external_scenario_subsamples_wider_source(self):
        from kernherit.genotypes import simulate_hwe

        source = simulate_hwe(80, 30, seed=44)  # wider than the configured population
        cfg = tiny_config(
            scenario="external",
            kernels=("poly2",),
            lambda_grid=(1.0,),
            sample_sizes=(25, 50),
            population_size=50,
            snp_count=10,
        )
        table = run_mc(cfg, genotype_source=source)
        assert len(table.rows) == 2
        assert all(0.0 <= c.mean <= 1.0 for c in table.rows)
        # same source and seeds reproduce the subsample exactly
        again = run_mc(cfg, genotype_source=source)
        assert again.rows == table.rows

    def test_external_scenario_rejects_small_source(self):
        from kernherit.genotypes import simulate_hwe

        source = simulate_hwe(10, 5, seed=1)
        cfg = tiny_config(scenario="external", population_size=50, snp_count=10,
                          sample_sizes=(20,))
        with pytest.raises(DataError, match="need at least"):
            run_mc(cfg, genotype_source=source)

    def test_sample_size_exceeding_population_rejected(self):
        with pytest.raises(ValueError, match="sample size"):
            tiny_config(sample_sizes=(100,))


class TestScratchReuse:
    """A run builds every Gram and kernel in one reused scratch per job."""

    def test_non_monotone_sizes_match_fresh_builds(self, monkeypatch, tmp_path):
        cfg = tiny_config(sample_sizes=(40, 20, 60), repetitions=4)
        reused = {}
        for workers in (1, 2):
            reused[workers] = tmp_path / f"reused{workers}.csv"
            write_table_csv(run_mc(cfg, workers=workers), reused[workers])

        def fresh_design(g, standardize, gaussian_bandwidth, scratch):
            assert isinstance(scratch, kernels._Scratch)
            return design_matrix(g, standardize, gaussian_bandwidth)

        monkeypatch.setattr(harness, "design_matrix", fresh_design)
        fresh = tmp_path / "fresh.csv"
        write_table_csv(run_mc(cfg), fresh)
        assert reused[1].read_bytes() == fresh.read_bytes()
        assert reused[2].read_bytes() == fresh.read_bytes()

    def test_serial_kernels_share_one_scratch_buffer(self, monkeypatch):
        made, fitted = [], []

        class RecordedScratch(kernels._Scratch):
            def __init__(self, n_max):
                super().__init__(n_max)
                made.append(self)

        def recording_fit(kernel, y, grid):
            fitted.append(kernel.matrix)
            return lambda_grid_fit(kernel, y, grid)

        monkeypatch.setattr(harness, "_Scratch", RecordedScratch)
        monkeypatch.setattr(harness, "lambda_grid_fit", recording_fit)
        cfg = tiny_config(sample_sizes=(40, 20, 60))
        run_mc(cfg)
        assert len(made) == 1 and made[0].n_max == 60
        assert len(fitted) > 3 * len(KERNEL_KINDS)
        assert all(np.shares_memory(k, made[0]._buffers["kernel"]) for k in fitted)

    def test_repetition_after_the_first_allocates_no_n2_array(self, monkeypatch):
        """Measured by tracemalloc over one repetition with a used scratch.

        The builds (subsample, design, Gram, three kernels) are measured
        apart from the ridge sweeps, whose Krylov basis is the one n-by-n
        array a repetition allocates (``krr._sweep``).
        """
        n = 400
        cfg = tiny_config(population_size=n + 20, sample_sizes=(n,), snp_count=12)
        pop = build_mc_population(cfg)
        scratch = kernels._Scratch(n)
        rows = [subsample_indices(n + 20, n, seed=seed) for seed in (1, 2)]
        harness._rep_estimates(cfg, pop, scratch, rows[0])
        build_peaks = []

        def sweep_measured_apart(kernel, y, grid):
            build_peaks.append(tracemalloc.get_traced_memory()[1])
            try:
                return lambda_grid_fit(kernel, y, grid)
            finally:
                tracemalloc.reset_peak()

        monkeypatch.setattr(harness, "lambda_grid_fit", sweep_measured_apart)
        tracemalloc.start()
        try:
            harness._rep_estimates(cfg, pop, scratch, rows[1])
            build_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(build_peaks) == len(cfg.kernels) + 1
        assert max(build_peaks) < 0.5 * 8 * n * n, build_peaks

        monkeypatch.undo()
        tracemalloc.start()
        try:
            harness._rep_estimates(cfg, pop, scratch, rows[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n, peak  # the sweep's basis, and less than half another


class TestTableCsv:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(kernels=("linear",), lambda_grid=(1.0,), sample_sizes=(20,))
        table = run_mc(cfg)
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        header, *lines = path.read_text().splitlines()
        cell_fields = [f.name for f in dataclasses.fields(McCell)]
        assert header.split(",") == cell_fields[:-1] + ["reps", "true_h2"] + cell_fields[-1:]
        assert table.rows
        for line, cell in zip(lines, table.rows, strict=True):
            *own, excluded = dataclasses.astuple(cell)
            values = (*own, table.reps, table.true_h2, excluded)
            fields = line.split(",")
            assert tuple(type(v)(f) for v, f in zip(values, fields, strict=True)) == values

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(McResultTable(rows=(), reps=3, true_h2=float("nan")), path)
        assert path.read_text() == "kernel,nlambda,n,mean,sd,reps,true_h2,excluded\n"

    def test_single_row_parses(self, tmp_path):
        cell = McCell("linear", 1.0, 10, 0.5, 0.1, 0)
        path = tmp_path / "t.csv"
        write_table_csv(McResultTable(rows=(cell,), reps=7, true_h2=0.6), path)
        assert path.read_text() == (
            "kernel,nlambda,n,mean,sd,reps,true_h2,excluded\nlinear,1.0,10,0.5,0.1,7,0.6,0\n"
        )


class TestWriteAtomic:
    """Every output file is replaced whole or not at all: a failure while it is
    written leaves the earlier file as it was, and no temporary file behind."""

    def test_error_mid_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("earlier\n")

        def chunks():
            yield "the first half of a new file"
            raise KeyboardInterrupt  # as a kill would, mid-write

        with pytest.raises(KeyboardInterrupt):
            harness.write_atomic(path, chunks())
        assert path.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("writer", ["table", "manifest", "estimate --out"])
    def test_every_writer_goes_through_it(self, tmp_path, monkeypatch, writer):
        from kernherit.cli import main

        def fail(*args):
            raise OSError("no space left on device")

        path = tmp_path / "out.txt"
        path.write_text("earlier\n")
        monkeypatch.setattr(os, "replace", fail)
        if writer == "table":
            with pytest.raises(OSError, match="no space"):
                write_table_csv(McResultTable(rows=(), reps=3, true_h2=0.5), path)
        elif writer == "manifest":
            with pytest.raises(OSError, match="no space"):
                write_manifest(tiny_config(), path)
        else:
            data = os.path.join(os.path.dirname(__file__), "data", "fixture.")
            assert main(["estimate", "--genotypes", data + "genotypes.csv", "--phenotypes",
                         data + "phenotypes.csv", "--nlambda", "1", "--out", str(path)]) == 2
        assert path.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_devnull_is_written_in_place(self):
        from kernherit.cli import main

        data = os.path.join(os.path.dirname(__file__), "data", "fixture.")
        assert main(["estimate", "--genotypes", data + "genotypes.csv", "--phenotypes",
                     data + "phenotypes.csv", "--nlambda", "1", "--out", os.devnull]) == 0
        harness.write_atomic(os.devnull, ["discarded\n"])
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert not [name for name in os.listdir(os.path.dirname(os.devnull))
                    if name.startswith("null.")]

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "target.csv").write_text("earlier\n")
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        harness.write_atomic(link, ["new\n"])
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_a_read_only_directory_falls_back_to_writing_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")

        def no_temporary_file(name, *args, **kwargs):
            if str(name).endswith(".tmp"):
                raise PermissionError(13, "Permission denied", name)
            return open(name, *args, **kwargs)

        monkeypatch.setattr(harness, "open", no_temporary_file, raising=False)
        harness.write_atomic(path, ["new\n"])
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestConfigFile:
    def test_serialize_parse_idempotent(self):
        cfg = tiny_config()
        text = serialize_config(cfg)
        parsed = parse_config(text)
        assert parsed == cfg
        assert serialize_config(parsed) == text

    def test_unknown_key_names_line(self):
        for line in ("bogus=1", "dimensionality=low"):
            with pytest.raises(DataError, match=":2: unknown configuration key"):
                parse_config(f"family=linear\n{line}\n")

    def test_duplicate_key_names_line(self):
        with pytest.raises(DataError, match=":2: duplicate key"):
            parse_config("family=linear\nfamily=linear\n")

    def test_bad_value_names_line(self):
        with pytest.raises(DataError, match=":1: bad value"):
            parse_config("repetitions=three\n")

    def test_comments_and_blanks_allowed(self):
        cfg = parse_config("# comment\n\nfamily=quadratic\n")
        assert cfg.family == "quadratic"

    def test_invalid_combination_reported(self):
        with pytest.raises(DataError, match="sample size"):
            parse_config("population_size=10\nsample_sizes=20\n")

    @pytest.mark.parametrize(
        "line, field",
        [
            ("sigma_g=0", "sigma_g"),
            ("sigma_g=-1", "sigma_g"),
            ("sigma_g=nan", "sigma_g"),
            ("sigma_eps=-0.5", "sigma_eps"),
            ("population_size=0", "population_size"),
            ("snp_count=0", "snp_count"),
            ("lambda_grid=1.0,inf", "lambda_grid"),
            ("population_seed=-3", "population_seed"),
            ("sampling_seed=-1", "sampling_seed"),
            ("kernels=linear,poly2,linear", "kernels"),
            ("lambda_grid=1.0,2.0,1", "lambda_grid"),
            ("sample_sizes=100,100", "sample_sizes"),
        ],
    )
    def test_invalid_field_names_source(self, line, field):
        with pytest.raises(DataError, match=f"^run.cfg: {field} must be"):
            parse_config(f"{line}\n", source="run.cfg")

    @pytest.mark.parametrize("path", ["", " x", "x ", "a\nb", "x\n", "a\x1cb"])
    def test_output_path_must_survive_the_line_format(self, path):
        with pytest.raises(ValueError, match="output_path"):
            McConfig(output_path=path)

    def test_read_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(tiny_config()))
        assert read_config(path) == tiny_config()

    def test_auto_gaussian_bandwidth_round_trip(self):
        cfg = tiny_config(gaussian_bandwidth=None)
        assert "gaussian_bandwidth=auto" in serialize_config(cfg)
        assert parse_config(serialize_config(cfg)).gaussian_bandwidth is None
        g = simulate_hwe(5, cfg.snp_count, seed=0)
        design = design_matrix(g, cfg.standardize, cfg.gaussian_bandwidth)
        assert design.gaussian_bandwidth == cfg.snp_count / 2.0
        assert design_matrix(g, False, cfg.gaussian_bandwidth).gaussian_bandwidth == 1.0

    def test_every_field_has_one_codec_in_declaration_order(self):
        assert list(FIELD_CODECS) == [f.name for f in dataclasses.fields(McConfig)]


@st.composite
def mc_config_fields(draw):
    """Keyword arguments for McConfig; the lists may repeat a value."""
    population_size = draw(st.integers(1, 10**6))
    floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return dict(
        scenario=draw(st.sampled_from(SCENARIOS)),
        family=draw(st.sampled_from(FAMILIES)),
        kernels=tuple(draw(st.lists(st.sampled_from(KERNEL_KINDS), min_size=1, max_size=4))),
        lambda_grid=tuple(draw(st.lists(floats, min_size=1, max_size=5))),
        sample_sizes=tuple(
            draw(st.lists(st.integers(1, population_size), min_size=1, max_size=5))
        ),
        repetitions=draw(st.integers(1, 10**6)),
        population_seed=draw(st.integers(0, 2**63)),
        sampling_seed=draw(st.integers(0, 2**63)),
        population_size=population_size,
        snp_count=draw(st.integers(1, 10**6)),
        sigma_g=draw(floats),
        sigma_eps=draw(floats | st.just(0.0)),
        standardize=draw(st.booleans()),
        gaussian_bandwidth=draw(st.none() | floats),
        output_path=draw(st.none() | st.text()),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mc_config_fields())
def test_config_round_trip_property(fields):
    """A config with a repeated kernel, nlambda or sample size is rejected
    naming that field; every other valid config round-trips."""
    repeated = [
        name for name in ("kernels", "lambda_grid", "sample_sizes")
        if len(set(fields[name])) < len(fields[name])
    ]
    if repeated:
        with pytest.raises(ValueError, match=f"^{repeated[0]} must be distinct, got "):
            McConfig(**fields)
        return
    try:
        cfg = McConfig(**fields)
    except ValueError:
        assume(False)
    assert parse_config(serialize_config(cfg)) == cfg


class TestPresets:
    def test_all_presets_valid(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.repetitions >= 1

    def test_stock_low_dim_preset_shape(self):
        cfg = preset_config("hwe-linear-low")
        assert (cfg.population_size, cfg.snp_count, cfg.sigma_g) == (1000, 500, 0.02)
        assert cfg.sample_sizes == (600, 700, 800, 900, 1000)
        assert len(cfg.lambda_grid) == 11

    def test_high_dim_preset_shape(self):
        cfg = preset_config("hwe-trigonometric-high")
        assert (cfg.population_size, cfg.snp_count, cfg.sigma_g) == (500, 1000, 0.05)
        assert cfg.sample_sizes == (100, 200, 300, 400, 500)

    def test_unknown_preset(self):
        with pytest.raises(DataError, match="unknown preset"):
            preset_config("nope")

    def test_stock_presets_pin_the_simulation_design(self):
        """Each stock preset sets exactly its cell's values; every other field is the default."""
        low, high = (600, 700, 800, 900, 1000), (100, 200, 300, 400, 500)
        stock = {
            "hwe-linear-low": ("hwe", 1000, 500, 0.02, low),
            "hwe-quadratic-low": ("hwe", 1000, 500, 0.03, low),
            "hwe-trigonometric-low": ("hwe", 1000, 500, 0.02, low),
            "hwe-linear-high": ("hwe", 500, 1000, 0.01, high),
            "hwe-quadratic-high": ("hwe", 500, 1000, 0.02, high),
            "hwe-trigonometric-high": ("hwe", 500, 1000, 0.05, high),
            "kgp-linear-low": ("external", 1092, 500, 0.02, low),
            "kgp-quadratic-low": ("external", 1092, 500, 0.03, low),
            "kgp-trigonometric-low": ("external", 1092, 500, 0.05, low),
            "kgp-linear-high": ("external", 1092, 1500, 0.01, high),
            "kgp-quadratic-high": ("external", 1092, 1500, 0.015, high),
            "kgp-trigonometric-high": ("external", 1092, 1500, 0.05, high),
        }
        assert list(PRESETS) == [*stock, "desk"]
        for name, (scenario, size, snps, sigma_g, sizes) in stock.items():
            assert PRESETS[name] == McConfig(
                scenario=scenario,
                family=name.split("-")[1],
                population_size=size,
                snp_count=snps,
                sigma_g=sigma_g,
                sample_sizes=sizes,
            ), name


def test_manifest_contents(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "manifest.txt"
    write_manifest(cfg, path, workers=3)
    text = path.read_text()
    assert "kernherit_version=" in text
    assert "workers=3" in text
    assert "derived_genotype_seed=" in text
    assert "population_seed=5" in text
