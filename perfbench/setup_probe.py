"""Set-up probe: what a ``kernherit`` command does before its first fit.

Run in a fresh interpreter, so that launch-to-exit time covers
interpreter start, ``import kernherit`` and either the Monte Carlo
population build or the parsing of the genotype and phenotype files.
Prints the seconds spent importing ``kernherit.cli``.

    python3 setup_probe.py mc PRESET POPULATION_SEED
    python3 setup_probe.py files GENOTYPES_CSV PHENOTYPES_CSV
"""

import sys
import time

t0 = time.perf_counter()
from kernherit import cli, harness  # noqa: E402

import_s = time.perf_counter() - t0


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "mc":
        import dataclasses

        preset, population_seed = rest
        cfg = dataclasses.replace(
            harness.preset_config(preset), population_seed=int(population_seed)
        )
        harness.build_mc_population(cfg)
    elif kind == "files":
        import numpy as np

        genotypes, phenotypes = rest
        cli.read_genotype_csv(genotypes)
        np.loadtxt(phenotypes, delimiter=",", dtype=np.float64, ndmin=1)
    else:
        print(f"unknown probe kind {kind!r}", file=sys.stderr)
        return 2
    print(repr(import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
