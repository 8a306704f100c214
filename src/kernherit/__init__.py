"""Broad-sense heritability estimation via kernel ridge regression.

The package is organized around small, pure layers: symmetric linear
algebra (matrixcore), genotype simulation and IO (genotypes), phenotype
simulation (phenosim), kernel construction (kernels), the ridge
estimator (krr), spectral diagnostics (spectra), and a reproducible
Monte Carlo harness (harness) with a thin command-line front end (cli).
"""

__version__ = "0.1.0"

import importlib

from .exceptions import ConditionNotMet, DataError, KernheritError, NumericalError
from .genotypes import (
    GenotypeMatrix,
    MafLaw,
    hwe_probabilities,
    read_genotype_csv,
    simulate_hwe,
    subsample,
    write_genotype_csv,
)
from .kernels import KERNEL_KINDS, Design, KernelMatrix, make_kernel
from .krr import (
    DEFAULT_NLAMBDA_GRID,
    KrrFit,
    fit,
    lambda_grid_fit,
    residualize,
)
from .phenosim import (
    FAMILIES,
    Population,
    SimulationSpec,
    build_population,
    draw_beta,
    export_population,
)

# spectra, which only ``diagnose`` and the spectral API use, is imported
# on first access to one of its exports (PEP 562).
_SPECTRA_EXPORTS = (
    "BoundReport",
    "ConditionReport",
    "TermDecomposition",
    "bound_report",
    "check_conditions",
    "decompose_terms",
    "esd_integrals",
    "prop3_check",
    "prop4_check",
)


def __getattr__(name):
    if name == "spectra" or name in _SPECTRA_EXPORTS:
        spectra = importlib.import_module(".spectra", __name__)
        return spectra if name == "spectra" else getattr(spectra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ConditionNotMet",
    "DataError",
    "KernheritError",
    "NumericalError",
    "GenotypeMatrix",
    "MafLaw",
    "hwe_probabilities",
    "read_genotype_csv",
    "simulate_hwe",
    "subsample",
    "write_genotype_csv",
    "KERNEL_KINDS",
    "Design",
    "KernelMatrix",
    "make_kernel",
    "DEFAULT_NLAMBDA_GRID",
    "KrrFit",
    "fit",
    "lambda_grid_fit",
    "residualize",
    "FAMILIES",
    "Population",
    "SimulationSpec",
    "build_population",
    "draw_beta",
    "export_population",
    *_SPECTRA_EXPORTS,
]
