"""Phenotype simulation on top of a genotype matrix.

A population couples genotypes with a genetic effect vector, a signal
g(Z) from one of three effect families, and additive Gaussian noise:

    linear          g = 2*u + 5
    quadratic       g = u^2
    trigonometric   g = sin(u) + 2*u

with u the inner product of an individual's genotype row and the effect
vector. The effect functions are evaluated on column-standardized allele
counts, so a given effect scale ``sigma_g`` produces a comparable genetic
variance regardless of the allele-frequency draw; this is what keeps the
realized heritability of the stock simulation settings inside their
documented operating bands.

The recorded "true" heritability is the realized population value
s_g^2 / (s_g^2 + sigma_eps^2) with s_g^2 the sample variance (divisor
N-1) of the simulated signal, not an analytic expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genotypes import GenotypeMatrix

FAMILIES = ("linear", "quadratic", "trigonometric")


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown effect family {family!r}; choose one of {FAMILIES}")
    return family


def check_scales(sigma_g: float, sigma_eps: float = 0.0) -> None:
    """Reject an effect scale outside (0, inf) or a noise scale outside [0, inf)."""
    if not 0 < sigma_g < math.inf:
        raise ValueError(f"sigma_g must be positive and finite, got {sigma_g}")
    if not 0 <= sigma_eps < math.inf:
        raise ValueError(f"sigma_eps must be non-negative and finite, got {sigma_eps}")


@dataclass(frozen=True)
class SimulationSpec:
    """Recipe for one simulated population."""

    n_individuals: int
    n_snps: int
    sigma_g: float
    family: str
    seed: int
    sigma_eps: float = 0.5

    def __post_init__(self):
        if self.n_individuals < 1 or self.n_snps < 1:
            raise ValueError("population size and SNP count must be >= 1")
        check_scales(self.sigma_g, self.sigma_eps)
        _check_family(self.family)


@dataclass(frozen=True)
class Population:
    """A realized population: genotypes, effects, signal, phenotypes."""

    genotypes: GenotypeMatrix
    beta: np.ndarray
    g_values: np.ndarray
    phenotypes: np.ndarray
    true_h2: float
    bound_m: float  # max |g|, the empirical signal-magnitude bound


def effect_function(family: str, u) -> np.ndarray:
    """Apply one of the three effect families elementwise to the array u."""
    _check_family(family)
    u = np.asarray(u, dtype=np.float64)
    if family == "linear":
        return 2.0 * u + 5.0
    if family == "quadratic":
        return u * u
    return np.sin(u) + 2.0 * u


def draw_beta(p: int, sigma_g: float, seed) -> np.ndarray:
    """Draw p i.i.d. N(0, sigma_g^2) genetic effects, reproducibly."""
    check_scales(sigma_g)
    return np.random.default_rng(seed).normal(0.0, sigma_g, size=p)


def build_population(spec: SimulationSpec, genotypes: GenotypeMatrix) -> Population:
    """Realize phenotypes over a genotype matrix.

    Draws the effect vector and the noise from two independent streams
    derived from ``spec.seed``, evaluates the effect family on the
    standardized genotype columns, and records the realized heritability
    s_g^2 / (s_g^2 + sigma_eps^2). Bitwise reproducible for identical
    spec and genotypes.
    """
    if genotypes.n != spec.n_individuals or genotypes.p != spec.n_snps:
        raise ValueError(
            f"genotypes are {genotypes.n}x{genotypes.p} but spec asks "
            f"{spec.n_individuals}x{spec.n_snps}"
        )
    beta_ss, noise_ss = np.random.SeedSequence(spec.seed).spawn(2)
    beta = draw_beta(spec.n_snps, spec.sigma_g, beta_ss)
    u = genotypes.standardized() @ beta
    g = effect_function(spec.family, u)
    eps = np.random.default_rng(noise_ss).normal(0.0, spec.sigma_eps, size=spec.n_individuals)
    phenotypes = g + eps

    s2_g = float(np.var(g, ddof=1)) if spec.n_individuals > 1 else 0.0
    denom = s2_g + spec.sigma_eps**2
    true_h2 = s2_g / denom if denom > 0 else 0.0
    for arr in (beta, g, phenotypes):
        arr.setflags(write=False)
    return Population(
        genotypes=genotypes,
        beta=beta,
        g_values=g,
        phenotypes=phenotypes,
        true_h2=true_h2,
        bound_m=float(np.max(np.abs(g))),
    )


def export_population(pop: Population, spec: SimulationSpec, prefix) -> dict[str, str]:
    """Write phenotypes, effects, signal values and a metadata sidecar.

    Returns the mapping from logical name to the file written. The
    metadata file is flat key=value text echoing the spec plus the
    realized true_h2.
    """
    prefix = str(prefix)
    paths = {
        "phenotypes": prefix + ".phenotypes.csv",
        "beta": prefix + ".beta.csv",
        "gvalues": prefix + ".gvalues.csv",
        "metadata": prefix + ".meta.txt",
    }
    np.savetxt(paths["phenotypes"], pop.phenotypes, fmt="%.17g")
    np.savetxt(paths["beta"], pop.beta, fmt="%.17g")
    np.savetxt(paths["gvalues"], pop.g_values, fmt="%.17g")
    meta = {
        "n_individuals": spec.n_individuals,
        "n_snps": spec.n_snps,
        "sigma_g": spec.sigma_g,
        "sigma_eps": spec.sigma_eps,
        "family": spec.family,
        "seed": spec.seed,
        "true_h2": repr(pop.true_h2),
        "bound_m": repr(pop.bound_m),
    }
    with open(paths["metadata"], "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")
    return paths
