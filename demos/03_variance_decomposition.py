"""Six-term decomposition of the variance-component estimates.

Splits sigma_g2_hat and sigma_eps2_hat into signal, noise and cross
contributions, verifies that the terms reconstruct the estimates exactly,
and shows the dominant cross term shrinking as the sample grows, which is
the estimator's consistency mechanism at work. (At a dozen repetitions the
smaller g-side cross term is still noisy; the acceptance suite runs the
trend check with more repetitions and fixed seeds.)
"""

import numpy as np

from kernherit.genotypes import GenotypeMatrix, simulate_hwe, subsample_indices
from kernherit.kernels import Design, make_kernel
from kernherit.krr import fit
from kernherit.phenosim import SimulationSpec, build_population
from kernherit.spectra import decompose_terms

N_POP, P, NLAM = 1200, 2000, 1.0
spec = SimulationSpec(n_individuals=N_POP, n_snps=P, sigma_g=0.012, family="linear", seed=5)
genotypes = simulate_hwe(N_POP, P, seed=4)
pop = build_population(spec, genotypes)
print(f"population: N={N_POP}, p={P} (high-dimensional), "
      f"realized heritability {pop.true_h2:.3f}\n")

idx = subsample_indices(N_POP, 300, seed=11)
rows = GenotypeMatrix(pop.genotypes.data[idx], maf=pop.genotypes.maf)
kernel = make_kernel("linear", Design(rows.standardized()))
y, g = pop.phenotypes[idx], pop.g_values[idx]

terms = decompose_terms(kernel, y, g, NLAM)
res = fit(kernel, y, NLAM)
print("term decomposition at n=300:")
print(f"  signal    i1g={terms.i1g: .5f}   i1e={terms.i1e: .5f}")
print(f"  noise     i2g={terms.i2g: .5f}   i2e={terms.i2e: .5f}")
print(f"  cross     i3g={terms.i3g: .5f}   i3e={terms.i3e: .5f}")
print(f"  sums      {terms.sigma_g2:.6f} vs sigma_g2_hat {res.sigma_g2_hat:.6f}")
print(f"            {terms.sigma_eps2:.6f} vs sigma_eps2_hat {res.sigma_eps2_hat:.6f}\n")

print("median |cross terms| over 12 subsamples per sample size:")
print(f"{'n':>5}  {'|i3g|':>10}  {'|i3e|':>10}")
for n in (100, 200, 400, 800):
    i3g, i3e = [], []
    for r in range(12):
        idx = subsample_indices(N_POP, n, seed=1000 * n + r)
        rows = GenotypeMatrix(pop.genotypes.data[idx], maf=pop.genotypes.maf)
        k = make_kernel("linear", Design(rows.standardized()))
        t = decompose_terms(k, pop.phenotypes[idx], pop.g_values[idx], NLAM)
        i3g.append(abs(t.i3g))
        i3e.append(abs(t.i3e))
    print(f"{n:5d}  {np.median(i3g):10.5f}  {np.median(i3e):10.5f}")
