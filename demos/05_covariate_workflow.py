"""Covariate-adjusted estimation, the real-data workflow.

Phenotypes are rarely raw measurements: clinical covariates (age, sex,
education, ...) explain part of the variance and must be regressed out
before heritability estimation. This script contaminates a simulated
phenotype with two covariate effects and compares three estimates across
the regularization grid:

    unadjusted       fit on the contaminated phenotype
    residualized     fit on the covariate residuals
    covariate-free   fit on the clean phenotype (unobservable in practice)

Residualization recovers the covariate-free estimate almost exactly at
every regularization strength; the unadjusted column is systematically
dragged down because independent covariate variance behaves like extra
noise.
"""

import numpy as np

from kernherit.genotypes import simulate_hwe
from kernherit.kernels import Design, make_kernel
from kernherit.krr import fit, residualize
from kernherit.phenosim import SimulationSpec, build_population

N, P = 500, 150
rng = np.random.default_rng(99)

genotypes = simulate_hwe(N, P, seed=17)
spec = SimulationSpec(n_individuals=N, n_snps=P, sigma_g=0.03, family="linear", seed=18)
pop = build_population(spec, genotypes)

age = rng.normal(70.0, 8.0, size=N)
group = rng.integers(0, 2, size=N).astype(float)
covariates = np.column_stack([age, group])
y = pop.phenotypes + 0.12 * (age - age.mean()) + 0.4 * (group - group.mean())

print(f"genetic signal variance:          {np.var(pop.g_values, ddof=1):6.3f}")
print(f"covariate-added variance:         {np.var(y - pop.phenotypes, ddof=1):6.3f}")
print(f"realized population heritability: {pop.true_h2:6.3f}\n")

resid = residualize(y, covariates)
kernel = make_kernel("poly2", Design(genotypes.standardized()))
clean = pop.phenotypes - pop.phenotypes.mean()

print(f"{'nlambda':>8}  {'unadjusted':>10}  {'residualized':>12}  {'covariate-free':>14}")
for nlam in (0.8, 1.5, 2.3, 3.0, 5.0):
    row = (
        fit(kernel, y - y.mean(), nlam).h2_hat,
        fit(kernel, resid, nlam).h2_hat,
        fit(kernel, clean, nlam).h2_hat,
    )
    print(f"{nlam:8.1f}  {row[0]:10.3f}  {row[1]:12.3f}  {row[2]:14.3f}")

print("\nthe residualized column reproduces the covariate-free column to")
print("three decimals; what remains is the estimator's own shrinkage")
print("bias, shared by both and controlled by the nlambda choice.")
