"""Spectral condition checks and interval bounds on a simulated instance.

With the true signal in hand (a luxury only simulations have), computes
the alignment constant, spectral gap, the minimal admissible
regularization strength, and the executable inequality bounds; then shows
the refusal behavior below the threshold and the proxy-labeled variant
that real-data workflows get.
"""

from kernherit.exceptions import ConditionNotMet
from kernherit.genotypes import simulate_hwe
from kernherit.kernels import Design, make_kernel
from kernherit.krr import fit
from kernherit.phenosim import SimulationSpec, build_population
from kernherit.spectra import bound_report, check_conditions, prop3_check, report_text

N, P = 200, 40
spec = SimulationSpec(n_individuals=N, n_snps=P, sigma_g=0.08, family="linear", seed=21)
genotypes = simulate_hwe(N, P, seed=20)
pop = build_population(spec, genotypes)
kernel = make_kernel("poly2", Design(genotypes.standardized()))

cond = check_conditions(kernel, pop.g_values)
print(f"alignment constant c      = {cond.c_star:.4f}")
print(f"spectral gap l1/l2        = {cond.gap_ratio:.2f}")
print(f"chosen alpha              = {cond.alpha:.4f}  "
      f"(range {cond.alpha_range_low:.4f} to {cond.alpha_range_high:.4f})")
print(f"minimal admissible nlambda = {cond.lambda_threshold:.3f}")
print(f"conditions met            = {cond.conditions_met}\n")

nlam = max(1.01 * cond.lambda_threshold, 1.0)
p3 = prop3_check(kernel, pop.g_values, nlam, cond)
print(f"alignment lower bound at nlambda={nlam:.3f}: "
      f"lhs={p3.lhs:.4f} >= rhs={p3.rhs:.4f} -> {p3.holds}\n")

try:
    prop3_check(kernel, pop.g_values, cond.lambda_threshold / 10, cond)
except ConditionNotMet as exc:
    print(f"below the threshold the check refuses: {exc}\n")

rpt = bound_report(kernel, pop.phenotypes, pop.g_values, nlam, spec.sigma_eps**2, cond)
print(f"signal term   {rpt.i1g_lower:.5f} <= {rpt.terms.i1g:.5f} <= {rpt.i1g_upper:.5f}")
print(f"shrunk signal {rpt.i1e_lower:.5f} <= {rpt.terms.i1e:.5f} <= {rpt.i1e_upper:.5f}")
print(f"noise trace expectation gap: {rpt.i2e_gap:.2e} "
      f"(measured {rpt.terms.i2e:.5f} vs expected {rpt.i2e_trace:.5f})\n")

# Real-data style: no true signal, diagnostics run on the fitted values
# and every signal-derived key is labeled as proxy.
res = fit(kernel, pop.phenotypes, nlam)
proxy_cond = check_conditions(kernel, res.g_hat)
proxy_rpt = bound_report(kernel, pop.phenotypes, res.g_hat, nlam, res.sigma_eps2_hat, proxy_cond)
proxy_lines = report_text(proxy_cond, proxy_rpt, proxy=True).splitlines()
print("proxy-labeled report (first lines):")
for line in proxy_lines[:6]:
    print("  " + line)
print("the fitted signal also decides which bounds apply, so these are labeled too:")
for line in proxy_lines:
    if line.startswith(("conditions_available", "lambda_admissible")):
        print("  " + line)
