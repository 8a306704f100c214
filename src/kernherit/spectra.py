"""Spectral diagnostics for the kernel ridge heritability estimator.

Implements, as finite-sample computations over a kernel's spectrum:

* alignment and spectral-gap condition checks yielding the constants
  (c, alpha) and the minimal admissible regularization strength;
* the six-term decomposition of the two variance-component estimates
  into signal, noise and cross contributions;
* empirical spectral distribution integrals with and without the top
  eigenvalue;
* executable versions of the deterministic inequalities relating these
  quantities (alignment lower bound, projection-ratio sandwich, and the
  signal-term sandwiches), plus plug-in interval bounds for the
  variance components and their ratio.

Checks that require the alignment/gap conditions refuse to run when
those preconditions fail (raising ConditionNotMet naming the failed
condition) rather than reporting a meaningless boolean.

Every function reads the spectrum through ``KernelMatrix.eig``,
so the eigenbasis is checked once per kernel, on first use, before any
diagnostic relies on it. Every entry point raises ValueError for a
signal or phenotype vector of the wrong length or with a non-finite
entry, and for an nlambda that is not positive and finite.

When the true signal vector is unavailable (real data), callers may pass
the fitted values as a proxy; every derived quantity is then labeled as
proxy-based in the serialized report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .exceptions import ConditionNotMet
from .kernels import KernelMatrix

# Multiplicative safety margin by which the chosen alpha keeps the
# spectral-gap inequality strict.
_GAP_MARGIN = 0.99

# Second eigenvalues below this fraction of the first are treated as the
# rank-one case (the gap is effectively infinite either way).
_RANK1_RTOL = 1e-12

_SLACK = 1e-10


def clipped_eigenvalues(k: KernelMatrix) -> np.ndarray:
    """Eigenvalues of the kernel, descending, negatives clipped to zero."""
    return np.maximum(k.eig.eigenvalues, 0.0)


def _signal(k: KernelMatrix, g, name: str = "signal") -> np.ndarray:
    """``g`` as a float vector of the kernel's order; ValueError unless finite."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] != k.n:
        raise ValueError(f"{name} shape {g.shape} does not match kernel order {k.n}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} must be finite")
    return g


def _shrinkage(k: KernelMatrix, nlambda: float) -> tuple[np.ndarray, np.ndarray]:
    """Clipped spectrum l and smoother weights w = l/(l + nlambda).

    ValueError unless nlambda is positive and finite.
    """
    if not 0 < nlambda < math.inf:
        raise ValueError(f"nlambda must be positive and finite, got {nlambda}")
    lam = clipped_eigenvalues(k)
    return lam, lam / (lam + nlambda)


def _smoothed_ones_projection(k: KernelMatrix, g: np.ndarray, w: np.ndarray) -> float:
    """1^T K (K+nlambda I)^-1 g, from the smoother weights ``w``."""
    v = k.eig.eigenvectors
    return float(np.sum(w * (v.T @ np.ones(k.n)) * (v.T @ g)))


@dataclass(frozen=True)
class ConditionReport:
    """Alignment and spectral-gap constants for one (kernel, signal) pair.

    The fields are the report's keys, in print order. Whether the signal
    is a fitted proxy is an argument of :func:`report_items`, not a field.
    """

    c_star: float
    gap_ratio: float
    alpha: float
    alpha_range_low: float
    alpha_range_high: float
    lambda_threshold: float
    c3_met: bool
    c4_met: bool

    @property
    def conditions_met(self) -> bool:
        return self.c3_met and self.c4_met

    def require(self, nlambda: float) -> None:
        """Refuse (raising ConditionNotMet) unless all preconditions hold."""
        if not self.c3_met:
            raise ConditionNotMet(
                "alignment condition (C3)", f"alignment constant c = {self.c_star:.3e}"
            )
        if not self.c4_met:
            raise ConditionNotMet(
                "spectral-gap condition (C4)",
                f"gap ratio {self.gap_ratio:.6g} admits no valid alpha for c = {self.c_star:.6g}",
            )
        if nlambda < self.lambda_threshold:
            raise ConditionNotMet(
                "regularization threshold",
                f"nlambda = {nlambda:.6g} below minimal admissible {self.lambda_threshold:.6g}",
            )


def check_conditions(k: KernelMatrix, g) -> ConditionReport:
    """Evaluate the alignment and spectral-gap conditions.

    The alignment constant is the largest c in (0, 1] satisfying all
    three inequalities simultaneously:

        |v1 . 1| >= c sqrt(n),  |v1 . g| >= c ||g||,  |1 . g| >= c sqrt(n) ||g||,

    i.e. the minimum of the three normalized ratios. Given c, alpha is
    chosen as the largest value in (0, 1] keeping the gap inequality
    l1/l2 > (alpha + 1 - c^2)/c^2 strict with a 1% margin; the boundary
    alpha = max(2c^2 - 1, 0) is admitted as the limiting case (this is
    what makes the perfectly aligned rank-one kernel, where c = 1 and
    the gap is infinite, come out feasible with threshold zero). C3 holds
    when c exceeds n times the float64 machine epsilon.
    """
    g = _signal(k, g)
    norm_g = float(np.linalg.norm(g))
    if norm_g == 0.0:
        raise ValueError("signal vector is identically zero")

    n = k.n
    eig = k.eig
    lam = clipped_eigenvalues(k)
    l1 = float(lam[0])
    l2 = float(lam[1]) if n > 1 else 0.0
    v1 = eig.eigenvectors[:, 0]
    sqrt_n = math.sqrt(n)

    r_v1_ones = abs(float(v1.sum())) / sqrt_n
    r_v1_g = abs(float(v1 @ g)) / norm_g
    r_ones_g = abs(float(g.sum())) / (sqrt_n * norm_g)
    c = min(1.0, r_v1_ones, r_v1_g, r_ones_g)
    # C3 asks for c > 0. Each ratio is a dot product of two unit vectors
    # (v1, 1/sqrt(n), g/||g||), whose rounding over n terms is at most about
    # n*eps (Cauchy-Schwarz); a backward-stable eigensolver leaves in v1 a
    # component of that order (its backward error relative to l1) along any
    # exact null direction of K, such as the ones vector of a standardized
    # linear kernel. So a c at or below n*eps is rounding of zero.
    c3_met = c > n * float(np.finfo(np.float64).eps)

    alpha_lo = max(2.0 * c * c - 1.0, 0.0)
    if l1 <= 0.0:
        # Zero kernel: no spectral structure to exploit.
        gap, alpha, alpha_hi, threshold, c4_met = math.nan, math.nan, math.nan, math.inf, False
    elif l2 <= _RANK1_RTOL * l1:
        # Rank-one kernel: the gap is trivially infinite and any alpha
        # works; the regularization threshold degenerates to zero.
        gap, alpha, alpha_hi, threshold, c4_met = math.inf, 1.0, 1.0, 0.0, c3_met
    else:
        gap = l1 / l2
        alpha_hi = min(1.0, c * c * gap - (1.0 - c * c))
        alpha = min(1.0, _GAP_MARGIN * c * c * gap - (1.0 - c * c))
        c4_met = c3_met and alpha > 0.0 and alpha >= alpha_lo
        if c4_met:
            denom = c * c * l1 - (alpha + 1.0 - c * c) * l2
            threshold = (alpha + 1.0 - c * c) * l1 * l2 / denom
        else:
            alpha, threshold = math.nan, math.inf
    return ConditionReport(
        c_star=c,
        gap_ratio=gap,
        alpha=alpha,
        alpha_range_low=alpha_lo,
        alpha_range_high=alpha_hi,
        lambda_threshold=threshold,
        c3_met=c3_met,
        c4_met=c4_met,
    )


@dataclass(frozen=True)
class TermDecomposition:
    """Signal/noise/cross split of the two variance-component estimates.

    Each term already carries its prefactor (1/(n-1) for the g-terms,
    1/n for the eps-terms), so i1g + i2g + i3g reconstructs sigma_g2_hat
    and i1e + i2e + i3e reconstructs sigma_eps2_hat.
    """

    i1g: float
    i2g: float
    i3g: float
    i1e: float
    i2e: float
    i3e: float

    @property
    def sigma_g2(self) -> float:
        return self.i1g + self.i2g + self.i3g

    @property
    def sigma_eps2(self) -> float:
        return self.i1e + self.i2e + self.i3e


def decompose_terms(k: KernelMatrix, y, g, nlambda: float) -> TermDecomposition:
    """Split the variance-component estimates around a known signal.

    The noise realization is implied as eps = Y - g. The g-terms are the
    centered quadratic/cross forms of the ridge-smoothed signal and
    noise; the eps-terms are the corresponding fully shrunk components.
    """
    y = _signal(k, y, "phenotypes")
    g = _signal(k, g)
    lam, w = _shrinkage(k, nlambda)  # smoother weights l/(l + nlambda)
    d = nlambda / (lam + nlambda)  # residual weights
    n = k.n
    eps = y - g
    eig = k.eig

    v = eig.eigenvectors
    sg = v.T @ g
    se = v.T @ eps

    u_g = v @ (w * sg)  # smoothed signal K(K+nlambda I)^-1 g
    u_e = v @ (w * se)
    ug_c = u_g - u_g.mean()
    ue_c = u_e - u_e.mean()
    denom_g = n - 1 if n > 1 else 1
    i1g = float(ug_c @ ug_c) / denom_g
    i2g = float(ue_c @ ue_c) / denom_g
    i3g = 2.0 * float(ug_c @ ue_c) / denom_g

    a_g = v @ (d * sg)  # nlambda (K+nlambda I)^-1 g
    a_e = v @ (d * se)
    i1e = float(a_g @ a_g) / n
    i2e = float(a_e @ a_e) / n
    i3e = 2.0 * float(a_g @ a_e) / n
    return TermDecomposition(i1g=i1g, i2g=i2g, i3g=i3g, i1e=i1e, i2e=i2e, i3e=i3e)


def esd_integrals(k: KernelMatrix, nlambda: float) -> tuple[float, float]:
    """Spectral shrinkage integrals with and without the top eigenvalue.

    Returns ((1/n) sum_i (l_i/(l_i+nlambda))^2,
             (1/(n-1)) sum_{i>=2} (l_i/(l_i+nlambda))^2).
    """
    lam, w = _shrinkage(k, nlambda)
    w2 = w**2
    n = lam.shape[0]
    full = float(w2.sum()) / n
    minus1 = float(w2[1:].sum()) / (n - 1) if n > 1 else 0.0
    return full, minus1


@dataclass(frozen=True)
class Prop3Result:
    lhs: float
    rhs: float
    holds: bool


def prop3_check(k: KernelMatrix, g, nlambda: float, report: ConditionReport) -> Prop3Result:
    """Alignment lower bound |1^T K (K+nlambda I)^-1 g| >= alpha tau2 sqrt(n) ||g||.

    Only valid once the alignment/gap conditions hold and nlambda clears
    the admissibility threshold; otherwise refuses via ConditionNotMet.
    """
    g = _signal(k, g)
    lam, w = _shrinkage(k, nlambda)
    report.require(nlambda)
    lhs = abs(_smoothed_ones_projection(k, g, w))
    l2 = float(lam[1]) if k.n > 1 else 0.0
    rhs = report.alpha * (l2 / (l2 + nlambda)) * math.sqrt(k.n) * float(np.linalg.norm(g))
    return Prop3Result(lhs=lhs, rhs=rhs, holds=lhs >= rhs - _SLACK)


@dataclass(frozen=True)
class Prop4Result:
    lower: float
    value: float
    upper: float
    holds: bool


def prop4_check(k: KernelMatrix, g, nlambda: float, report: ConditionReport) -> Prop4Result:
    """Sandwich for the smoothed-vs-raw projection ratio onto the ones vector.

    value = (1^T K (K+nlambda I)^-1 g)^2 / (1^T g)^2, bounded below by
    alpha^2 tau2^2 (the provable constant) and above by tau1^2 / c^2.
    """
    g = _signal(k, g)
    _, w = _shrinkage(k, nlambda)
    report.require(nlambda)
    num = _smoothed_ones_projection(k, g, w) ** 2
    den = float(g.sum()) ** 2
    if den == 0.0:
        raise ConditionNotMet("alignment condition (C3)", "1^T g is exactly zero")
    tau1 = float(w[0])
    tau2 = float(w[1]) if k.n > 1 else 0.0
    value = num / den
    lower = (report.alpha * tau2) ** 2
    upper = tau1**2 / report.c_star**2
    return Prop4Result(
        lower=lower,
        value=value,
        upper=upper,
        holds=(lower - _SLACK <= value <= upper + _SLACK),
    )


@dataclass(frozen=True)
class BoundReport:
    """Plug-in interval bounds and term diagnostics at one nlambda.

    The fields are the report's keys, in print order, with ``terms``
    standing for its six fields. The signal-term sandwich (``i1g_*``,
    ``i2g_lower``/``_upper``), the genetic-variance and ratio intervals and
    the last two regularization checks are None when the alignment/gap
    preconditions fail or nlambda sits below the admissibility threshold;
    ``lambda_admissible_2``/``_3`` are also None where their check
    cannot be evaluated. Everything else is always populated.
    """

    nlambda: float
    tau1: float
    tau2: float
    esd_full: float
    esd_minus1: float
    terms: TermDecomposition
    # signal-term sandwich (condition-dependent)
    i1g_lower: float | None
    i1g_upper: float | None
    i2g_lower: float | None
    i2g_upper: float | None
    # noise-term sandwich and trace expectations (always available)
    i1e_lower: float
    i1e_upper: float
    i2e_lower: float
    i2e_upper: float
    i2g_trace: float
    i2g_gap: float
    i2e_trace: float
    i2e_gap: float
    conditions_available: bool
    # plug-in intervals
    sigma_g2_lower: float | None
    sigma_g2_upper: float | None
    sigma_eps2_lower: float
    sigma_eps2_upper: float
    ratio_lower: float | None
    ratio_upper: float | None
    # regularization checks for interval coverage of the variance ratio
    lambda_admissible_1: bool
    lambda_admissible_2: bool | None
    lambda_admissible_3: bool | None


def bound_report(
    k: KernelMatrix,
    y,
    g,
    nlambda: float,
    sigma_eps2: float,
    report: ConditionReport,
) -> BoundReport:
    """Assemble the full diagnostic bound report at one nlambda.

    ``sigma_eps2`` is the noise variance used in trace expectations and
    interval bounds: the true value in simulations, an estimate (and so
    labeled) otherwise. Mean and variance of the signal enter as plug-in
    moments of ``g``.
    """
    y = _signal(k, y, "phenotypes")
    g = _signal(k, g)
    _, w = _shrinkage(k, nlambda)
    if not 0 <= sigma_eps2 < math.inf:
        raise ValueError(f"sigma_eps2 must be non-negative and finite, got {sigma_eps2}")
    nlambda, sigma_eps2 = float(nlambda), float(sigma_eps2)
    n = k.n
    eig = k.eig
    d = 1.0 - w
    tau1 = float(w[0])
    tau2 = float(w[1]) if n > 1 else 0.0
    esd_full, esd_minus1 = esd_integrals(k, nlambda)
    terms = decompose_terms(k, y, g, nlambda)

    gsq = float(g @ g)
    sum_g = float(g.sum())
    mean_g = sum_g / n
    msq = gsq / n
    var_g = float(np.var(g, ddof=1)) if n > 1 else 0.0
    denom_g = n - 1 if n > 1 else 1

    # Noise-term sandwich (needs no conditions): the fully shrunk signal
    # component lies between the worst-case and trivial shrinkage levels.
    i1e_lower = (1.0 - tau1) ** 2 * msq
    i1e_upper = msq
    i2e_lower = (1.0 - tau1) ** 2 * sigma_eps2
    i2e_upper = sigma_eps2

    # Trace expectations of the noise quadratic forms and measured gaps.
    s1 = eig.eigenvectors.T @ np.ones(n)
    i2g_trace = sigma_eps2 * float(np.sum(w * w * (1.0 - s1 * s1 / n))) / denom_g
    i2e_trace = sigma_eps2 * float(np.sum(d * d)) / n
    i2g_gap = abs(terms.i2g - i2g_trace)
    i2e_gap = abs(terms.i2e - i2e_trace)

    sigma_eps2_lower = (1.0 - tau1) ** 2 * (var_g + sigma_eps2) + (1.0 - tau1) ** 2 * mean_g**2
    sigma_eps2_upper = var_g + sigma_eps2 + mean_g**2

    adm1 = nlambda >= report.lambda_threshold
    available = report.conditions_met and adm1
    i1g_lower = i1g_upper = i2g_lower = i2g_upper = None
    g2_lo = g2_hi = ratio_lo = ratio_hi = adm2 = adm3 = None
    if available:
        c = report.c_star
        alpha = report.alpha
        i1g_lower = (c**2 * tau1**2 * gsq - tau1**2 / c**2 * sum_g**2 / n) / denom_g
        i1g_upper = (tau1**2 * gsq - alpha**2 * tau2**2 * sum_g**2 / n) / denom_g
        i2g_lower = sigma_eps2 * esd_minus1
        i2g_upper = (1.0 - c**2) * sigma_eps2 * float(np.sum(w * w)) / denom_g
        tau_ratio2 = (tau2 / tau1) ** 2 if tau1 > 0 else 0.0
        g2_lo = (
            c**2 * tau1**2 * var_g
            + (c**2 * tau1**2 - c**-4) * mean_g**2
            + sigma_eps2 * esd_minus1
        )
        g2_hi = (
            tau1**2 * var_g
            + (tau1**2 - alpha**2 * tau_ratio2) * mean_g**2
            + (1.0 - c**2) * sigma_eps2 * esd_full
        )
        ratio_lo = sigma_eps2_lower / g2_hi if g2_hi > 0 else 0.0
        ratio_hi = sigma_eps2_upper / g2_lo if g2_lo > 0 else math.inf
        if sigma_eps2 > 0:
            adm2 = esd_minus1 <= (var_g / sigma_eps2) * (1.0 - c**2 * tau1**2)
        if sigma_eps2 > 0 and c < 1.0:
            rhs3 = (
                var_g**2 / sigma_eps2**2
                + (1.0 - c**2 * tau1**2) * var_g / sigma_eps2
                + (var_g / sigma_eps2**2 - (tau1**2 - alpha**2 * tau_ratio2) / sigma_eps2)
                * mean_g**2
            ) / (1.0 - c**2)
            adm3 = esd_full >= rhs3

    return BoundReport(
        nlambda=nlambda,
        tau1=tau1,
        tau2=tau2,
        esd_full=esd_full,
        esd_minus1=esd_minus1,
        terms=terms,
        i1g_lower=i1g_lower,
        i1g_upper=i1g_upper,
        i2g_lower=i2g_lower,
        i2g_upper=i2g_upper,
        i1e_lower=i1e_lower,
        i1e_upper=i1e_upper,
        i2e_lower=i2e_lower,
        i2e_upper=i2e_upper,
        i2g_trace=i2g_trace,
        i2g_gap=i2g_gap,
        i2e_trace=i2e_trace,
        i2e_gap=i2e_gap,
        conditions_available=available,
        sigma_g2_lower=g2_lo,
        sigma_g2_upper=g2_hi,
        sigma_eps2_lower=sigma_eps2_lower,
        sigma_eps2_upper=sigma_eps2_upper,
        ratio_lower=ratio_lo,
        ratio_upper=ratio_hi,
        lambda_admissible_1=adm1,
        lambda_admissible_2=adm2,
        lambda_admissible_3=adm3,
    )


# Report keys fixed by the kernel and nlambda alone. Every other key
# derives from the signal and is labeled ``.proxy`` when that is fitted.
KERNEL_ONLY_KEYS = frozenset({"gap_ratio", "nlambda", "tau1", "tau2", "esd_full", "esd_minus1"})


def report_item(key: str, value, proxy: bool = False) -> tuple[str, str]:
    """One report entry as text: the report's one tagging rule and formatter.

    ``key`` gains ``.proxy`` when ``proxy`` is set, unless it is in
    KERNEL_ONLY_KEYS. None reads ``unavailable``, a bool ``true``/``false``
    and a float its ``repr``.
    """
    if proxy and key not in KERNEL_ONLY_KEYS:
        key += ".proxy"
    if value is None:
        return key, "unavailable"
    if isinstance(value, bool):
        return key, "true" if value else "false"
    return key, repr(value) if isinstance(value, float) else str(value)


def _scalars(report):
    """(field, value) pairs of a report, nested reports expanded in place."""
    for f in fields(report):
        value = getattr(report, f.name)
        if is_dataclass(value):
            yield from _scalars(value)
        else:
            yield f.name, value


def report_items(
    cond: ConditionReport, bound: BoundReport, proxy: bool = False
) -> list[tuple[str, str]]:
    """Flatten the two reports into ordered key/value pairs, by field.

    ``proxy`` marks the signal as the fitted g_hat: ``signal_source`` then
    reads ``proxy_g_hat`` and :func:`report_item` tags the keys.
    """
    items = [("signal_source", "proxy_g_hat" if proxy else "true_g")]
    for report in (cond, bound):
        items += [report_item(key, value, proxy) for key, value in _scalars(report)]
    return items
