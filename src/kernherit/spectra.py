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
diagnostic relies on it.

When the true signal vector is unavailable (real data), callers may pass
the fitted values as a proxy; every derived quantity is then labeled as
proxy-based in the serialized report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConditionReport:
    """Alignment and spectral-gap constants for one (kernel, signal) pair."""

    c_star: float
    gap_ratio: float
    alpha: float
    alpha_range: tuple[float, float]
    lambda_threshold: float
    c3_met: bool
    c4_met: bool
    g_is_proxy: bool = False

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


def check_conditions(k: KernelMatrix, g, g_is_proxy: bool = False) -> ConditionReport:
    """Evaluate the alignment and spectral-gap conditions.

    The alignment constant is the largest c in (0, 1] satisfying all
    three inequalities simultaneously:

        |v1 . 1| >= c sqrt(n),  |v1 . g| >= c ||g||,  |1 . g| >= c sqrt(n) ||g||,

    i.e. the minimum of the three normalized ratios. Given c, alpha is
    chosen as the largest value in (0, 1] keeping the gap inequality
    l1/l2 > (alpha + 1 - c^2)/c^2 strict with a 1% margin; the boundary
    alpha = max(2c^2 - 1, 0) is admitted as the limiting case (this is
    what makes the perfectly aligned rank-one kernel, where c = 1 and
    the gap is infinite, come out feasible with threshold zero).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] != k.n:
        raise ValueError(f"signal shape {g.shape} does not match kernel order {k.n}")
    if not np.all(np.isfinite(g)):
        raise ValueError("signal must be finite")
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
    c3_met = c > 0.0

    alpha_lo = max(2.0 * c * c - 1.0, 0.0)
    if l1 <= 0.0:
        # Zero kernel: no spectral structure to exploit.
        return ConditionReport(
            c_star=c,
            gap_ratio=float("nan"),
            alpha=float("nan"),
            alpha_range=(alpha_lo, float("nan")),
            lambda_threshold=float("inf"),
            c3_met=c3_met,
            c4_met=False,
            g_is_proxy=g_is_proxy,
        )
    if l2 <= _RANK1_RTOL * l1:
        # Rank-one kernel: the gap is trivially infinite and any alpha
        # works; the regularization threshold degenerates to zero.
        return ConditionReport(
            c_star=c,
            gap_ratio=float("inf"),
            alpha=1.0,
            alpha_range=(alpha_lo, 1.0),
            lambda_threshold=0.0,
            c3_met=c3_met,
            c4_met=c3_met,
            g_is_proxy=g_is_proxy,
        )

    gap = l1 / l2
    alpha_sup = min(1.0, c * c * gap - (1.0 - c * c))
    alpha = min(1.0, _GAP_MARGIN * c * c * gap - (1.0 - c * c))
    c4_met = c3_met and alpha > 0.0 and alpha >= alpha_lo
    if c4_met:
        denom = c * c * l1 - (alpha + 1.0 - c * c) * l2
        threshold = (alpha + 1.0 - c * c) * l1 * l2 / denom
    else:
        threshold = float("inf")
    return ConditionReport(
        c_star=c,
        gap_ratio=gap,
        alpha=alpha if c4_met else float("nan"),
        alpha_range=(alpha_lo, alpha_sup),
        lambda_threshold=threshold,
        c3_met=c3_met,
        c4_met=c4_met,
        g_is_proxy=g_is_proxy,
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
    y = np.asarray(y, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if y.shape != (k.n,) or g.shape != (k.n,):
        raise ValueError(
            f"dimension mismatch: kernel order {k.n}, phenotypes {y.shape}, signal {g.shape}"
        )
    if not 0 < nlambda < math.inf:
        raise ValueError(f"nlambda must be positive and finite, got {nlambda}")
    n = k.n
    eps = y - g
    eig = k.eig
    lam = clipped_eigenvalues(k)
    w = lam / (lam + nlambda)  # smoother weights l/(l + nlambda)
    d = nlambda / (lam + nlambda)  # residual weights

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
    if not 0 < nlambda < math.inf:
        raise ValueError(f"nlambda must be positive and finite, got {nlambda}")
    lam = clipped_eigenvalues(k)
    w2 = (lam / (lam + nlambda)) ** 2
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
    g = np.asarray(g, dtype=np.float64)
    report.require(nlambda)
    eig = k.eig
    lam = clipped_eigenvalues(k)
    w = lam / (lam + nlambda)
    s1 = eig.eigenvectors.T @ np.ones(k.n)
    sg = eig.eigenvectors.T @ g
    lhs = abs(float(np.sum(w * s1 * sg)))
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
    g = np.asarray(g, dtype=np.float64)
    report.require(nlambda)
    eig = k.eig
    lam = clipped_eigenvalues(k)
    w = lam / (lam + nlambda)
    s1 = eig.eigenvectors.T @ np.ones(k.n)
    sg = eig.eigenvectors.T @ g
    num = float(np.sum(w * s1 * sg)) ** 2
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

    Condition-dependent fields (the signal-term sandwich, the variance
    interval for the genetic component, and the ratio interval) are None
    when the alignment/gap preconditions fail or nlambda sits below the
    admissibility threshold; everything else is always populated.
    ``admissibility`` holds the three regularization checks for interval
    coverage of the noise-to-signal variance ratio (None where they
    cannot be evaluated).
    """

    nlambda: float
    tau1: float
    tau2: float
    esd_full: float
    esd_minus1: float
    terms: TermDecomposition
    conditions_available: bool
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
    # plug-in intervals
    sigma_g2_bounds: tuple[float, float] | None
    sigma_eps2_bounds: tuple[float, float]
    ratio_bounds: tuple[float, float] | None
    admissibility: tuple[bool | None, bool | None, bool | None]
    g_is_proxy: bool


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
    y = np.asarray(y, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if not 0 < nlambda < math.inf:
        raise ValueError(f"nlambda must be positive and finite, got {nlambda}")
    if sigma_eps2 < 0:
        raise ValueError(f"sigma_eps2 must be non-negative, got {sigma_eps2}")
    n = k.n
    eig = k.eig
    lam = clipped_eigenvalues(k)
    w = lam / (lam + nlambda)
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

    sigma_eps2_bounds = (
        (1.0 - tau1) ** 2 * (var_g + sigma_eps2) + (1.0 - tau1) ** 2 * mean_g**2,
        var_g + sigma_eps2 + mean_g**2,
    )

    available = report.conditions_met and nlambda >= report.lambda_threshold
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
        sigma_g2_bounds = (g2_lo, g2_hi)
        ratio_lo = sigma_eps2_bounds[0] / g2_hi if g2_hi > 0 else 0.0
        ratio_hi = sigma_eps2_bounds[1] / g2_lo if g2_lo > 0 else float("inf")
        ratio_bounds = (ratio_lo, ratio_hi)
        adm1 = nlambda >= report.lambda_threshold
        adm2 = (
            esd_minus1 <= (var_g / sigma_eps2) * (1.0 - c**2 * tau1**2)
            if sigma_eps2 > 0
            else None
        )
        if sigma_eps2 > 0 and c < 1.0:
            rhs3 = (
                var_g**2 / sigma_eps2**2
                + (1.0 - c**2 * tau1**2) * var_g / sigma_eps2
                + (var_g / sigma_eps2**2 - (tau1**2 - alpha**2 * tau_ratio2) / sigma_eps2)
                * mean_g**2
            ) / (1.0 - c**2)
            adm3 = esd_full >= rhs3
        else:
            adm3 = None
        admissibility = (adm1, adm2, adm3)
    else:
        i1g_lower = i1g_upper = i2g_lower = i2g_upper = None
        sigma_g2_bounds = None
        ratio_bounds = None
        admissibility = (nlambda >= report.lambda_threshold, None, None)

    return BoundReport(
        nlambda=float(nlambda),
        tau1=tau1,
        tau2=tau2,
        esd_full=esd_full,
        esd_minus1=esd_minus1,
        terms=terms,
        conditions_available=available,
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
        sigma_g2_bounds=sigma_g2_bounds,
        sigma_eps2_bounds=sigma_eps2_bounds,
        ratio_bounds=ratio_bounds,
        admissibility=admissibility,
        g_is_proxy=report.g_is_proxy,
    )


def _fmt(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_items(cond: ConditionReport, bound: BoundReport) -> list[tuple[str, str]]:
    """Flatten the two reports into ordered key/value pairs.

    Signal-derived keys carry a ``.proxy`` suffix when the diagnostics
    ran on fitted values instead of the true signal.
    """
    tag = ".proxy" if cond.g_is_proxy else ""
    items: list[tuple[str, str]] = [
        ("signal_source", "proxy_g_hat" if cond.g_is_proxy else "true_g"),
        (f"c_star{tag}", _fmt(cond.c_star)),
        ("gap_ratio", _fmt(cond.gap_ratio)),
        (f"alpha{tag}", _fmt(cond.alpha)),
        (f"alpha_range_low{tag}", _fmt(cond.alpha_range[0])),
        (f"alpha_range_high{tag}", _fmt(cond.alpha_range[1])),
        (f"lambda_threshold{tag}", _fmt(cond.lambda_threshold)),
        (f"c3_met{tag}", _fmt(cond.c3_met)),
        (f"c4_met{tag}", _fmt(cond.c4_met)),
        ("nlambda", _fmt(bound.nlambda)),
        ("tau1", _fmt(bound.tau1)),
        ("tau2", _fmt(bound.tau2)),
        ("esd_full", _fmt(bound.esd_full)),
        ("esd_minus1", _fmt(bound.esd_minus1)),
    ]
    for name in ("i1g", "i2g", "i3g", "i1e", "i2e", "i3e"):
        items.append((f"{name}{tag}", _fmt(getattr(bound.terms, name))))
    items += [
        (f"i1g_lower{tag}", _fmt(bound.i1g_lower)),
        (f"i1g_upper{tag}", _fmt(bound.i1g_upper)),
        (f"i2g_lower{tag}", _fmt(bound.i2g_lower)),
        (f"i2g_upper{tag}", _fmt(bound.i2g_upper)),
        (f"i1e_lower{tag}", _fmt(bound.i1e_lower)),
        (f"i1e_upper{tag}", _fmt(bound.i1e_upper)),
        (f"i2e_lower{tag}", _fmt(bound.i2e_lower)),
        (f"i2e_upper{tag}", _fmt(bound.i2e_upper)),
        (f"i2g_trace{tag}", _fmt(bound.i2g_trace)),
        (f"i2g_gap{tag}", _fmt(bound.i2g_gap)),
        (f"i2e_trace{tag}", _fmt(bound.i2e_trace)),
        (f"i2e_gap{tag}", _fmt(bound.i2e_gap)),
        ("conditions_available", _fmt(bound.conditions_available)),
    ]
    if bound.sigma_g2_bounds is None:
        items.append((f"sigma_g2_lower{tag}", "unavailable"))
        items.append((f"sigma_g2_upper{tag}", "unavailable"))
    else:
        items.append((f"sigma_g2_lower{tag}", _fmt(bound.sigma_g2_bounds[0])))
        items.append((f"sigma_g2_upper{tag}", _fmt(bound.sigma_g2_bounds[1])))
    items.append((f"sigma_eps2_lower{tag}", _fmt(bound.sigma_eps2_bounds[0])))
    items.append((f"sigma_eps2_upper{tag}", _fmt(bound.sigma_eps2_bounds[1])))
    if bound.ratio_bounds is None:
        items.append((f"ratio_lower{tag}", "unavailable"))
        items.append((f"ratio_upper{tag}", "unavailable"))
    else:
        items.append((f"ratio_lower{tag}", _fmt(bound.ratio_bounds[0])))
        items.append((f"ratio_upper{tag}", _fmt(bound.ratio_bounds[1])))
    for idx, value in enumerate(bound.admissibility, start=1):
        items.append((f"lambda_admissible_{idx}", _fmt(value)))
    return items


def report_text(cond: ConditionReport, bound: BoundReport) -> str:
    """key=value serialization of a diagnostic report."""
    return "\n".join(f"{key}={value}" for key, value in report_items(cond, bound)) + "\n"

