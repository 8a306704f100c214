"""Kernel ridge regression and the heritability estimator built on it.

For a kernel matrix K, phenotypes Y and regularization strength nlambda
(the product n * lambda_n, which is how every tuning table in this
package is parameterized), the ridge coefficients solve

    (K + nlambda * I) alpha = Y,

the fitted signal is g_hat = K alpha, and the variance components are

    sigma_g2_hat   = centered sample variance of g_hat (divisor n-1)
    sigma_eps2_hat = mean squared residual ||Y - g_hat||^2 / n
    h2_hat         = sigma_g2_hat / (sigma_g2_hat + sigma_eps2_hat).

Every fit solves over a cached eigendecomposition, so a sweep over a
grid of nlambda values (the dominant workload) factors the kernel once.
A kernel that carries a factor F with K = F F^T and fewer columns than
rows (a linear kernel with p < n SNPs) is solved in the dual: with
mu = nlambda, the Woodbury identity

    (K + mu I)^-1 = (I - F (F^T F + mu I)^-1 F^T) / mu

needs only the p-by-p eigendecomposition of F^T F, followed by one step
of iterative refinement against the dense K (see :func:`_dual_solve`).
Any other kernel is solved over its own n-by-n eigendecomposition. Each
fit, by either route, is checked by its own solve residual (see
:func:`_finalize`) rather than by re-multiplying the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import NumericalError
from .kernels import KernelMatrix

# Candidate values of n*lambda swept by the stock estimation protocol.
DEFAULT_NLAMBDA_GRID = (0.1, 0.5, 0.8, 1.0, 1.3, 1.5, 2.0, 2.3, 2.5, 3.0, 5.0)

# Below this total variance the heritability ratio is 0/0 and flagged
# undefined instead of raising, so grid sweeps survive degenerate draws.
_H2_DENOM_FLOOR = 1e-300

# Relative tolerance on the ridge solve residual; see _finalize.
_SOLVE_RTOL = 1e-10


@dataclass(frozen=True)
class KrrFit:
    """A fitted ridge regression with derived heritability estimates.

    ``h2_hat`` is NaN when the 0/0 guard tripped; check ``h2_defined``.
    """

    n: int
    nlambda: float
    alpha_hat: np.ndarray
    g_hat: np.ndarray
    sigma_g2_hat: float
    sigma_eps2_hat: float
    h2_hat: float
    h2_defined: bool


def _validate_fit_inputs(k: KernelMatrix, y: np.ndarray, nlambda: float) -> np.ndarray:
    if not 0 < nlambda < math.inf:
        raise ValueError(f"nlambda must be positive and finite, got {nlambda}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != k.n:
        raise ValueError(
            f"dimension mismatch: kernel order {k.n} vs phenotype shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("phenotypes must be finite")
    return y


def _finalize(k: KernelMatrix, y: np.ndarray, nlambda: float, alpha: np.ndarray) -> KrrFit:
    """Check ``alpha`` by its residual and derive the estimates from it.

    With r = (K + nlambda I) alpha - y, the fit raises NumericalError
    unless ||r|| <= 1e-10 ((||K||_F + nlambda) ||alpha|| + ||y||), so NaN
    or a corrupted factorization fails. That is at least as strict, for
    what a fit returns, as verifying the factorization: a reconstruction
    error up to 1e-8 ||K||_F (what that check admitted) leaves ||r|| up
    to about 1e-8 ||K||_F ||alpha||, 100x the bound here. For PSD K the
    smallest eigenvalue of K + nlambda I is at least nlambda, so
    ||alpha - alpha*|| <= ||r|| / nlambda for the exact solution alpha*.
    The check costs O(n): g_hat = K alpha is needed anyway.
    """
    n = k.n
    g_hat = k.matrix.data @ alpha
    r_norm = float(np.linalg.norm(g_hat + nlambda * alpha - y))
    bound = _SOLVE_RTOL * (
        (k.frobenius_norm + nlambda) * float(np.linalg.norm(alpha)) + float(np.linalg.norm(y))
    )
    if not r_norm <= bound:
        raise NumericalError(
            f"ridge solve at nlambda={nlambda!r} failed its residual check "
            f"(||(K + nlambda I) alpha - y|| = {r_norm:.3e}, bound {bound:.3e})"
        )
    resid = y - g_hat
    sigma_eps2 = float(resid @ resid) / n
    if n > 1:
        gc = g_hat - g_hat.mean()
        sigma_g2 = float(gc @ gc) / (n - 1)
    else:
        sigma_g2 = 0.0
    denom = sigma_g2 + sigma_eps2
    defined = denom >= _H2_DENOM_FLOOR
    h2 = sigma_g2 / denom if defined else float("nan")
    alpha.setflags(write=False)
    g_hat.setflags(write=False)
    return KrrFit(
        n=n,
        nlambda=float(nlambda),
        alpha_hat=alpha,
        g_hat=g_hat,
        sigma_g2_hat=sigma_g2,
        sigma_eps2_hat=sigma_eps2,
        h2_hat=h2,
        h2_defined=defined,
    )


def _dual_solve(k: KernelMatrix, y: np.ndarray, nlambda: float) -> np.ndarray:
    """Solve (K + nlambda I) alpha = y through the p-by-p ``k.dual_eig``.

    The Woodbury form subtracts two nearly equal vectors when nlambda is
    small against the spectrum of F^T F, which loses digits; one step of
    iterative refinement against the dense K recovers them at O(n^2).
    """
    f = k.factor
    dual = k.dual_eig
    w, s = dual.eigenvectors, dual.eigenvalues

    def solve(r):
        return (r - f @ (w @ ((w.T @ (f.T @ r)) / (s + nlambda)))) / nlambda

    alpha = solve(y)
    return alpha + solve(y - (k.matrix.data @ alpha + nlambda * alpha))


def fit(k: KernelMatrix, y, nlambda: float) -> KrrFit:
    """Fit kernel ridge regression at one regularization strength.

    Solves over ``k.dual_eig`` when the kernel has a factor, else over
    ``k.eig``; either is computed on first use and shared by later fits
    on the same kernel.
    """
    y = _validate_fit_inputs(k, y, nlambda)
    if k.factor is not None:
        return _finalize(k, y, nlambda, _dual_solve(k, y, nlambda))
    eig = k.eig
    coeffs = (eig.eigenvectors.T @ y) / (eig.eigenvalues + nlambda)
    alpha = eig.eigenvectors @ coeffs
    return _finalize(k, y, nlambda, alpha)


def lambda_grid_fit(k: KernelMatrix, y, grid: Sequence[float]) -> list[KrrFit]:
    """Fit once per nlambda in ``grid``, sharing one eigendecomposition."""
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValueError("nlambda grid must be non-empty")
    bad = [v for v in grid if not 0 < v < math.inf]
    if bad:
        raise ValueError(f"all nlambda values must be positive and finite, got {bad[0]}")
    return [fit(k, y, nlam) for nlam in grid]


@dataclass(frozen=True)
class CovariateMatrix:
    """Covariates with an intercept column always prepended.

    Construction verifies full column rank of the augmented matrix and
    names the first offending column otherwise (column 0 is the
    intercept).
    """

    values: np.ndarray  # augmented matrix including the intercept

    def __post_init__(self):
        x = np.asarray(self.values, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"covariates must be 2-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        _, r = np.linalg.qr(x)
        diag = np.abs(np.diag(r))
        tol = x.shape[0] * np.finfo(np.float64).eps * max(diag.max(), 1.0)
        deficient = np.nonzero(diag <= tol)[0]
        if deficient.size:
            raise ValueError(
                f"covariate matrix is rank deficient at column {int(deficient[0])} "
                "(counting the prepended intercept as column 0)"
            )
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "values", x)

    @classmethod
    def from_raw(cls, raw: np.ndarray | None, n: int) -> "CovariateMatrix":
        """Prepend an intercept to raw covariate columns (or none).

        Exactly constant raw columns are absorbed by the intercept and
        dropped, so an intercept-only covariate file reduces cleanly to
        mean-centering instead of tripping the rank check.
        """
        intercept = np.ones((n, 1))
        if raw is None:
            return cls(intercept)
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim == 1:
            raw = raw[:, None]
        if raw.shape[0] != n:
            raise ValueError(
                f"covariates have {raw.shape[0]} rows but phenotypes have {n}"
            )
        varying = np.ptp(raw, axis=0) > 0.0
        return cls(np.hstack([intercept, raw[:, varying]]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        """Number of covariates excluding the intercept."""
        return self.values.shape[1] - 1


def residualize(y, x: CovariateMatrix | np.ndarray | None) -> np.ndarray:
    """Project phenotypes onto the orthocomplement of the covariate span.

    Returns Y minus its least-squares fit on the intercept-augmented
    covariates; the output is orthogonal to every covariate column.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"phenotypes must be a vector, got shape {y.shape}")
    if not isinstance(x, CovariateMatrix):
        x = CovariateMatrix.from_raw(x, y.shape[0])
    if x.n != y.shape[0]:
        raise ValueError(f"covariate rows {x.n} do not match phenotype length {y.shape[0]}")
    if y.shape[0] <= x.q + 1:
        raise ValueError(
            f"need more observations ({y.shape[0]}) than fitted coefficients ({x.q + 1})"
        )
    q_mat, _ = np.linalg.qr(x.values)
    return y - q_mat @ (q_mat.T @ y)


def estimate_csv_header() -> str:
    return "kernel,nlambda,n,sigma_g2,sigma_eps2,h2"


def estimate_csv_row(kind: str, fit_result: KrrFit) -> str:
    """One estimate as a CSV row: kind, nlambda, n, sigma_g2, sigma_eps2, h2."""
    return ",".join(
        (
            kind,
            repr(fit_result.nlambda),
            str(fit_result.n),
            repr(fit_result.sigma_g2_hat),
            repr(fit_result.sigma_eps2_hat),
            repr(fit_result.h2_hat) if fit_result.h2_defined else "undefined",
        )
    )
