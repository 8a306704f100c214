"""Kernel ridge regression and the heritability estimator built on it.

For a kernel matrix K, phenotypes Y and regularization strength nlambda
(the product n * lambda_n, which is how every tuning table in this
package is parameterized), the ridge coefficients solve

    (K + nlambda * I) alpha = Y,

the fitted signal is g_hat = K alpha, and the variance components are

    sigma_g2_hat   = centered sample variance of g_hat (divisor n-1)
    sigma_eps2_hat = mean squared residual ||Y - g_hat||^2 / n
    h2_hat         = sigma_g2_hat / (sigma_g2_hat + sigma_eps2_hat).

Every fit solves by one Krylov multi-shift sweep (see :func:`_sweep`):
Lanczos with full reorthogonalization, started at Y, builds an
orthonormal basis Q_k and a k-by-k tridiagonal T_k with
K Q_k = Q_k T_k + beta_k q_k e_k^T, and for each nlambda = mu

    alpha = Q_k (T_k + mu I)^-1 ||Y|| e_1,

whose residual has norm beta_k |last entry of (T_k + mu I)^-1 ||Y|| e_1|.
One basis serves the whole grid, at k matrix-vector products with K
plus O(n k^2) of reorthogonalization instead of an n-by-n
eigendecomposition. Each fit is checked by its own solve residual (see
:func:`_finalize`) rather than by re-multiplying a factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matrixcore
from .exceptions import NumericalError
from .kernels import KernelMatrix

# Candidate values of n*lambda swept by the stock estimation protocol.
DEFAULT_NLAMBDA_GRID = (0.1, 0.5, 0.8, 1.0, 1.3, 1.5, 2.0, 2.3, 2.5, 3.0, 5.0)

# Below this total variance the heritability ratio is 0/0 and flagged
# undefined instead of raising, so grid sweeps survive degenerate draws.
_H2_DENOM_FLOOR = 1e-300

# Relative tolerance on the ridge solve residual; see _finalize.
_SOLVE_RTOL = 1e-10

# A shift's sweep stops once its residual estimate is below
# _STOP_RTOL * 2 ||y||, and the Krylov space counts as exhausted once the
# next Lanczos vector has norm below _BREAKDOWN_RTOL * ||K||_F; see _sweep.
_STOP_RTOL = 1e-14
_BREAKDOWN_RTOL = 1e-15


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
    g_hat = k.matrix @ alpha
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


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from ``w``, in place, its components along the rows of ``basis``.

    Two classical Gram-Schmidt passes against orthonormal rows; returns
    the summed coefficients of both passes.
    """
    h = basis @ w
    w -= h @ basis
    h2 = basis @ w
    w -= h2 @ basis
    return h + h2


def _sweep(k: KernelMatrix, y: np.ndarray, grid: Sequence[float]) -> list[np.ndarray]:
    """Solve (K + mu I) alpha = y for every mu in ``grid`` from one Lanczos run.

    The basis rows q_0 = y / ||y||, q_1, ... are kept orthonormal by
    :func:`_orthogonalize`. After j + 1 steps the residual of shift mu has
    norm beta_j |c_j|, where c solves (T_{j+1} + mu I) c = ||y|| e_1; its
    last entry c_j comes from the LDL^T recurrence of T_{j+1} + mu I at
    O(len(grid)) per step. Shift mu stops at the first k_mu = j + 1 with
    beta_j |c_j| <= 1e-14 * 2 ||y||. Because ||c|| >= ||y|| / (||K||_F + mu),
    that bound is never looser than 1e-14 ((||K||_F + mu) ||c|| + ||y||),
    and far tighter than the check in :func:`_finalize`. Every shift still
    pending stops when beta_j <= 1e-15 ||K||_F or j + 1 = n (the Krylov
    space is exhausted) and leaves the verdict to :func:`_finalize`.

    alpha_mu depends only on the first k_mu basis rows and on T_{k_mu},
    which do not depend on the grid, so a single fit and a grid sweep
    agree bitwise. T_k is solved through ``matrixcore.eigh`` once per
    distinct stopping index; its Ritz values must pass
    ``matrixcore.require_psd``. A direction of K that y does not excite
    is invisible here, but it cannot move alpha either.
    """
    n = k.n
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return [np.zeros(n) for _ in grid]
    a = k.matrix
    mus = np.asarray(grid, dtype=np.float64)
    stop = np.zeros(mus.size, dtype=np.intp)  # k_mu, 0 while mu is pending
    target = _STOP_RTOL * 2.0 * y_norm
    floor = _BREAKDOWN_RTOL * k.frobenius_norm
    basis = np.empty((n, n))  # rows are touched (and paid for) only once used
    basis[0] = y / y_norm
    diag: list[float] = []
    off: list[float] = []
    for j in range(n):
        w = a @ basis[j]
        diag.append(float(_orthogonalize(basis[: j + 1], w)[j]))
        beta = float(np.linalg.norm(w))
        if j == 0:
            d = diag[0] + mus  # pivots of LDL^T(T_{j+1} + mu I)
            z = np.full(mus.size, y_norm)  # c_j = z / d
        else:
            lower = off[-1] / d
            z = -lower * z
            d = diag[j] + mus - off[-1] * lower
        stop[(stop == 0) & (beta * np.abs(z / d) <= target)] = j + 1
        if beta <= floor or j + 1 == n:
            stop[stop == 0] = j + 1
        if stop.all():
            break
        off.append(beta)
        basis[j + 1] = w / beta

    alphas: list = [None] * mus.size
    for kk in np.unique(stop):
        t = np.diag(diag[:kk]) + np.diag(off[: kk - 1], 1) + np.diag(off[: kk - 1], -1)
        dec = matrixcore.eigh(t)
        matrixcore.require_psd(dec)
        head = y_norm * dec.eigenvectors[0]
        for i in np.flatnonzero(stop == kk):
            c = dec.eigenvectors @ (head / (dec.eigenvalues + mus[i]))
            alphas[i] = c @ basis[:kk]
    return alphas


def fit(k: KernelMatrix, y, nlambda: float) -> KrrFit:
    """Fit kernel ridge regression at one regularization strength.

    Runs the Krylov sweep for this one shift; the result is bitwise the
    same as the matching point of :func:`lambda_grid_fit`.
    """
    y = _validate_fit_inputs(k, y, nlambda)
    (alpha,) = _sweep(k, y, (nlambda,))
    return _finalize(k, y, nlambda, alpha)


def lambda_grid_fit(k: KernelMatrix, y, grid: Sequence[float]) -> list[KrrFit]:
    """Fit once per nlambda in ``grid``, sharing one Krylov sweep."""
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValueError("nlambda grid must be non-empty")
    bad = [v for v in grid if not 0 < v < math.inf]
    if bad:
        raise ValueError(f"all nlambda values must be positive and finite, got {bad[0]}")
    y = _validate_fit_inputs(k, y, grid[0])
    return [_finalize(k, y, mu, alpha) for mu, alpha in zip(grid, _sweep(k, y, grid))]


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
        if not np.all(np.isfinite(raw)):  # before np.ptp, which is NaN for such a column
            raise ValueError("covariates must be finite")
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
