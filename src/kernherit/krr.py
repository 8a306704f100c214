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
Both come from the LDL^T recurrence of T_k + mu I, carried one row per
step, and the PSD check of T_k is the inertia of the same recurrence, so
a fit calls no eigendecomposition at all. One basis serves the whole
grid, at k matrix-vector products with K plus O(n k^2) of
reorthogonalization. Each fit is checked by its own solve residual (see
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

# Products and norms on the sweep and fit path call BLAS through
# ndarray.dot rather than the matmul operator: the same BLAS routine
# without the ufunc dispatch, so the same bits at less overhead per call,
# which is most of a Lanczos step at n of a few hundred. A norm is
# math.sqrt(x.dot(x)), numpy's own formula for a real vector.

# A shift's sweep stops once its residual estimate is below
# _STOP_RTOL * 2 ||y||, and the Krylov space counts as exhausted once the
# next Lanczos vector has norm below _BREAKDOWN_RTOL * ||K||_F; see _sweep.
_STOP_RTOL = 1e-14
_BREAKDOWN_RTOL = 1e-15


@dataclass(frozen=True)
class KrrFit:
    """A fitted ridge regression with derived heritability estimates.

    ``h2_hat`` is NaN exactly when the 0/0 guard tripped (total variance
    below 1e-300), and finite otherwise: NaN is the one marker of an
    undefined estimate.
    """

    n: int
    nlambda: float
    alpha_hat: np.ndarray
    g_hat: np.ndarray
    sigma_g2_hat: float
    sigma_eps2_hat: float
    h2_hat: float


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
    g_hat = k.matrix.dot(alpha)
    r = g_hat + nlambda * alpha - y
    r_norm = math.sqrt(r.dot(r))
    bound = _SOLVE_RTOL * (
        (k.frobenius_norm + nlambda) * math.sqrt(alpha.dot(alpha)) + math.sqrt(y.dot(y))
    )
    if not r_norm <= bound:
        raise NumericalError(
            f"ridge solve at nlambda={nlambda!r} failed its residual check "
            f"(||(K + nlambda I) alpha - y|| = {r_norm:.3e}, bound {bound:.3e})"
        )
    resid = y - g_hat
    sigma_eps2 = float(resid.dot(resid)) / n
    if n > 1:
        gc = g_hat - g_hat.mean()
        sigma_g2 = float(gc.dot(gc)) / (n - 1)
    else:
        sigma_g2 = 0.0
    denom = sigma_g2 + sigma_eps2
    h2 = sigma_g2 / denom if denom >= _H2_DENOM_FLOOR else math.nan
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
    )


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from ``w``, in place, its components along the rows of ``basis``.

    Two classical Gram-Schmidt passes against orthonormal rows; returns
    the summed coefficients of both passes.
    """
    h = basis.dot(w)
    w -= h.dot(basis)
    h2 = basis.dot(w)
    w -= h2.dot(basis)
    return h + h2


def _back_substitute(lower: list[float], v: list[float]) -> np.ndarray:
    """Solve L^T c = v, where L is unit lower bidiagonal with L[j + 1, j] = lower[j].

    c_{k-1} = v_{k-1}, then c_j = v_j - lower[j] c_{j+1}.
    """
    c = list(v)
    for j in range(len(c) - 2, -1, -1):
        c[j] -= lower[j] * c[j + 1]
    return np.array(c)


def _sweep(k: KernelMatrix, y: np.ndarray, grid: Sequence[float]) -> list[np.ndarray]:
    """Solve (K + mu I) alpha = y for every mu in ``grid`` from one Lanczos run.

    The basis rows q_0 = y / ||y||, q_1, ... are kept orthonormal by
    :func:`_orthogonalize`. Each pending shift mu carries the LDL^T
    factorization of T_{j+1} + mu I one row per step, as Python floats:
    pivot d_j = a_j + mu - b_{j-1} l_j with l_j = b_{j-1} / d_{j-1}, and
    v = D^-1 L^-1 ||y|| e_1, whose last entry v_j = c_j is the last entry
    of c = (T_{j+1} + mu I)^-1 ||y|| e_1, so the residual of shift mu has
    norm beta_j |v_j|. Shift mu stops at the first k_mu = j + 1 with
    beta_j |v_j| <= 1e-14 * 2 ||y||. Because ||c|| >= ||y|| / (||K||_F + mu),
    that bound is never looser than 1e-14 ((||K||_F + mu) ||c|| + ||y||),
    and far tighter than the check in :func:`_finalize`. Every shift still
    pending stops when beta_j <= 1e-15 ||K||_F or j + 1 = n (the Krylov
    space is exhausted) and leaves the verdict to :func:`_finalize`.

    Once every shift has stopped, T_{k_max} must pass
    ``matrixcore.require_psd_tridiagonal`` with the reference
    max(diag T_{k_min}); see there for why that is at least as strict as
    checking the Ritz values of every T_{k_mu}. Then c solves L^T c = v
    (:func:`_back_substitute`) and alpha_mu = c Q_{k_mu}. No step
    depends on another shift, so a single fit and a grid sweep agree
    bitwise. A direction of K that y does not excite is invisible here,
    but it cannot move alpha either.
    """
    n = k.n
    y_norm = math.sqrt(y.dot(y))
    if y_norm == 0.0:
        return [np.zeros(n) for _ in grid]
    a = k.matrix
    target = _STOP_RTOL * 2.0 * y_norm
    floor = _BREAKDOWN_RTOL * k.frobenius_norm
    basis = np.empty((n, n))  # rows are touched (and paid for) only once used
    basis[0] = y / y_norm
    diag: list[float] = []
    off: list[float] = []
    # Per shift i: mu, pivot d_j, z_j = d_j v_j, and the rows of L and v so far.
    mus = [float(mu) for mu in grid]
    d = [0.0] * len(mus)
    z = [y_norm] * len(mus)
    lower: list[list[float]] = [[] for _ in mus]
    v: list[list[float]] = [[] for _ in mus]
    stop = [0] * len(mus)  # k_mu once shift i has stopped
    pending = list(range(len(mus)))
    for j in range(n):
        w = a.dot(basis[j])
        aj = float(_orthogonalize(basis[: j + 1], w)[j])
        diag.append(aj)
        beta = math.sqrt(w.dot(w))
        still = []
        for i in pending:
            if j == 0:
                d[i] = aj + mus[i]
            else:
                l_j = b_prev / d[i]
                lower[i].append(l_j)
                z[i] = -l_j * z[i]
                d[i] = aj + mus[i] - b_prev * l_j
            if d[i] == 0.0:
                raise NumericalError(
                    f"kernel is not positive semidefinite: T_{j + 1} + nlambda I is "
                    f"singular at nlambda={mus[i]!r}, so K has an eigenvalue <= {-mus[i]!r}"
                )
            v_j = z[i] / d[i]
            v[i].append(v_j)
            if beta * abs(v_j) <= target:
                stop[i] = j + 1
            else:
                still.append(i)
        pending = still
        if beta <= floor or j + 1 == n:
            for i in pending:
                stop[i] = j + 1
            pending = []
        if not pending:
            break
        b_prev = beta
        off.append(beta)
        np.divide(w, beta, out=basis[j + 1])

    matrixcore.require_psd_tridiagonal(diag, off, max(diag[: min(stop)]))
    return [_back_substitute(lower[i], v[i]).dot(basis[: stop[i]]) for i in range(len(mus))]


def fit(k: KernelMatrix, y, nlambda: float) -> KrrFit:
    """Fit kernel ridge regression at one regularization strength.

    This is the one-point grid of :func:`lambda_grid_fit`, so the result
    is bitwise the same as the matching point of any grid.
    """
    return lambda_grid_fit(k, y, (nlambda,))[0]


def lambda_grid_fit(k: KernelMatrix, y, grid: Sequence[float]) -> list[KrrFit]:
    """Fit once per nlambda in ``grid``, sharing one Krylov sweep."""
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValueError("nlambda grid must be non-empty")
    bad = [v for v in grid if not 0 < v < math.inf]
    if bad:
        raise ValueError(f"all nlambda values must be positive and finite, got {bad[0]}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != k.n:
        raise ValueError(
            f"dimension mismatch: kernel order {k.n} vs phenotype shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("phenotypes must be finite")
    return [_finalize(k, y, mu, alpha) for mu, alpha in zip(grid, _sweep(k, y, grid))]


def residualize(y, x: np.ndarray | None) -> np.ndarray:
    """Project phenotypes onto the orthocomplement of the covariate span.

    Returns Y minus its least-squares fit on the covariate columns ``x``
    (none for ``None``, one for a vector) with an intercept prepended;
    the output is orthogonal to every column. Exactly constant columns
    are absorbed by the intercept and dropped, so an intercept-only
    covariate file reduces cleanly to mean-centering. The remaining
    matrix is QR-factored once: R's diagonal checks full column rank,
    naming the first offending column (the intercept is column 0), and
    Q projects.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"phenotypes must be a vector, got shape {y.shape}")
    n = y.shape[0]
    intercept = np.ones((n, 1))
    if x is None:
        x = intercept
    else:
        raw = np.asarray(x, dtype=np.float64)
        if raw.ndim == 1:
            raw = raw[:, None]
        if raw.ndim != 2:
            raise ValueError(f"covariates must be 2-D, got shape {raw.shape}")
        if raw.shape[0] != n:
            raise ValueError(f"covariates have {raw.shape[0]} rows but phenotypes have {n}")
        if not np.all(np.isfinite(raw)):  # before np.ptp, which is NaN for such a column
            raise ValueError("covariates must be finite")
        x = np.hstack([intercept, raw[:, np.ptp(raw, axis=0) > 0.0]])
    q_mat, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    tol = n * np.finfo(np.float64).eps * max(diag.max(), 1.0)
    deficient = np.nonzero(diag <= tol)[0]
    if deficient.size:
        raise ValueError(
            f"covariate matrix is rank deficient at column {int(deficient[0])} "
            "(counting the prepended intercept as column 0)"
        )
    if n <= x.shape[1]:
        raise ValueError(
            f"need more observations ({n}) than fitted coefficients ({x.shape[1]})"
        )
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
            "undefined" if math.isnan(fit_result.h2_hat) else repr(fit_result.h2_hat),
        )
    )
