"""Analytic Student-t references for the RTBM's densities and conditionals.

Multivariate Student-t joint and conditional densities, the conditional
taking the same ``(indices, values)`` as :func:`rtbm.density.condition_on`,
and seeded t sampling for training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.special import gammaln

from .density import _draw_request, _logdet_from_chol, as_points, free_coordinates
from .model import SYMMETRY_ATOL, _cho_solve
from .theta import spd_cholesky, sym


@dataclass(frozen=True)
class StudentTParams:
    """Location mu, scale matrix sigma (not the covariance), and nu > 0."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("sigma shape incompatible with mu")
        for name, value in (("mu", mu), ("sigma", sigma)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} contains non-finite entries")
        if np.abs(sigma - sigma.T).max() > SYMMETRY_ATOL:
            raise ValueError("sigma must be symmetric")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and positive, got {self.nu}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class ConditionalTParams:
    """Parameters of a conditional Student-t: location, scale matrix, df."""

    loc: np.ndarray
    scale: np.ndarray
    df: float


def student_logpdf(tp: StudentTParams, x) -> np.ndarray | float:
    """Student-t log density at x, a vector or rows checked by ``as_points``."""
    squeeze = np.ndim(x) == 1
    x = as_points(x, tp.p)
    chol = spd_cholesky(tp.sigma, "sigma")
    dev = la.solve_triangular(chol, (x - tp.mu).T, lower=True).T
    maha = np.square(dev).sum(axis=1)
    logdet = _logdet_from_chol(chol)
    half = 0.5 * (tp.nu + tp.p)
    out = (gammaln(half) - gammaln(0.5 * tp.nu)
           - 0.5 * tp.p * np.log(tp.nu * np.pi) - 0.5 * logdet
           - half * np.log1p(maha / tp.nu))
    return float(out[0]) if squeeze else out


def student_conditional(tp: StudentTParams, indices, values) -> ConditionalTParams:
    """Conditional t of the free coordinates given ``values`` at ``indices``.

    The request is checked by :func:`rtbm.density.free_coordinates`, and the
    free coordinates keep their order.  With Sigma split into the
    conditioned block 1 (p1 indices, values x1) and the free block 2, and d1
    the Mahalanobis distance of x1,

        loc   = mu2 + Sigma21 Sigma11^-1 (x1 - mu1)
        scale = (nu + d1) / (nu + p1) * (Sigma22 - Sigma21 Sigma11^-1 Sigma12)
        df    = nu + p1
    """
    indices, x1, free = free_coordinates(indices, values, tp.p)
    p1 = len(indices)
    s11 = tp.sigma[np.ix_(indices, indices)]
    s12 = tp.sigma[np.ix_(indices, free)]
    s22 = tp.sigma[np.ix_(free, free)]
    chol11 = spd_cholesky(s11, "sigma11")
    dev = x1 - tp.mu[indices]
    solve_dev = _cho_solve(chol11, dev)
    d1 = float(dev @ solve_dev)
    loc = tp.mu[free] + s12.T @ solve_dev
    schur = s22 - s12.T @ _cho_solve(chol11, s12)
    scale = (tp.nu + d1) / (tp.nu + p1) * schur
    return ConditionalTParams(loc=loc, scale=sym(scale), df=tp.nu + p1)


def conditional_logpdf(ct: ConditionalTParams, x2) -> np.ndarray | float:
    """Log density of a conditional-t at x2 (vector or rows)."""
    tp = StudentTParams(mu=ct.loc, sigma=ct.scale, nu=ct.df)
    return student_logpdf(tp, x2)


def sample_student(tp: StudentTParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` rows via the Gaussian scale-mixture construction.

    x = mu + L z * sqrt(nu / chi2_nu), with L the Cholesky factor of the
    scale matrix; deterministic for a fixed seed.  A ``count`` that is not
    an integer of at least 1, or a negative integer ``seed``, is a
    ValueError that names it, as in :func:`rtbm.sampling.sample_visible`.
    """
    count = _draw_request(count, seed)
    rng = np.random.default_rng(seed)
    chol = spd_cholesky(tp.sigma, "sigma")
    z = rng.standard_normal((count, tp.p))
    u = rng.chisquare(tp.nu, count)
    return tp.mu + (z @ chol.T) * np.sqrt(tp.nu / u)[:, None]
