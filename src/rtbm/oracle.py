"""Analytic and brute-force references used to validate the RTBM machinery.

Multivariate Student-t joint and conditional densities, trapezoid
marginalization of the RTBM joint, and seeded t sampling for training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.special import gammaln, logsumexp

from .errors import GridError
from .density import log_pdf_many
from .model import RtbmParams, spd_cholesky


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
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ValueError("sigma must be symmetric")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
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
    p1: int
    p2: int


def student_logpdf(tp: StudentTParams, x) -> np.ndarray | float:
    """Log density of the multivariate Student-t at x (vector or rows)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != tp.p:
        raise ValueError(f"points have width {x.shape[1]}, expected {tp.p}")
    chol = spd_cholesky(tp.sigma, "sigma")
    dev = la.solve_triangular(chol, (x - tp.mu).T, lower=True).T
    maha = np.square(dev).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    half = 0.5 * (tp.nu + tp.p)
    out = (gammaln(half) - gammaln(0.5 * tp.nu)
           - 0.5 * tp.p * np.log(tp.nu * np.pi) - 0.5 * logdet
           - half * np.log1p(maha / tp.nu))
    return float(out[0]) if squeeze else out


def student_conditional(tp: StudentTParams, p1: int, x1) -> ConditionalTParams:
    """Distribution of the trailing block given the leading p1 coordinates.

    Standard conditional-t block arithmetic: with Sigma partitioned into
    (11, 12; 21, 22) and d1 the Mahalanobis distance of x1,

        loc   = mu2 + Sigma21 Sigma11^-1 (x1 - mu1)
        scale = (nu + d1) / (nu + p1) * (Sigma22 - Sigma21 Sigma11^-1 Sigma12)
        df    = nu + p1
    """
    if not 0 < p1 < tp.p:
        raise ValueError(f"p1 must be in (0, {tp.p}), got {p1}")
    x1 = np.asarray(x1, dtype=float).reshape(p1)
    s11 = tp.sigma[:p1, :p1]
    s12 = tp.sigma[:p1, p1:]
    s22 = tp.sigma[p1:, p1:]
    chol11 = spd_cholesky(s11, "sigma11")
    dev = x1 - tp.mu[:p1]
    solve_dev = la.cho_solve((chol11, True), dev)
    d1 = float(dev @ solve_dev)
    loc = tp.mu[p1:] + s12.T @ solve_dev
    schur = s22 - s12.T @ la.cho_solve((chol11, True), s12)
    scale = (tp.nu + d1) / (tp.nu + p1) * schur
    return ConditionalTParams(loc=loc, scale=0.5 * (scale + scale.T),
                              df=tp.nu + p1, p1=p1, p2=tp.p - p1)


def conditional_logpdf(ct: ConditionalTParams, x2) -> np.ndarray | float:
    """Log density of a conditional-t at x2 (vector or rows)."""
    tp = StudentTParams(mu=ct.loc, sigma=ct.scale, nu=ct.df)
    return student_logpdf(tp, x2)


def quadrature_marginal(params: RtbmParams, m: int, d, grid,
                        edge_tol=1e-10) -> float:
    """Trapezoid estimate of log P(d), marginalizing the leading m coords.

    ``grid`` is a sequence of (lo, hi, nodes) per free dimension, m <= 2.
    Fails loudly when the integrand carries more than ``edge_tol`` of the
    integral on the grid boundary (grid too small).
    """
    if not 0 < m < params.n_v:
        raise ValueError(f"m must be in (0, {params.n_v}), got {m}")
    if m > 2:
        raise ValueError("quadrature oracle supports m <= 2 only")
    grid = list(grid)
    if len(grid) != m:
        raise ValueError(f"need {m} grid specs, got {len(grid)}")
    axes, log_weights = [], []
    for lo, hi, nodes in grid:
        if nodes < 101:
            raise ValueError("at least 101 nodes per dimension")
        if not lo < hi:
            raise ValueError("grid lo must be below hi")
        x = np.linspace(lo, hi, int(nodes))
        w = np.full(int(nodes), x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(x)
        log_weights.append(np.log(w))

    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([g.ravel() for g in mesh], axis=1)
    lw = log_weights[0]
    if m == 2:
        lw = (log_weights[0][:, None] + log_weights[1][None, :]).ravel()
    d = np.asarray(d, dtype=float).reshape(params.n_v - m)
    pts = np.hstack([ys, np.broadcast_to(d, (ys.shape[0], d.shape[0]))])
    chunk = 1 << 17  # bound the theta batch width on dense 2D grids
    logf = np.concatenate([
        log_pdf_many(params, pts[i:i + chunk])
        for i in range(0, pts.shape[0], chunk)])
    log_integral = float(logsumexp(logf + lw))

    shape = tuple(len(a) for a in axes)
    boundary = np.zeros(shape, dtype=bool)
    for axis in range(m):
        index = [slice(None)] * m
        index[axis] = 0
        boundary[tuple(index)] = True
        index[axis] = -1
        boundary[tuple(index)] = True
    log_edge = float(logsumexp((logf + lw)[boundary.ravel()]))
    if log_edge > np.log(edge_tol) + log_integral:
        raise GridError(
            f"grid edge mass {np.exp(log_edge - log_integral):.3g} of the "
            f"integral exceeds {edge_tol:g}; enlarge the grid")
    return log_integral


def sample_student(tp: StudentTParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` rows via the Gaussian scale-mixture construction.

    x = mu + L z * sqrt(nu / chi2_nu), with L the Cholesky factor of the
    scale matrix; deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    chol = spd_cholesky(tp.sigma, "sigma")
    z = rng.standard_normal((count, tp.p))
    u = rng.chisquare(tp.nu, count)
    return tp.mu + (z @ chol.T) * np.sqrt(tp.nu / u)[:, None]
