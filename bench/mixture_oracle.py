"""Reference densities computed without the rtbm package.

A model enters only as its parameter values (T, Q, W, bv, bh; full integer
lattice). Every density comes from the Gaussian-mixture view of the RTBM:
with S = Q - W^T T^-1 W and z0 = bh - W^T T^-1 bv,

    P(v) = sum_n w_n N(v; mu_n, T^-1),
    w_n  = exp(-n^T S n / 2 + z0^T n) / sum_m exp(-m^T S m / 2 + z0^T m),
    mu_n = T^-1 (W n - bv),

over all integer vectors n. A marginal keeps the same weights and the
marginal blocks of mu_n and T^-1; a conditional is joint minus marginal.

Each sum runs over a lattice box around the largest term. The box is the
bounding box of the ellipsoid on which a term has fallen LEVEL nats (plus
a margin for how far the lattice maximum can sit below the continuous
one) below the peak; its extent along each axis is set by the inverse of
the quadratic form, so by its smallest eigenvalue. After summing, the
largest term on the box boundary is checked to lie BOUNDARY_GAP nats below
the total, so a box that is too small fails instead of truncating.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp

LEVEL = 40.0
BOUNDARY_GAP = 36.0
_CHUNK_ENTRIES = 4_000_000  # rows x lattice points x width per block


class OracleError(AssertionError):
    """The reference computation could not certify its own truncation."""


def _sym(a):
    return 0.5 * (a + a.T)


def _box_offsets(a):
    """Integer offsets covering {k : k^T a k <= 2 (LEVEL + margin)}, plus one.

    The margin LEVEL + lam_max(a) h / 8 bounds how far the best lattice
    point can lie below the continuous peak (each coordinate rounds by at
    most 1/2). Returns the offsets and a mask of those on the box boundary.
    """
    h = a.shape[0]
    level = LEVEL + np.linalg.eigvalsh(a)[-1] * h / 8.0
    half = np.ceil(np.sqrt(2.0 * level * np.diag(np.linalg.inv(a)))).astype(int) + 1
    axes = [np.arange(-r, r + 1) for r in half]
    offsets = np.array(list(itertools.product(*axes)), dtype=np.int64)
    boundary = (np.abs(offsets) == half).any(axis=1)
    return offsets, boundary


def _lattice_logsumexp(log_term, a, centres):
    """log sum_n exp(log_term(rows, n)) for each row, n near round(centre).

    ``log_term(rows, n)`` returns the (r, K) log-terms for the row indices
    ``rows`` at lattice points ``n`` of shape (r, K, h). ``a`` is the
    precision of the terms as a quadratic in n and ``centres`` (B, h) their
    continuous maximisers.
    """
    offsets, boundary = _box_offsets(a)
    base = np.rint(centres).astype(np.int64)
    out = np.empty(base.shape[0])
    step = max(1, _CHUNK_ENTRIES // (offsets.size + 1))
    for lo in range(0, base.shape[0], step):
        rows = np.arange(lo, min(lo + step, base.shape[0]))
        n = base[rows, None, :] + offsets[None, :, :]
        terms = log_term(rows, n)
        total = logsumexp(terms, axis=1)
        edge = terms[:, boundary].max(axis=1)
        if np.any(edge > total - BOUNDARY_GAP):
            raise OracleError("lattice box too small for the requested precision")
        out[rows] = total
    return out


class Mixture:
    """Gaussian-mixture view of one RTBM over the full integer lattice."""

    def __init__(self, t, q, w, bv, bh):
        self.t = _sym(np.array(t, dtype=float))
        self.q = _sym(np.array(q, dtype=float))
        self.n_v, self.n_h = self.t.shape[0], self.q.shape[0]
        self.w = np.array(w, dtype=float).reshape(self.n_v, self.n_h)
        self.bv = np.array(bv, dtype=float).reshape(self.n_v)
        self.bh = np.array(bh, dtype=float).reshape(self.n_h)
        self.cov = _sym(np.linalg.inv(self.t))           # component covariance
        self.mean_map = self.cov @ self.w                 # mu_n = mean_map n - shift
        self.shift = self.cov @ self.bv
        self.s = _sym(self.q - self.w.T @ self.cov @ self.w)
        self.z0 = self.bh - self.w.T @ self.shift
        centre = np.linalg.solve(self.s, self.z0)[None, :]
        self.log_norm = float(_lattice_logsumexp(
            lambda rows, n: self._log_weight_unnormalised(n), self.s, centre)[0])

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["t"], doc["q"], doc["w"], doc["bv"], doc["bh"])

    def _log_weight_unnormalised(self, n):
        return (-0.5 * np.einsum("...i,ij,...j->...", n, self.s, n)
                + n @ self.z0)

    def log_density(self, x, coords=None):
        """Log-density of the coordinates ``coords`` (default: all) at rows x."""
        coords = list(range(self.n_v)) if coords is None else [int(c) for c in coords]
        x = np.atleast_2d(np.asarray(x, dtype=float)).reshape(-1, len(coords))
        cov = self.cov[np.ix_(coords, coords)]
        prec = _sym(np.linalg.inv(cov))
        m = self.mean_map[coords]
        shift = self.shift[coords]
        _, logdet = np.linalg.slogdet(2.0 * math.pi * cov)

        def log_term(rows, n):
            dev = x[rows, None, :] - (n @ m.T - shift)
            log_gauss = -0.5 * np.einsum("rki,ij,rkj->rk", dev, prec, dev) - 0.5 * logdet
            return self._log_weight_unnormalised(n) - self.log_norm + log_gauss

        # as a quadratic in n the term has precision S + m^T prec m and its
        # maximiser solves (S + m^T prec m) n = z0 + m^T prec (x + shift)
        a = _sym(self.s + m.T @ prec @ m)
        centres = np.linalg.solve(a, (self.z0[:, None] + m.T @ prec @ (x + shift).T)).T
        return _lattice_logsumexp(log_term, a, centres)

    def log_conditional(self, y, free, d, fixed):
        """log P(y | d): free coordinates ``free`` at rows y, ``fixed`` = d."""
        y = np.atleast_2d(np.asarray(y, dtype=float)).reshape(-1, len(free))
        d = np.asarray(d, dtype=float).reshape(len(fixed))
        joint_x = np.empty((y.shape[0], self.n_v))
        joint_x[:, list(free)] = y
        joint_x[:, list(fixed)] = d
        return self.log_density(joint_x) - self.log_density(d[None, :], fixed)[0]

    def components(self):
        """Lattice points and normalised log-weights covering the mixture."""
        offsets, _ = _box_offsets(self.s)
        n = np.rint(np.linalg.solve(self.s, self.z0)).astype(np.int64) + offsets
        return n, self._log_weight_unnormalised(n) - self.log_norm

    def moments(self):
        """Mean and covariance of the visible vector."""
        n, log_w = self.components()
        wts = np.exp(log_w)
        means = n @ self.mean_map.T - self.shift
        mean = wts @ means
        dev = means - mean
        return mean, self.cov + (dev.T * wts) @ dev

    def conditional_moments(self, fixed, d):
        """Mean and covariance of the other coordinates given ``fixed`` = d."""
        fixed = [int(i) for i in fixed]
        free = [i for i in range(self.n_v) if i not in fixed]
        d = np.asarray(d, dtype=float).reshape(len(fixed))
        n, log_w = self.components()
        means = n @ self.mean_map.T - self.shift
        cov_dd = self.cov[np.ix_(fixed, fixed)]
        gain = self.cov[np.ix_(free, fixed)] @ np.linalg.inv(cov_dd)
        dev = d - means[:, fixed]
        log_w = log_w - 0.5 * np.einsum("ki,ij,kj->k", dev, np.linalg.inv(cov_dd), dev)
        wts = np.exp(log_w - logsumexp(log_w))
        cond_means = means[:, free] + dev @ gain.T
        mean = wts @ cond_means
        spread = cond_means - mean
        within = self.cov[np.ix_(free, free)] - gain @ self.cov[np.ix_(fixed, free)]
        return mean, within + (spread.T * wts) @ spread

    def sample(self, count, rng):
        """Draws by component choice then Gaussian noise."""
        n, log_w = self.components()
        p = np.exp(log_w)
        idx = rng.choice(len(p), size=count, p=p / p.sum())
        means = n[idx] @ self.mean_map.T - self.shift
        chol = np.linalg.cholesky(self.cov)
        return means + rng.standard_normal((count, self.n_v)) @ chol.T


def student_t_conditional_pdf(mu, sigma, nu, x1, x2):
    """Density of x2 given x1 for a bivariate Student-t, from scipy.stats.t."""
    from scipy import stats  # slow to import, and needed only by the checks
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    dev = x1 - mu[0]
    maha = dev * dev / sigma[0, 0]
    loc = mu[1] + sigma[1, 0] / sigma[0, 0] * dev
    scale2 = (nu + maha) / (nu + 1.0) * (sigma[1, 1] - sigma[1, 0] ** 2 / sigma[0, 0])
    return stats.t.pdf(x2, df=nu + 1.0, loc=loc, scale=math.sqrt(scale2))


def gaussian_mle_nll_per_point(data):
    """Mean negative log-likelihood of the maximum-likelihood Gaussian."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    p = data.shape[1]
    cov = np.atleast_2d(np.cov(data.T, bias=True))
    _, logdet = np.linalg.slogdet(cov)
    return 0.5 * (p * math.log(2.0 * math.pi) + logdet + p)
