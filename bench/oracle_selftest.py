#!/usr/bin/env python3
"""Checks of the benchmark's reference densities against closed forms.

A fault in the checker must not pass for a fault in the program, so the
mixture oracle is itself tested here, without rtbm:

- W = 0 reduces the model to the Gaussian N(-T^-1 bv, T^-1): joint,
  marginal, conditional and moments against scipy.stats.multivariate_normal
  and the Gaussian block formulas;
- a model with one hidden unit against direct summation of the theta-ratio
  formula over a wide range of n, and its marginal against trapezoid
  integration of that joint;
- the Student-t conditional against the ratio of scipy's bivariate and
  univariate t densities;
- the Gaussian MLE NLL against scipy.stats.multivariate_normal.

Run standalone (``python3 bench/oracle_selftest.py``) or through
``run_all()``, which returns the failures as strings.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from mixture_oracle import Mixture, gaussian_mle_nll_per_point, student_t_conditional_pdf

TOL = 1e-10


def _close(label, got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())
    return [] if err <= tol else [f"oracle self-test {label}: error {err:.3g}"]


def _spd(rng, n, lo, hi):
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (basis * rng.uniform(lo, hi, n)) @ basis.T
    return 0.5 * (a + a.T)


def gaussian_reduction(rng):
    t = _spd(rng, 3, 0.5, 4.0)
    bv = rng.standard_normal(3)
    mix = Mixture(t, _spd(rng, 2, 1.0, 5.0), np.zeros((3, 2)), bv, rng.standard_normal(2))
    cov = np.linalg.inv(t)
    mean = -cov @ bv
    x = rng.multivariate_normal(mean, cov, size=20)
    out = _close("W=0 joint", mix.log_density(x),
                 stats.multivariate_normal(mean, cov).logpdf(x))
    keep = [0, 2]
    out += _close("W=0 marginal", mix.log_density(x[:, keep], keep),
                  stats.multivariate_normal(mean[keep], cov[np.ix_(keep, keep)]).logpdf(x[:, keep]))
    free, fixed = [1], [0, 2]
    d = x[0, fixed]
    gain = cov[np.ix_(free, fixed)] @ np.linalg.inv(cov[np.ix_(fixed, fixed)])
    c_mean = mean[free] + gain @ (d - mean[fixed])
    c_cov = cov[np.ix_(free, free)] - gain @ cov[np.ix_(fixed, free)]
    out += _close("W=0 conditional", mix.log_conditional(x[:, free], free, d, fixed),
                  stats.multivariate_normal(c_mean, c_cov).logpdf(x[:, free]))
    m, c = mix.moments()
    out += _close("W=0 mean", m, mean) + _close("W=0 covariance", c, cov)
    cm, cc = mix.conditional_moments(fixed, d)
    out += _close("W=0 conditional mean", cm, c_mean)
    out += _close("W=0 conditional covariance", cc, c_cov)
    return out


def one_hidden_unit(rng):
    """n_v=2, n_h=1 with a soft hidden direction, so many n contribute."""
    t = np.array([[1.3, 0.4], [0.4, 0.9]])
    w = np.array([[0.8], [-0.5]])
    bv = np.array([0.3, -0.2])
    bh = np.array([0.7])
    s_target = 0.05
    q = w.T @ np.linalg.solve(t, w) + s_target
    mix = Mixture(t, q, w, bv, bh)
    n = np.arange(-200, 201, dtype=float)

    def log_theta(z, omega):
        return logsumexp(-0.5 * omega * n * n + np.multiply.outer(z, n), axis=-1)

    s = float(q[0, 0] - w[:, 0] @ np.linalg.solve(t, w[:, 0]))
    z0 = float(bh[0] - w[:, 0] @ np.linalg.solve(t, bv))
    tinv_bv = np.linalg.solve(t, bv)

    def log_joint(x):
        u = x + tinv_bv
        return (0.5 * np.linalg.slogdet(t)[1] - math.log(2.0 * math.pi)
                - 0.5 * np.einsum("bi,ij,bj->b", u, t, u)
                + log_theta(bh[0] + x @ w[:, 0], q[0, 0]) - log_theta(z0, s))

    x = mix.sample(25, rng)
    out = _close("one hidden unit joint", mix.log_density(x), log_joint(x))

    axis = np.linspace(-40.0, 40.0, 2001)
    d = x[:3, 1]
    pts = np.stack([np.repeat(axis, len(d)), np.tile(d, len(axis))], axis=1)
    dens = np.exp(log_joint(pts)).reshape(len(axis), len(d))
    out += _close("one hidden unit marginal", mix.log_density(d[:, None], [1]),
                  np.log(np.trapezoid(dens, axis, axis=0)), tol=1e-8)

    log_w = -0.5 * s * n * n + z0 * n
    wts = np.exp(log_w - logsumexp(log_w))
    means = np.outer(n, np.linalg.solve(t, w[:, 0])) - tinv_bv
    mean = wts @ means
    out += _close("one hidden unit mean", mix.moments()[0], mean)
    return out


def student_t(rng):
    mu, sigma, nu = np.array([0.3, -0.1]), np.array([[2.0, -1.0], [-1.0, 4.0]]), 6.0
    x1 = 1.7
    x2 = rng.standard_normal(10) * 3.0
    joint = stats.multivariate_t(mu, sigma, df=nu).pdf(np.column_stack([np.full(10, x1), x2]))
    marginal = stats.t.pdf(x1, df=nu, loc=mu[0], scale=math.sqrt(sigma[0, 0]))
    return _close("Student-t conditional", student_t_conditional_pdf(mu, sigma, nu, x1, x2),
                  joint / marginal)


def gaussian_mle(rng):
    data = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.3], [0.0, 2.0]])
    mle = stats.multivariate_normal(data.mean(axis=0), np.cov(data.T, bias=True))
    return _close("Gaussian MLE NLL", gaussian_mle_nll_per_point(data), -mle.logpdf(data).mean())


def run_all(seed=0):
    rng = np.random.default_rng(seed)
    return (gaussian_reduction(rng) + one_hidden_unit(rng) + student_t(rng)
            + gaussian_mle(rng))


if __name__ == "__main__":
    failures = run_all()
    for line in failures:
        print(line)
    print("oracle self-test:", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)
