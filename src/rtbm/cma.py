"""Covariance matrix adaptation evolution strategy, (mu/mu_w, lambda) form.

Standard weighted-recombination CMA-ES with cumulative step-size
adaptation and rank-1 plus rank-mu covariance updates, following the
widely published default tuning.  Selection is purely rank-based, so the
objective may return +inf for infeasible candidates.  Deterministic for a
fixed seed: a single PCG64 stream, drawn in the calling process.

The lambda candidates of a generation are all scored before any is ranked,
so :func:`rtbm.pool.scorer` scores them on several processes, each claiming
the next unscored one, with the same result for any number and any split.

A run stops on the first of: the evaluation budget (``"budget"``); the
step size below SIGMA_STOP (``"sigma"``); the covariance condition (ratio
of largest to smallest axis length) above COND_STOP (``"condition"``); or
no improvement of the best value by more than STALL_TOL over
STALL_EVALS_PER_DIM * dim evaluations (``"stall"``).  The result names the
reason in ``stop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pool

SIGMA0 = 0.3
SIGMA_STOP = 1e-12
COND_STOP = 1e7
STALL_TOL = 1e-10
STALL_EVALS_PER_DIM = 50


@dataclass
class CmaResult:
    x_best: np.ndarray
    f_best: float
    evals: int
    trace: list = field(default_factory=list)  # (evals, best-so-far) per generation
    stop: str = "budget"   # why the run ended: budget, sigma, condition or stall


def minimize(objective, x0, *, max_evals: int, seed) -> CmaResult:
    """Minimize a total function on R^dim from the nonempty vector ``x0``.

    The initial step size is SIGMA0.  Stops as the module docstring says.
    Returns the best evaluated point, never the distribution mean.  Each
    generation is scored by :func:`rtbm.pool.scorer`, whose workers are
    reaped before this returns or raises.
    """
    mean = np.array(x0, dtype=float)
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError(f"x0 must be a nonempty vector, got shape {mean.shape}")
    dim = mean.size
    rng = np.random.default_rng(seed)
    lam = 4 + int(3 * math.log(dim))
    mu = lam // 2
    weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_eff = 1.0 / np.square(weights).sum()

    c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1,
               2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim ** 2))

    sigma = SIGMA0
    cov = np.eye(dim)
    p_sigma = np.zeros(dim)
    p_c = np.zeros(dim)
    eig_vecs = np.eye(dim)
    eig_sqrt = np.ones(dim)

    x_best = mean.copy()
    f_best = math.inf
    evals = 0
    gen = 0
    trace = []
    stall_gens = max(1, math.ceil(STALL_EVALS_PER_DIM * dim / lam))
    last_improved = 0
    stop = "budget"

    with pool.scorer(objective, lam) as score:
        while evals < max_evals:
            gen += 1
            z = rng.standard_normal((lam, dim))
            y = (z * eig_sqrt) @ eig_vecs.T
            xs = mean + sigma * y
            fs = score(xs)
            evals += lam

            order = np.argsort(fs, kind="stable")
            if fs[order[0]] < f_best - STALL_TOL:
                last_improved = gen
            if fs[order[0]] < f_best:
                f_best = float(fs[order[0]])
                x_best = xs[order[0]].copy()
            trace.append((evals, f_best))

            y_w = weights @ y[order[:mu]]
            mean = mean + sigma * y_w

            inv_sqrt_y = eig_vecs @ ((eig_vecs.T @ y_w) / eig_sqrt)
            p_sigma = (1.0 - c_sigma) * p_sigma \
                + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * inv_sqrt_y
            norm_ps = float(np.linalg.norm(p_sigma))
            h_sigma = norm_ps / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * gen)) \
                < (1.4 + 2.0 / (dim + 1.0)) * chi_n
            p_c = (1.0 - c_c) * p_c
            if h_sigma:
                p_c = p_c + math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

            rank_mu = (y[order[:mu]].T * weights) @ y[order[:mu]]
            cov = ((1.0 - c_1 - c_mu) * cov
                   + c_1 * (np.outer(p_c, p_c)
                            + (0.0 if h_sigma else c_c * (2.0 - c_c)) * cov)
                   + c_mu * rank_mu)
            cov = 0.5 * (cov + cov.T)
            sigma *= math.exp((c_sigma / d_sigma) * (norm_ps / chi_n - 1.0))

            eig_vals, eig_vecs = np.linalg.eigh(cov)
            eig_vals = np.maximum(eig_vals, 1e-30 * max(eig_vals.max(), 1e-300))
            eig_sqrt = np.sqrt(eig_vals)

            if sigma < SIGMA_STOP:
                stop = "sigma"
            elif eig_sqrt.max() / eig_sqrt.min() > COND_STOP:
                stop = "condition"
            elif gen - last_improved >= stall_gens:
                stop = "stall"
            else:
                continue
            break

    return CmaResult(x_best=x_best, f_best=f_best, evals=evals, trace=trace, stop=stop)
