"""Maximum-likelihood RTBM fitting with CMA-ES.

The search runs over an unconstrained encoding: T and Q are built from
lower-triangular factors with exponentiated diagonals (so both are
positive definite by construction), while W and the biases are raw.
Positive definiteness of the Schur-type matrix Q - W^T T^-1 W is not
structural. The objective is the plain negative log-likelihood: a
candidate whose Schur matrix does not factor scores +inf, like any other
model whose density cannot be evaluated. CMA-ES selection is rank based,
so such candidates rank below every finite one, and among themselves by
their index in the population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cma
from .density import log_pdf_many
from .errors import FitError, RtbmError
from .model import RtbmParams, validate
from .theta import DEFAULT_EPS, Lattice, check_eps


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one fit; defaults follow the standard CMA tuning."""

    n_h: int
    restarts: int = 5
    population: int | None = None   # None: 4 + floor(3 ln dim)
    sigma0: float = 0.3
    max_evals: int = 50000
    seed: int = 0
    theta_eps: float = DEFAULT_EPS
    lattice: Lattice = Lattice.FULL
    standardize: bool = False

    def __post_init__(self):
        if self.n_h < 1 or self.restarts < 1 or self.max_evals < 1:
            raise ValueError("n_h, restarts and max_evals must be positive")
        if not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        check_eps(self.theta_eps)
        if self.population is not None and self.population < 2:
            raise ValueError("population must be at least 2")


@dataclass(frozen=True)
class FitResult:
    params: RtbmParams
    nll: float
    trace: list = field(default_factory=list)
    evals: int = 0


def free_parameter_count(n_v: int, n_h: int) -> int:
    return n_v * (n_v + 1) // 2 + n_h * (n_h + 1) // 2 + n_v * n_h + n_v + n_h


def _tril_to_matrix(vals, n):
    fac = np.zeros((n, n))
    fac[np.tril_indices(n)] = vals
    diag = np.diag_indices(n)
    fac[diag] = np.exp(fac[diag])
    return fac @ fac.T, fac


def decode(x, n_v: int, n_h: int, lattice=Lattice.FULL) -> RtbmParams:
    """Unpack a free-parameter vector into a model with T, Q guaranteed PD."""
    x = np.asarray(x, dtype=float)
    expected = free_parameter_count(n_v, n_h)
    if x.shape != (expected,):
        raise ValueError(f"expected vector of length {expected}, got {x.shape}")
    nt = n_v * (n_v + 1) // 2
    nq = n_h * (n_h + 1) // 2
    pos = 0
    t, _ = _tril_to_matrix(x[pos:pos + nt], n_v); pos += nt
    q, _ = _tril_to_matrix(x[pos:pos + nq], n_h); pos += nq
    w = x[pos:pos + n_v * n_h].reshape(n_v, n_h); pos += n_v * n_h
    bv = x[pos:pos + n_v]; pos += n_v
    bh = x[pos:]
    return RtbmParams(t=t, q=q, w=w, bv=bv, bh=bh, lattice=lattice)


def negative_log_likelihood(params: RtbmParams, data, eps=DEFAULT_EPS) -> float:
    """Summed negative log-density over the rows of ``data``.

    Malformed data (wrong width, no rows, NaN or infinite values) raises
    ValueError.  A model whose density cannot be evaluated (an RtbmError
    such as a theta truncation failure) or is non-finite at some row scores
    +inf, a penalty value rather than an exception, so that optimizers see a
    total function of the model.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != params.n_v:
        raise ValueError(
            f"data width {data.shape[1]} does not match n_v={params.n_v}")
    if data.shape[0] == 0:
        raise ValueError("data must be nonempty")
    if not np.isfinite(data).all():
        raise ValueError("data must be finite")
    try:
        lp = log_pdf_many(params, data, eps)
    except RtbmError:
        return math.inf
    if not np.isfinite(lp).all():
        return math.inf
    return float(-lp.sum())


def make_objective(data, n_v, n_h, lattice, eps):
    """NLL over the encoding; +inf where the decoded model is invalid."""
    def objective(x):
        return negative_log_likelihood(decode(x, n_v, n_h, lattice), data, eps)
    return objective


def _standardize(data):
    mean = data.mean(axis=0)
    scale = data.std(axis=0)
    if np.any(scale <= 0):
        raise FitError("cannot standardize: a column has zero variance")
    return (data - mean) / scale, mean, scale


def _destandardize(params: RtbmParams, mean, scale) -> RtbmParams:
    """Map a model fit on (x - mean) / scale back to raw coordinates.

    Diagonal affine maps stay inside the family: T -> D^-1 T D^-1,
    W -> D^-1 W, bv -> D^-1 bv - T' mu, bh -> bh - W'^T mu, with
    D = diag(scale); the Schur matrix is unchanged.
    """
    d_inv = 1.0 / scale
    t_new = params.t * np.outer(d_inv, d_inv)
    w_new = params.w * d_inv[:, None]
    bv_new = d_inv * params.bv - t_new @ mean
    bh_new = params.bh - w_new.T @ mean
    return RtbmParams(t=t_new, q=params.q, w=w_new, bv=bv_new, bh=bh_new,
                      lattice=params.lattice)


def fit_density(data, config: FitConfig) -> FitResult:
    """Fit an RTBM to samples by restarted CMA-ES over the encoding.

    Runs ``config.restarts`` independent searches from randomized
    encodings and returns the best run that found a finite likelihood.
    Fully deterministic for a fixed ``config.seed``.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        raise FitError("no training data")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise FitError(f"training data has NaN or infinite values in {bad.size} "
                       f"row(s), first at index {bad[0]}")
    n_v = data.shape[1]
    n_h = config.n_h
    dim = free_parameter_count(n_v, n_h)

    fit_data = data
    mean = scale = None
    if config.standardize:
        fit_data, mean, scale = _standardize(data)
    objective = make_objective(fit_data, n_v, n_h, config.lattice,
                               config.theta_eps)
    bh_slice = slice(dim - n_h, dim)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best = None
    total_evals = 0
    diagnostics = []
    for run_seed in seeds:
        init_ss, cma_ss = run_seed.spawn(2)
        rng = np.random.default_rng(init_ss)
        x0 = rng.normal(0.0, 0.5, dim)
        x0[bh_slice] += rng.normal(0.0, 2.0, n_h)  # break hidden-unit symmetry
        res = cma.minimize(objective, dim, x0=x0, sigma0=config.sigma0,
                           population=config.population,
                           max_evals=config.max_evals, seed=cma_ss)
        total_evals += res.evals
        diagnostics.append(f"f_best={res.f_best:.6g} evals={res.evals}")
        if math.isfinite(res.f_best) and (best is None or res.f_best < best.f_best):
            best = res

    if best is None:
        raise FitError("no restart found a model whose likelihood could be "
                       "evaluated: " + "; ".join(diagnostics))

    params = decode(best.x_best, n_v, n_h, config.lattice)
    if config.standardize:
        params = _destandardize(params, mean, scale)
    report = validate(params)
    if not report.valid:
        raise FitError(f"best fit failed validation: {report}")
    nll = negative_log_likelihood(params, data, config.theta_eps)
    return FitResult(params=params, nll=nll, trace=best.trace,
                     evals=total_evals)
