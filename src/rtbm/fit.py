"""Maximum-likelihood RTBM fitting with CMA-ES.

The search runs over an unconstrained encoding: T and Q are built from
lower-triangular factors with exponentiated diagonals (so both are
positive definite by construction), while W and the biases are raw.
Positive definiteness of the Schur-type matrix Q - W^T T^-1 W is not
structural. The objective is the plain negative log-likelihood: a
candidate whose Schur matrix does not factor, or whose T or Q overflows,
scores +inf, like any other model whose density cannot be evaluated.
CMA-ES selection is rank based, so such candidates rank below every finite
one, and among themselves by their index in the population.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cma
from .density import _index, as_points, log_pdf_many
from .errors import FitError, RtbmError
from .model import RtbmParams, _finite, validate
from .theta import Lattice


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one fit; CMA-ES itself runs with its standard tuning."""

    n_h: int
    restarts: int = 5
    max_evals: int = 50000
    seed: int = 0
    lattice: Lattice = Lattice.FULL

    def __post_init__(self):
        for name in ("n_h", "restarts", "max_evals", "seed"):
            value = _index(getattr(self, name), name)
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, value)
        try:
            lattice = Lattice(self.lattice)
        except ValueError:
            raise ValueError(f"lattice must be one of {', '.join(l.value for l in Lattice)}, "
                             f"got {self.lattice!r}") from None
        object.__setattr__(self, "lattice", lattice)


@dataclass(frozen=True)
class FitResult:
    params: RtbmParams
    nll: float
    trace: list = field(default_factory=list)
    evals: int = 0


def free_parameter_count(n_v: int, n_h: int) -> int:
    return n_v * (n_v + 1) // 2 + n_h * (n_h + 1) // 2 + n_v * n_h + n_v + n_h


@functools.lru_cache(maxsize=16)
def _tril_indices(n):
    """``np.tril_indices(n)``, made once per size rather than on every decode."""
    rows, cols = np.tril_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _tril_to_matrix(vals, n, name):
    """L L^T, L lower triangular with exponentiated diagonal; finite or raises."""
    fac = np.zeros((n, n))
    fac[_tril_indices(n)] = vals
    diag = np.diag_indices(n)
    with np.errstate(over="ignore", invalid="ignore"):
        fac[diag] = np.exp(fac[diag])
        return _finite(fac @ fac.T, name)


def decode(x, n_v: int, n_h: int, lattice=Lattice.FULL) -> RtbmParams:
    """Unpack a free-parameter vector into a model with T, Q PD, or raise on overflow."""
    x = np.asarray(x, dtype=float)
    expected = free_parameter_count(n_v, n_h)
    if x.shape != (expected,):
        raise ValueError(f"expected vector of length {expected}, got {x.shape}")
    nt = n_v * (n_v + 1) // 2
    nq = n_h * (n_h + 1) // 2
    pos = 0
    t = _tril_to_matrix(x[pos:pos + nt], n_v, "T"); pos += nt
    q = _tril_to_matrix(x[pos:pos + nq], n_h, "Q"); pos += nq
    w = x[pos:pos + n_v * n_h].reshape(n_v, n_h); pos += n_v * n_h
    bv = x[pos:pos + n_v]; pos += n_v
    bh = x[pos:]
    return RtbmParams(t=t, q=q, w=w, bv=bv, bh=bh, lattice=lattice)


def negative_log_likelihood(params: RtbmParams, data) -> float:
    """Summed negative log-density over the rows of ``data``.

    No rows, or malformed points (checked once, by ``log_pdf_many``), raise
    ValueError.  A model whose density cannot be evaluated (an RtbmError such
    as a theta truncation failure) or is non-finite at some row scores +inf, a
    penalty value rather than an exception: optimizers see a total function.
    """
    if np.size(data) == 0:
        raise ValueError("data must be nonempty")
    try:
        lp = log_pdf_many(params, data)
    except RtbmError:
        return math.inf
    if not np.isfinite(lp).all():
        return math.inf
    return float(-lp.sum())


def make_objective(data, n_h, lattice):
    """NLL over the encoding, n_v the data's width; +inf where the model is invalid.
    The data are checked once, and laid out as ``log_pdf_many`` reads them."""
    data = np.ascontiguousarray(as_points(data).T).T
    n_v = data.shape[1]
    def objective(x):
        try:
            params = decode(x, n_v, n_h, lattice)
        except RtbmError:           # T or Q overflowed
            return math.inf
        return negative_log_likelihood(params, data)
    return objective


def fit_density(data, config: FitConfig) -> FitResult:
    """Fit an RTBM to samples by restarted CMA-ES over the encoding.

    Runs ``config.restarts`` independent searches from randomized
    encodings and returns the best run that found a finite likelihood.
    Fully deterministic for a fixed ``config.seed``.
    """
    try:
        data = as_points(data)
    except ValueError as exc:
        raise FitError(f"training data: {exc}") from None
    if data.shape[0] == 0:
        raise FitError("no training data")
    n_v = data.shape[1]
    n_h = config.n_h

    objective = make_objective(data, n_h, config.lattice)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best = None
    total_evals = 0
    diagnostics = []
    for run_seed in seeds:
        init_ss, cma_ss = run_seed.spawn(2)
        rng = np.random.default_rng(init_ss)
        x0 = rng.normal(0.0, 0.5, free_parameter_count(n_v, n_h))
        x0[-n_h:] += rng.normal(0.0, 2.0, n_h)  # bh: break hidden-unit symmetry
        res = cma.minimize(objective, x0, max_evals=config.max_evals, seed=cma_ss)
        total_evals += res.evals
        diagnostics.append(f"f_best={res.f_best:.6g} evals={res.evals} stop={res.stop}")
        if math.isfinite(res.f_best) and (best is None or res.f_best < best.f_best):
            best = res

    if best is None:
        raise FitError("no restart found a model whose likelihood could be "
                       "evaluated: " + "; ".join(diagnostics))

    params = decode(best.x_best, n_v, n_h, config.lattice)
    report = validate(params)
    if not report.valid:
        raise FitError(f"best fit failed validation: {report}")
    # the objective's value at x_best: results do not depend on the kernel cache
    return FitResult(params=params, nll=best.f_best, trace=best.trace,
                     evals=total_evals)
