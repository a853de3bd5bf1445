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
from .density import _index, _log_pdf_rows, as_points
from .density import log_pdf_many  # noqa: F401  the name bench/tracing.py wraps
from .errors import FitError, RtbmError
from .model import RtbmParams, _check_finite, _finite, validate
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
def _layout(n_v, n_h):
    """Where :func:`decode` puts the factor entries of a free-parameter vector.

    The factors L_T and L_Q lie flat one after the other, n_v^2 + n_h^2
    entries.  Returns the flat positions of their lower triangles, in the
    vector's order (``np.tril_indices``, T's first), the vector's indices of
    the diagonal entries and their flat positions.
    """
    rows_t, cols_t = np.tril_indices(n_v)
    rows_q, cols_q = np.tril_indices(n_h)
    tril = np.concatenate((rows_t * n_v + cols_t, n_v * n_v + rows_q * n_h + cols_q))
    diag = np.flatnonzero(np.concatenate((rows_t == cols_t, rows_q == cols_q)))
    layout = tril, diag, tril[diag]
    for a in layout:
        a.setflags(write=False)
    return layout


def decode(x, n_v: int, n_h: int, lattice=Lattice.FULL) -> RtbmParams:
    """Unpack a free-parameter vector into a model with T, Q PD, or raise on overflow.

    Each array is made, frozen and checked once, and the model keeps it as it is."""
    x = _vector(x, n_v, n_h)
    with np.errstate(over="ignore", invalid="ignore"):
        return _decode(x, n_v, n_h, lattice)


def _vector(x, n_v, n_h):
    """``x`` as a float free-parameter vector for n_v, n_h; ValueError if its length is not."""
    x = np.asarray(x, dtype=float)
    expected = free_parameter_count(n_v, n_h)
    if x.shape != (expected,):
        raise ValueError(f"expected vector of length {expected}, got {x.shape}")
    return x


def _decode(x, n_v, n_h, lattice):
    """:func:`decode` of a checked vector, under the caller's
    ``np.errstate(over="ignore", invalid="ignore")``.

    Both factors are filled in one array and their diagonals exponentiated
    in one call; T = L_T L_T^T and Q = L_Q L_Q^T are formed side by side in
    another, followed by a copy of W, bv and bh, so that one check finds any
    of them overflowing or not finite, and the model's fields are views of
    that one array."""
    tril, diag, flat_diag = _layout(n_v, n_h)
    nt, nq, nw = n_v * n_v, n_h * n_h, n_v * n_h
    factors = np.zeros(nt + nq)
    factors[tril] = x[:tril.size]
    factors[flat_diag] = np.exp(x[diag])
    fac_t, fac_q = factors[:nt].reshape(n_v, n_v), factors[nt:].reshape(n_h, n_h)
    fields = np.empty(nt + nq + x.size - tril.size)
    t = np.matmul(fac_t, fac_t.T, out=fields[:nt].reshape(n_v, n_v))
    q = np.matmul(fac_q, fac_q.T, out=fields[nt:nt + nq].reshape(n_h, n_h))
    rest = fields[nt + nq:]
    rest[:] = x[tril.size:]
    w, bv, bh = rest[:nw].reshape(n_v, n_h), rest[nw:nw + n_v], rest[nw + n_v:]
    if not np.isfinite(fields).all():
        _finite(t, "T")         # raises, naming the first that is not finite
        _finite(q, "Q")
        _check_finite(w=w, bv=bv, bh=bh)
    return RtbmParams._of_private(lattice, t=t, q=q, w=w, bv=bv, bh=bh)


def negative_log_likelihood(params: RtbmParams, data) -> float:
    """Summed negative log-density over the rows of ``data``.

    No rows, or malformed points (checked by ``as_points``), raise
    ValueError.  A model whose density cannot be evaluated (an RtbmError such
    as a theta truncation failure) or is non-finite at some row scores +inf, a
    penalty value rather than an exception: optimizers see a total function.
    """
    if np.size(data) == 0:
        raise ValueError("data must be nonempty")
    v = np.ascontiguousarray(as_points(data, params.n_v).T)
    with np.errstate(over="ignore", invalid="ignore"):
        return _negative_log_likelihood(params, v)


def _negative_log_likelihood(params: RtbmParams, v) -> float:
    """:func:`negative_log_likelihood` of the checked points' coordinate rows
    ``v``, under the caller's ``np.errstate(over="ignore", invalid="ignore")``.

    A non-finite row makes the sum non-finite, so the rows are tested one
    by one only where the sum is not finite."""
    try:
        lp = _log_pdf_rows(params, v)
    except RtbmError:
        return math.inf
    total = float(np.add.reduce(lp))
    if not math.isfinite(total) and not np.isfinite(lp).all():
        return math.inf
    return -total


def make_objective(data, n_h, lattice):
    """NLL over the encoding, n_v the data's width; +inf where the model is invalid.
    The data are checked once, and laid out as coordinate rows, as ``log_pdf_many``
    reads them; each evaluation enters ``np.errstate`` once."""
    v = np.ascontiguousarray(as_points(data).T)
    n_v = v.shape[0]
    def objective(x):
        x = _vector(x, n_v, n_h)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                params = _decode(x, n_v, n_h, lattice)
            except RtbmError:           # T or Q overflowed
                return math.inf
            return _negative_log_likelihood(params, v)
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
