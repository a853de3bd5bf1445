"""Joint, marginal and conditional densities of an RTBM.

All densities live in log space; theta arguments routinely produce
exponents far outside double range, so linear-space values exist only at
the CLI boundary.

The visible log-density is

    log P(v) = 1/2 log det T - n_v/2 log 2pi
             - 1/2 (v + T^-1 bv)^T T (v + T^-1 bv)
             + log theta(bh + W^T v | Q)
             - log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W).

Marginalizing the trailing block d of v = (y, d) with the generalized
Gaussian integral gives a closed-form log P(d), and the ratio
P(v)/P(d) is itself an RTBM density over y with the reparameterized
quintuple produced by :func:`condition_on`.  Note the marginal's exponent
carries the factor 1/2 in (bv0 + T1^T d)^T T0^-1 (bv0 + T1^T d)/2: the
Gaussian integral forces it, and the product-rule identity
log P(v) = log P(y|d) + log P(d) holds exactly with it.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import RtbmError
from .model import RtbmParams, validate
from .theta import _LOG_2PI, _coords_dot, _coords_inner, log_theta_many


def _logdet_from_chol(chol):
    return 2.0 * float(np.log(np.diag(chol)).sum())


def log_normalizer(params: RtbmParams) -> float:
    """log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W), kept per model."""
    memo = params.memo
    if "log_normalizer" not in memo:
        memo["log_normalizer"] = log_theta_many(
            params.z_schur[None, :], params.schur, params.lattice)[0]
    return memo["log_normalizer"]


def log_pdf_many(params: RtbmParams, vs) -> np.ndarray:
    """Visible-sector log-density at each row of ``vs`` (shape (B, n_v)).

    A row's value does not depend on its batch: it equals :func:`log_pdf`
    of that point, bit for bit.  Points are checked first (:func:`as_points`).
    """
    vs = as_points(vs, params.n_v)
    # The batch-1 normalizer goes first: when the Schur matrix is not
    # positive definite it raises before the wide numerator sum is paid for.
    log_norm = log_normalizer(params)
    if not np.isfinite(log_norm):
        raise RtbmError("the normalizer log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W) "
                        "overflows")
    # Coordinates as contiguous rows, summed in index order by theta's
    # helpers, so that a point's value does not depend on its batch.
    v = np.ascontiguousarray(vs.T)
    with np.errstate(over="ignore", invalid="ignore"):
        z_num = _coords_dot(v, params.w)
        z_num += params.bh[:, None]
    if not np.isfinite(z_num).all():
        bad = np.flatnonzero(~np.isfinite(z_num).all(axis=0))
        raise RtbmError(f"W^T v + bh is not finite (overflow) at {bad.size} point(s), "
                        f"first at index {bad[0]}")
    # u^T T u / 2 with u = v + T^-1 bv.  A far point's term overflows to +inf,
    # or to NaN where an overflowed u meets the factor's zeros; either way
    # the point is infinitely far out and log P = -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _coords_dot(v + params.tinv_bv[:, None], params.chol_t)
        half_quad = _coords_inner(sq, sq)
        half_quad *= 0.5
    half_quad[np.isnan(half_quad)] = np.inf
    log_num = log_theta_many(z_num.T, params.q, params.lattice)
    # Farther out, log theta overflows to +inf as well.  The density of a
    # valid model vanishes there, so such a row drops its theta term.
    log_num = np.where(np.isinf(half_quad), 0.0, log_num)
    return (0.5 * _logdet_from_chol(params.chol_t) - 0.5 * params.n_v * _LOG_2PI
            - half_quad + log_num - log_norm)


def log_pdf(params: RtbmParams, v) -> float:
    """Visible-sector log-density at a single point, a vector of n_v values."""
    if np.ndim(v) != 1:
        raise ValueError(f"a point must be a vector, got shape {np.shape(v)}")
    return float(log_pdf_many(params, v)[0])


def log_marginal(params: RtbmParams, m: int, d) -> float:
    """Closed-form log P(d): the leading m coordinates integrated out.

    ``d`` holds the trailing n_v - m coordinates, checked as the request
    ``(range(m, n_v), d)``; 0 < m < n_v.  The theta ratio is the normalizer
    of the child :func:`condition_on` builds over the parent's.
    """
    _check_valid(params)
    m = _index(m, "m")
    if not 0 < m < params.n_v:
        raise ValueError(f"m must be in (0, {params.n_v}), got {m}")
    fixed, d, free = free_coordinates(range(m, params.n_v), d, params.n_v)
    child = _child(params, free, fixed, d)
    # A far d overflows d^T T d and the child's normalizer together: P(d) = 0.
    with np.errstate(over="ignore", invalid="ignore"):
        log_p = (0.5 * _logdet_from_chol(params.chol_t)
                 - 0.5 * (params.n_v - m) * _LOG_2PI
                 - 0.5 * _logdet_from_chol(child.chol_t)
                 - 0.5 * float(d @ params.t[m:, m:] @ d) - float(params.bv[m:] @ d)
                 - 0.5 * float(params.bv @ params.tinv_bv)
                 + 0.5 * float(child.bv @ child.tinv_bv)
                 + log_normalizer(child) - log_normalizer(params))
    return -np.inf if np.isnan(log_p) else log_p


def _check_valid(params: RtbmParams):
    """Raise RtbmError unless ``params`` validates; checked once per instance.

    The child of a valid parent is valid (its Schur matrix dominates the
    parent's), so children are not checked; one that fails numerically
    raises NotPositiveDefiniteError when it is first factored.
    """
    if "report" not in params.memo:
        params.memo["report"] = validate(params)
    report = params.memo["report"]
    if not report.valid:
        raise RtbmError(f"cannot condition an invalid model: {report}")


def _child(params: RtbmParams, free, fixed, d) -> RtbmParams:
    """Child RTBM over coordinates ``free`` given the float vector ``d`` at ``fixed``.

    The blocks of T, W and bv are taken from the parent's arrays by index.
    """
    t, w = params.t, params.w
    return RtbmParams(
        t=t[np.ix_(free, free)], q=params.q, w=w[free],
        bv=params.bv[free] + t[np.ix_(fixed, free)].T @ d,
        bh=params.bh + w[fixed].T @ d,
        lattice=params.lattice)


def _index(i, name="conditioned index") -> int:
    """``i`` as an int; a float or other non-integer is a ValueError naming ``name``."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{name} {i!r} is not an integer") from None


def _draw_request(count, seed) -> int:
    """``count`` as an int of at least 1, with ``seed`` checked; ValueErrors name either.

    ``seed`` is anything ``np.random.default_rng`` takes; a negative integer is
    refused here rather than by numpy, whose message names neither argument.
    """
    count = _index(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValueError(f"seed {seed} is negative; it must be a non-negative integer")
    return count


def free_coordinates(indices, values, n) -> tuple[list, np.ndarray, list]:
    """Int indices, float values and free coordinates of 0..n-1 of a checked request.

    Raises a ValueError naming an index that is not an integer (numpy integers
    are), a value count that differs from the index count, a non-finite value,
    bad indices or no free coordinate.
    """
    indices = [_index(i) for i in indices]
    values = np.asarray(values, dtype=float)
    if values.size != len(indices):
        raise ValueError(f"{values.size} conditioning values for {len(indices)} indices")
    values = values.reshape(len(indices))
    if not np.isfinite(values).all():
        bad = indices[np.flatnonzero(~np.isfinite(values))[0]]
        raise ValueError(f"conditioning value at index {bad} is not finite")
    if len(set(indices)) != len(indices):
        raise ValueError(f"conditioned indices must be distinct, got {indices}")
    if not all(0 <= i < n for i in indices):
        raise ValueError(f"conditioned indices must be in [0, {n}), got {indices}")
    free = [i for i in range(n) if i not in indices]
    if not free:
        raise ValueError("cannot condition on every coordinate")
    return indices, values, free


def as_points(vs, width=None) -> np.ndarray:
    """``vs`` as a float (B, width) array of finite points; a vector is one point.

    ``width=None`` takes the array's own width.  A ValueError names any other
    shape, both widths, or the count of rows with NaN or infinite values."""
    vs = np.asarray(vs, dtype=float)
    if vs.ndim not in (1, 2):
        raise ValueError(f"points must be a vector or rows, got shape {vs.shape}")
    vs = np.atleast_2d(vs)
    if width is not None and vs.shape[1] != width:
        raise ValueError(f"points have width {vs.shape[1]}, expected {width}")
    if not np.isfinite(vs).all():
        bad = np.flatnonzero(~np.isfinite(vs).all(axis=1))
        raise ValueError(f"points have NaN or infinite values in {bad.size} row(s), "
                         f"first at index {bad[0]}")
    return vs


def condition_on(params: RtbmParams, indices, values) -> tuple[RtbmParams, list]:
    """Child RTBM over the free coordinates y given ``values`` d at ``indices``.

    The child keeps Q and the lattice, and is reparameterized as T -> T_yy,
    W -> W_y, bv -> bv_y + T_dy^T d, bh -> bh + W_d^T d; its density is the
    parent's conditional P(y|d).  Returns the child and the free indices in
    their original order, which is the child's.  A bad request raises
    ValueError (:func:`free_coordinates`), an invalid parent RtbmError.
    """
    indices, values, free = free_coordinates(indices, values, params.n_v)
    _check_valid(params)
    return _child(params, free, indices, values), free
