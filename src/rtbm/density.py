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

import numpy as np

from .errors import RtbmError
from .model import RtbmParams, validate
from .theta import DEFAULT_EPS, log_theta_many

_LOG_2PI = np.log(2.0 * np.pi)


def _logdet_from_chol(chol):
    return 2.0 * float(np.log(np.diag(chol)).sum())


def log_normalizer(params: RtbmParams) -> float:
    """log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W), kept per model."""
    memo = params.memo
    if "log_normalizer" not in memo:
        memo["log_normalizer"] = log_theta_many(
            params.z_schur[None, :], params.schur, params.lattice, DEFAULT_EPS)[0]
    return memo["log_normalizer"]


def log_pdf_many(params: RtbmParams, vs) -> np.ndarray:
    """Visible-sector log-density at each row of ``vs`` (shape (B, n_v))."""
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if vs.shape[1] != params.n_v:
        raise ValueError(f"points have width {vs.shape[1]}, expected {params.n_v}")
    # The batch-1 normalizer goes first: when the Schur matrix is not
    # positive definite it raises before the wide numerator sum is paid for.
    log_norm = log_normalizer(params)
    if not np.isfinite(log_norm):
        raise RtbmError("the normalizer log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W) "
                        "overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        z_num = vs @ params.w + params.bh
    if not np.isfinite(z_num).all():
        bad = np.flatnonzero(~np.isfinite(z_num).all(axis=1))
        raise RtbmError(f"W^T v + bh is not finite (overflow) at {bad.size} point(s), "
                        f"first at index {bad[0]}")
    # u^T T u / 2 with u = v + T^-1 bv.  A far point's term overflows to +inf,
    # or to NaN where an overflowed u meets the factor's zeros; either way
    # the point is infinitely far out and log P = -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        half_quad = 0.5 * np.square((vs + params.tinv_bv) @ params.chol_t).sum(axis=1)
    half_quad[np.isnan(half_quad)] = np.inf
    log_num = log_theta_many(z_num, params.q, params.lattice, DEFAULT_EPS)
    # Farther out, log theta overflows to +inf as well.  The density of a
    # valid model vanishes there, so such a row drops its theta term.
    log_num = np.where(np.isinf(half_quad), 0.0, log_num)
    return (0.5 * _logdet_from_chol(params.chol_t) - 0.5 * params.n_v * _LOG_2PI
            - half_quad + log_num - log_norm)


def log_pdf(params: RtbmParams, v) -> float:
    """Visible-sector log-density at a single point."""
    return float(log_pdf_many(params, np.asarray(v, dtype=float)[None, :])[0])


def log_marginal(params: RtbmParams, m: int, d) -> float:
    """Closed-form log P(d): the leading m coordinates integrated out.

    ``d`` holds the trailing n_v - m coordinates.  Requires 0 < m < n_v;
    an empty free block is not a marginalization.  The theta ratio is the
    normalizer of the child :func:`condition_on` builds over the parent's.
    """
    _check_valid(params)
    if not 0 < m < params.n_v:
        raise ValueError(f"m must be in (0, {params.n_v}), got {m}")
    child = _child(params, np.arange(m), np.arange(m, params.n_v), d)
    d = np.asarray(d, dtype=float).reshape(params.n_v - m)
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
    """Child RTBM over coordinates ``free`` given the values ``d`` at ``fixed``.

    The blocks of T, W and bv are taken from the parent's arrays by index.
    """
    d = np.asarray(d, dtype=float).reshape(len(fixed))
    t, w = params.t, params.w
    return RtbmParams(
        t=t[np.ix_(free, free)], q=params.q, w=w[free],
        bv=params.bv[free] + t[np.ix_(fixed, free)].T @ d,
        bh=params.bh + w[fixed].T @ d,
        lattice=params.lattice)


def free_coordinates(indices, n) -> list:
    """Coordinates of 0..n-1 left free by conditioning on ``indices``, checked."""
    if len(set(indices)) != len(indices):
        raise ValueError("conditioned indices must be distinct")
    if not all(0 <= i < n for i in indices):
        raise ValueError(f"conditioned indices must be in [0, {n})")
    free = [i for i in range(n) if i not in indices]
    if not free:
        raise ValueError("cannot condition on every coordinate")
    return free


def condition_on(params: RtbmParams, indices, values) -> tuple[RtbmParams, list]:
    """Child RTBM over the free coordinates y given ``values`` d at ``indices``.

    The child keeps Q and the lattice, and is reparameterized as T -> T_yy,
    W -> W_y, bv -> bv_y + T_dy^T d, bh -> bh + W_d^T d; its density is the
    parent's conditional P(y|d).  Returns the child and the free indices in
    their original order, which is the child's.  An invalid parent raises
    RtbmError.
    """
    indices = [int(i) for i in indices]
    values = np.asarray(values, dtype=float).reshape(len(indices))
    free = free_coordinates(indices, params.n_v)
    _check_valid(params)
    return _child(params, free, indices, values), free
