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

Conditioning changes only the biases, so a query pays only for what
depends on its values.  Each model keeps, in ``params.memo``:

* per model: its normalizer and the constants 1/2 log det T,
  1/2 log det T - n_v/2 log 2pi and 1/2 bv^T T^-1 bv;
* per set of free coordinates y it has been conditioned to, a plan
  (:func:`_plan`): T_yy, W_y, bv_y, the columns of T at y, the factor of
  T_yy, T_yy^-1 W_y, the child's Schur matrix Q - W_y^T T_yy^-1 W_y and
  1/2 log det T_yy, which every child over y shares;
* the child of its last request (:func:`_child`).

A child of the values d then forms bv' = bv_y + T_dy^T d and
bh' = bh + W_d^T d, and on first use T_yy^-1 bv', the normalizer's
argument bh' - W_y^T T_yy^-1 bv' and its normalizer.  Every kept value is
computed by the expression, in the order, of a model that keeps nothing,
so a result does not depend on what was kept.

A far point or value overflows on the way to a density of zero, so each
public function enters ``np.errstate(over="ignore", invalid="ignore")``
once, and the private functions it calls (``_log_pdf_rows``,
``_log_normalizer``, ``_child`` and theta's ``_log_theta_rows``) run under
it; the results are judged where they are formed.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import NamedTuple

import numpy as np

from .errors import NotPositiveDefiniteError, RtbmError
from .model import (SCHUR, RtbmParams, _check_finite, _chol_t, _freeze, _schur, _tinv,
                    validate)
from .theta import _LOG_2PI, _coords_dot, _coords_inner, _log_theta_rows
from .theta import log_theta_many  # noqa: F401  the name bench/tracing.py wraps


def _logdet_from_chol(chol):
    return 2.0 * float(np.add.reduce(np.log(chol.diagonal())))


def _kept(params: RtbmParams, name, compute):
    """``params.memo[name]``, set to ``compute(params)`` on first use."""
    memo = params.memo
    if name not in memo:
        memo[name] = compute(params)
    return memo[name]


def _half_logdet_t(params: RtbmParams) -> float:
    """1/2 log det T, kept per model."""
    return _kept(params, "half_logdet_t", lambda p: 0.5 * _logdet_from_chol(p.chol_t))


def _half_bv_tinv_bv(params: RtbmParams) -> float:
    """1/2 bv^T T^-1 bv, kept per model."""
    return _kept(params, "half_bv_tinv_bv", lambda p: 0.5 * float(p.bv @ p.tinv_bv))


def log_normalizer(params: RtbmParams) -> float:
    """log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W), kept per model."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_normalizer(params)


def _log_normalizer(params: RtbmParams) -> float:
    """:func:`log_normalizer`, under the caller's ``np.errstate``: its theta
    argument and matrix both passed ``model._finite``, so ``log_theta_many``'s
    checks are skipped."""
    memo = params.memo
    if "log_normalizer" not in memo:
        z, schur = params.z_schur[:, None], params.schur
        try:
            memo["log_normalizer"] = _log_theta_rows(z, schur, params.lattice)[0]
        except NotPositiveDefiniteError as exc:     # the kernel names it "omega"
            raise NotPositiveDefiniteError(f"{SCHUR} is not positive definite",
                                           lambda e=exc: e.min_eigenvalue) from None
    return memo["log_normalizer"]


def log_pdf_many(params: RtbmParams, vs) -> np.ndarray:
    """Visible-sector log-density at each row of ``vs`` (shape (B, n_v)).

    A row's value does not depend on its batch: it equals :func:`log_pdf`
    of that point, bit for bit.  Points are checked first (:func:`as_points`).
    Its theta arguments are checked here and summed as formed, unchecked.
    """
    v = np.ascontiguousarray(as_points(vs, params.n_v).T)
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_pdf_rows(params, v)


def _log_pdf_rows(params: RtbmParams, v) -> np.ndarray:
    """:func:`log_pdf_many` of the checked points' coordinates as C-contiguous
    rows ``v`` (n_v, B), under the caller's ``np.errstate(over="ignore",
    invalid="ignore")``: a far point's terms overflow, and are judged here."""
    # The batch-1 normalizer goes first: when the Schur matrix is not
    # positive definite it raises before the wide numerator sum is paid for.
    log_norm = _log_normalizer(params)
    if not math.isfinite(log_norm):
        raise RtbmError("the normalizer log theta(bh - W^T T^-1 bv | Q - W^T T^-1 W) "
                        "overflows")
    # Coordinates as contiguous rows, summed in index order by theta's
    # helpers, so that a point's value does not depend on its batch.
    z_num = _coords_dot(v, params.w)
    z_num += params.bh[:, None]
    # a non-finite entry makes the sum non-finite (and an overflowing sum is
    # ignored here), so the entries are tested only where it is
    if not math.isfinite(np.add.reduce(z_num, axis=None)) and not np.isfinite(z_num).all():
        bad = np.flatnonzero(~np.isfinite(z_num).all(axis=0))
        raise RtbmError(f"W^T v + bh is not finite (overflow) at {bad.size} point(s), "
                        f"first at index {bad[0]}")
    # u^T T u / 2 with u = v + T^-1 bv.  A far point's term overflows to
    # +inf, or to NaN where an overflowed u meets the factor's zeros; either
    # way the point is infinitely far out and log P = -inf (fmin reads NaN
    # as missing).
    sq = _coords_dot(v + params.tinv_bv[:, None], params.chol_t)
    half_quad = _coords_inner(sq, sq)
    half_quad *= 0.5
    np.fmin(half_quad, np.inf, out=half_quad)
    log_num = _log_theta_rows(z_num, params.q, params.lattice)
    # Farther out, log theta overflows to +inf as well.  The density of a
    # valid model vanishes there, so such a row drops its theta term.
    np.copyto(log_num, 0.0, where=np.isinf(half_quad))
    log_pdf = np.subtract(_kept(params, "log_pdf_offset",
                                lambda p: _half_logdet_t(p) - 0.5 * p.n_v * _LOG_2PI),
                          half_quad, out=half_quad)
    log_pdf += log_num
    log_pdf -= log_norm
    return log_pdf


def log_pdf(params: RtbmParams, v) -> float:
    """Visible-sector log-density at a single point, a vector of n_v values."""
    if np.ndim(v) != 1:
        raise ValueError(f"a point must be a vector, got shape {np.shape(v)}")
    return float(log_pdf_many(params, v)[0])


def log_marginal(params: RtbmParams, m: int, d) -> float:
    """Closed-form log P(d): the leading m coordinates integrated out.

    ``d`` holds the trailing n_v - m coordinates, checked as the request
    ``(range(m, n_v), d)``; 0 < m < n_v.  The theta ratio is the normalizer
    of the child :func:`condition_on` builds over the parent's.  It is the
    parent's kept child when the last conditioning request was the same,
    so ``condition_on`` and ``log_marginal`` of one request build one child
    and sum its normalizer once.
    """
    _check_valid(params)
    m = _index(m, "m")
    if not 0 < m < params.n_v:
        raise ValueError(f"m must be in (0, {params.n_v}), got {m}")
    fixed, d, free = free_coordinates(range(m, params.n_v), d, params.n_v)
    # A far d overflows d^T T d and the child's normalizer together: P(d) = 0.
    with np.errstate(over="ignore", invalid="ignore"):
        child = _child(params, free, fixed, d)
        log_p = (_half_logdet_t(params)
                 - 0.5 * (params.n_v - m) * _LOG_2PI
                 - _half_logdet_t(child)
                 - 0.5 * float(d @ params.t[m:, m:] @ d) - float(params.bv[m:] @ d)
                 - _half_bv_tinv_bv(params)
                 + _half_bv_tinv_bv(child)
                 + _log_normalizer(child) - _log_normalizer(params))
    return -np.inf if np.isnan(log_p) else log_p


def _check_valid(params: RtbmParams):
    """Raise RtbmError unless ``params`` validates; checked once per instance.

    The child of a valid parent is valid (its Schur matrix dominates the
    parent's), so children are not checked; a free set whose T_yy or Schur
    matrix fails numerically raises NotPositiveDefiniteError when it is
    planned.
    """
    report = params.memo.get("report") or validate(params)
    if not report.valid:
        raise RtbmError(f"cannot condition an invalid model: {report}")


class _Plan(NamedTuple):
    """What every child over one set of free coordinates y shares, whatever
    the values d: frozen arrays that no child copies."""

    t: np.ndarray           # T_yy
    w: np.ndarray           # W_y
    bv: np.ndarray          # bv_y
    t_cols: np.ndarray      # T[:, y], whose rows at the request's indices are T_dy
    derived: dict           # the child's chol_t, tinv_w (T_yy^-1 W_y) and schur
    half_logdet_t: float    # 1/2 log det T_yy


def _plan(params: RtbmParams, free) -> _Plan:
    """The plan of the free coordinates ``free`` (ascending), kept per model.

    T_yy is factored and the child's Schur matrix Q - W_y^T T_yy^-1 W_y
    formed here, by the functions a model's own properties call, once per
    parent and free set; NotPositiveDefiniteError if either fails.
    """
    plans = params.memo.setdefault("plans", {})
    key = tuple(free)
    plan = plans.get(key)
    if plan is None:
        t_cols = _freeze(params.t[:, free])
        t, w = _freeze(t_cols[free]), _freeze(params.w[free])
        chol_t = _chol_t(t)
        tinv_w = _tinv(chol_t, w)
        plan = plans[key] = _Plan(
            t, w, _freeze(params.bv[free]), t_cols,
            {"chol_t": chol_t, "tinv_w": tinv_w, "schur": _schur(params.q, w, tinv_w)},
            0.5 * _logdet_from_chol(chol_t))
    return plan


def _child(params: RtbmParams, free, fixed, d) -> RtbmParams:
    """Child RTBM over coordinates ``free`` given the float vector ``d`` at
    ``fixed``, under the caller's ``np.errstate(over="ignore", invalid="ignore")``.

    Its T, W, Q and the arrays derived from them alone are the plan's
    (:func:`_plan`) and the parent's; only the biases, which can overflow,
    are formed and checked, and the child computes T_yy^-1 bv', its
    normalizer's argument and its normalizer when they are first read.
    The child of the parent's last request is kept in its memo, keyed by the
    indices in their order and the bytes of ``d``, so a repeated request
    returns the same child, with its kept normalizer and draw table; a
    different request replaces it.
    """
    key = (tuple(fixed), d.tobytes())
    kept = params.memo.get("child")
    if kept is not None and kept[0] == key:
        return kept[1]
    plan = _plan(params, free)
    # under the caller's np.errstate: a far d overflows here, and is named below
    bv, bh = plan.bv + plan.t_cols[fixed].T @ d, params.bh + params.w[fixed].T @ d
    _check_finite(bv=bv, bh=bh)
    child = RtbmParams._of_private(
        params.lattice, derived={**plan.derived, "memo": {"half_logdet_t": plan.half_logdet_t}},
        t=plan.t, q=params.q, w=plan.w, bv=bv, bh=bh)
    params.memo["child"] = (key, child)
    return child


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
    their original order, which is the child's.

    What is kept: per parent, its validation report and constants; per set
    of free coordinates, the plan (:func:`_plan`) whose T_yy, W_y, factor
    of T_yy, T_yy^-1 W_y and Schur matrix every child over that set shares,
    so repeated conditioning on one set of coordinates factors and forms
    them once; per value, only the child's biases, then T_yy^-1 bv', its
    normalizer's argument and normalizer.  The parent also keeps the child
    of its last request: the same request again (the same indices in the
    same order and the same value bytes), here or in :func:`log_marginal`,
    returns that child, with its kept normalizer and draw table.  A bad
    request raises ValueError (:func:`free_coordinates`), an invalid parent
    RtbmError, and a T_yy or Schur matrix that fails numerically, when its
    free set is first planned, NotPositiveDefiniteError.
    """
    indices, values, free = free_coordinates(indices, values, params.n_v)
    _check_valid(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return _child(params, free, indices, values), free
