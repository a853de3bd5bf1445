"""Truncated lattice sums for the real-argument tilde-theta function.

The central quantity is

    log sum_{n in L} exp(-1/2 n^T Omega n + n^T z)

for a symmetric positive definite Omega, where the lattice L is either all
integer vectors or the nonnegative orthant.  With Omega = L L^T and the
continuous maximizer nhat = Omega^{-1} z, the summand is
exp(f_peak - |L^T (n - nhat)|^2 / 2): a displaced Gaussian on the lattice.

Each call sums over one ellipsoid, chosen before anything is enumerated:

* Bound.  A count of the lattice points within r of any centre, at most
  prod_i (2r / L_ii + 1), turns the mass outside |L^T (n - nhat)| <= R
  into at most a closed-form upper incomplete gamma function of R^2/2 (the
  radius and tail bound of Deconinck, Heil, Bobenko, van Hoeij and
  Schmies, "Computing Riemann theta functions", Math. Comp. 73 (2004)
  1417-1442, whose packing count ((2r + rho) / rho)^h with rho = min L_ii
  this count never exceeds).  Every sum is at least its term at the
  rounded maximizer, so solving that bound for R certifies the relative
  tolerance ``eps``.
* Ellipsoid.  The offsets k from each row's rounded maximizer with
  k^T Omega k <= (R + rho_half)^2, rho_half bounding |L^T u| over the
  rounding errors u, contain every row's own ellipsoid.  They depend only
  on (Omega, eps), are enumerated once by the Fincke-Pohst recursion over
  the Cholesky factor (Fincke and Pohst, "Improved methods for calculating
  vectors of short length in a lattice", Math. Comp. 44 (1985) 463-471),
  and every row is evaluated against them in blocked products.  On the
  orthant lattice, points outside it are masked; a row whose rounded
  maximizer lies outside the orthant gets its own radius from its best
  orthant point.
* Work cap.  Before anything is allocated, each row's point count is
  bounded by prod_i (min(2r / L_ii, s_i) + 1), s_i the extent of its
  ellipsoid (cut at zero on the orthant lattice) along n_i, and checked
  against a fixed cap of 2^21 points.  A row over the cap, with no dual
  form under it, raises ThetaTruncationError, so a sum is never silently
  truncated and never allocates without bound.
* Dual sums.  On the full lattice, Poisson summation gives the functional
  equation of theta (Mumford, "Tata Lectures on Theta I", 1983):

      theta(z | Omega) = (2 pi)^{h/2} det(Omega)^{-1/2} e^{z.nhat / 2}
                         sum_k e^{-k^T Omega' k / 2} cos(2 pi k.nhat)

  with Omega' = 4 pi^2 Omega^-1, the modular step that Frauendiener, Jaber
  and Klein, "Efficient computation of multidimensional theta functions",
  J. Geom. Phys. 141 (2019), arXiv:1701.07486, also take.  The dual
  weights are the primal terms of Omega' at z = 0, so the bound above,
  with tolerance eps / 2 and no rounding, certifies their omitted mass,
  and their points do not depend on z.  The cosine sum is at least 1 - s,
  s the off-origin weight, which a product of 1-D theta values over the
  pivots of Omega' bounds; the dual form is used only when that bound is
  at most 1/2, so its relative error stays at most eps, and only when its
  point bound is below the primal's and the cap.  The choice is made once
  per kernel, before anything is enumerated; small matrices, whose primal
  ellipsoid is large, take the dual.  Per row the sum is z.nhat / 2 plus
  the log of the cosine sum over k = 0 and one of each pair +-k, with
  doubled weights, the phases reduced mod 1.  The orthant lattice, to
  which Poisson summation does not apply, and ``collect_terms``, which
  needs the primal points, stay primal.
* Separable sums.  On the full lattice at h = 2, with g = z - Omega c the
  offset of a row's rounded maximizer c, exp(g.k) = exp(g_1 k_1) exp(g_2 k_2),
  so a row's sum over the shared offsets is sum_m V_m sum_a A_am U_a, with
  U_a = exp(g_1 a) over the K1 values a of k_1, V_m = exp(g_2 m) over the M
  values m of k_2, and the fixed table A_am = exp(-k^T Omega k / 2), zero
  off the ellipsoid.  A row then takes K1 + M exponentials (about 12 in a
  fit) instead of one per point (about 31).  Since |nhat - c| <= 1/2 per
  coordinate, |g_j| <= 1/2 sum_l |Omega_jl|; the form is used only where
  these bounds times max |k_j|, summed over j, are at most 600, so every
  factor and term stays below e^600 and a partial product that underflows
  belongs to a term below e^-100 of a sum that is at least its k = 0 term,
  1; and only where the table holds at most two entries per offset, which
  a thin, tilted ellipsoid fails.  Far from the origin, rounding can carry
  a row's g past those bounds; a row whose own |g_j| max |k_j|, summed
  over j, passes 600 is summed directly.
  The products are accumulated one table row and one value of k_2 at a
  time in a fixed order, without BLAS (whose gemv for a single row rounds
  differently from its gemm) and without numpy's pairwise sums (which
  order a one-row sum differently), so a row's sum does not depend on its
  batch.  The choice is made once per kernel, from its offsets; the dual
  form, the orthant lattice and ``collect_terms`` keep their sums.  At
  h = 3, summed one table row and one prefix (k_2, k_3) at a time, a
  batch-1 call paid 50-90 numpy calls in the n_h = 3 fit, and that fit got
  slower, so h = 3 sums directly.
* Prepared kernels.  What depends only on Omega, the lattice and eps - the
  Cholesky factor, Omega^-1, the radius, the shared point bound, the dual
  form and, from each form's second use on, its shared offsets and their
  separable tables - is kept in one module-level LRU keyed by Omega's exact
  bytes and shape, the lattice and eps.  It holds at most 32 kernels and at
  most 2^21 kept offsets and table entries in total.
  Conditioning changes only the theta arguments, so every conditional of
  one model sums over the same two or three matrices, bit for bit, and
  after the first query only the per-row work remains.  A miss does what
  an uncached call does, in the same order, so results never depend on
  the cache.

The tolerance must be finite with 0 < eps <= 1e-3 (:func:`check_eps`).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
from scipy.special import gammainccinv, gammaln

from .errors import NotPositiveDefiniteError, ThetaTruncationError

DEFAULT_EPS = 1e-12
MAX_EPS = 1e-3
_WORK_CAP = 1 << 21      # most lattice points enumerated at once, and kept at once
_KERNEL_CAP = 32         # most prepared kernels kept at once
_BLOCK = 1 << 16         # row-point pairs evaluated at once, sized for cache
_LOG_TINY = -700.0       # log of a comfortably normal double
_LOG_FACTOR_CAP = 600.0  # largest exponent of a factor of a separable sum

# Prepared kernels by (Omega bytes, shape, lattice, eps), least recently used first.
_KERNELS = OrderedDict()
_KERNELS_LOCK = threading.Lock()


class Lattice(str, Enum):
    """Summation lattice for the hidden units."""

    FULL = "full"      # all integer vectors
    NONNEG = "nonneg"  # vectors with nonnegative integer entries


def check_eps(eps) -> float:
    """``eps`` as a float; ValueError unless 0 < eps <= 1e-3 (NaN fails too)."""
    eps = float(eps)
    if not 0.0 < eps <= MAX_EPS:
        raise ValueError(f"eps must lie in (0, {MAX_EPS:g}], got {eps}")
    return eps


def _certified_radius(pivots, log_rel):
    """Radius R whose outside holds lattice mass below exp(log_rel) e^f_peak.

    ``pivots`` is the diagonal of L.  A Fincke-Pohst interval for n_i spans
    at most 2r / L_ii, so at most prod_i (2r / L_ii + 1) lattice points lie
    within r of any centre; with rho = min_i L_ii, a lower bound on the
    shortest lattice vector, this never exceeds the packing count
    ((2r + rho) / rho)^h and is far smaller for anisotropic Omega.  For
    r >= R0 the count is at most C r^h with C = prod_i (2 / L_ii + 1 / R0),
    so summing e^{-r^2/2} against it bounds the mass beyond R >= R0 by
    C 2^{h/2} Gamma(h/2 + 1, R^2/2), which is inverted in closed form; R0 is
    the Gaussian radius sqrt(-2 log_rel).  Vectorized over ``log_rel``.
    """
    h = pivots.size
    a = 0.5 * h + 1.0
    r0 = np.sqrt(np.maximum(-2.0 * log_rel, 1.0))
    log_count = np.log(2.0 / pivots + 1.0 / r0[..., None]).sum(axis=-1)
    # the extra factor 2 absorbs the rounding of the inverse
    log_y = np.minimum(log_rel - log_count - 0.5 * h * np.log(2.0) - gammaln(a)
                       - np.log(2.0), 0.0)
    # Below the representable range, Gamma(a, x + d) <= e^{-d (1 - (a-1)/x)}
    # Gamma(a, x) (a >= 1) moves the inverse on by the missing log-mass.
    log_floor = np.maximum(log_y, _LOG_TINY)
    x = gammainccinv(a, np.exp(log_floor))
    x = x + (log_floor - log_y) / (1.0 - (a - 1.0) / np.maximum(x, a))
    return np.maximum(np.sqrt(2.0 * x), r0)


def _ellipsoid_points(chol, centres, radii, orthant=False):
    """Integer vectors n with |L^T (n - c)| <= r, for each centre c and radius r.

    Fincke-Pohst enumeration over Omega = L L^T, vectorized one coordinate at
    a time from the last to the first: (L^T (n - c))_i = L_ii (n_i - m_i)
    with m_i = c_i - sum_{j>i} L_ji (n_j - c_j) / L_ii, so each prefix
    (n_{i+1}, ..., n_{h-1}) leaves an interval of admissible n_i, cut at
    zero when ``orthant`` is set.  The caller bounds the number of points
    with :func:`_point_bounds` first.

    Returns ``(owner, points)``: the index of each point's centre, in
    ascending order, and the (P, h) int64 points.
    """
    m, h = centres.shape
    owner = np.arange(m)
    pts = np.zeros((m, 0))
    # the slack keeps rounding from dropping a point on the boundary
    rem = np.square(radii) * (1.0 + 1e-12)
    for i in range(h - 1, -1, -1):
        lii = chol[i, i]
        mid = centres[owner, i]
        for j in range(i + 1, h):
            mid = mid - (pts[:, j - i - 1] - centres[owner, j]) * (chol[j, i] / lii)
        half = np.sqrt(np.maximum(rem, 0.0)) / lii
        lo = np.ceil(mid - half)
        if orthant:
            lo = np.maximum(lo, 0.0)
        counts = np.maximum(np.floor(mid + half) - lo + 1.0, 0.0).astype(np.int64)
        total = int(counts.sum())
        parent = np.repeat(np.arange(counts.size), counts)
        first = np.cumsum(counts) - counts
        ni = lo[parent] + (np.arange(total) - first[parent])
        step = lii * (ni - mid[parent])
        rem = rem[parent] - step * step
        owner = owner[parent]
        pts = np.column_stack([ni, pts[parent]])
    return owner, pts.astype(np.int64)


def _point_bounds(pivots, radii, spans):
    """Upper bounds on the points :func:`_ellipsoid_points` finds per centre.

    Given its prefix, n_i ranges over an interval of length at most
    2r / L_ii, and over the ellipsoid's extent ``spans[:, i]`` along n_i
    (which its orthant cut can shorten), so each coordinate level multiplies
    the count by at most the smaller of the two plus one.  The factor
    1 + 1e-12 matches the enumeration's boundary slack.
    """
    reach = 2.0 * radii[:, None] / pivots
    return np.prod(np.minimum(reach, spans) * (1.0 + 1e-12) + 1.0, axis=1)


def _orthant_ascent(zs, omega, start):
    """Raise -n^T Omega n / 2 + n.z over n >= 0 integer, one coordinate at a time.

    Each step sets n_i to its best nonnegative integer given the others, so
    the value never falls; h sweeps give a lower bound on the orthant sum.
    """
    n = start.copy()
    h = n.shape[1]
    for _ in range(h):
        for i in range(h):
            others = _rows_dot(n, omega[:, i:i + 1])[:, 0] - omega[i, i] * n[:, i]
            n[:, i] = np.maximum(np.rint((zs[:, i] - others) / omega[i, i]), 0.0)
    return n


def _rows_dot(a, m):
    """Row-wise ``a @ m``, accumulated over the inner index in a fixed order.

    BLAS rounds a row differently depending on how many rows share the
    product (gemv for one row, blocked gemm kernels for more), which would
    make a lattice sum depend on its batch; einsum's own loops do not.
    """
    return np.einsum("bh,hk->bk", a, m)


def _exponents(g, cols, quad, centre):
    """g.k - k^T Omega k / 2 for each row and point; -inf outside the orthant.

    ``cols`` holds the offsets k column-wise, ``centre`` the rows' lattice
    centres for the NONNEG lattice, or None for the full lattice.
    """
    e = _rows_dot(g, cols)
    e -= quad
    if centre is not None:
        outside = cols[0] < -centre[:, :1]
        for j in range(1, cols.shape[0]):
            outside |= cols[j] < -centre[:, j:j + 1]
        np.copyto(e, -np.inf, where=outside)
    return e


def _logsumexp_rows(e):
    """Per-row log-sum-exp of ``e``, which is overwritten."""
    peak = e.max(axis=1)
    e -= peak[:, None]
    np.exp(e, out=e)
    return peak + np.log(e.sum(axis=1))


def _log_sums(g, f0, cols, quad, centre):
    """Per-row log of sum_k exp(f0 + g.k - k^T Omega k / 2) over the offsets.

    ``cols`` holds the offsets k column-wise.  Rows are taken in blocks of
    about ``_BLOCK`` row-point pairs (one row at least), so no block
    exceeds ``_WORK_CAP`` elements.
    """
    out = np.empty(g.shape[0])
    step = max(1, _BLOCK // cols.shape[1])
    for s in range(0, g.shape[0], step):
        blk = slice(s, s + step)
        e = _exponents(g[blk], cols, quad,
                       None if centre is None else centre[blk])
        out[blk] = f0[blk] + _logsumexp_rows(e)
    return out


class _Separable(NamedTuple):
    """The offsets k = (k_1, k_2) of a primal kernel with h = 2, as tables."""

    firsts: np.ndarray     # (K1, 1) the values of k_1, one integer range
    seconds: np.ndarray    # (M, 1) the values of k_2, one integer range
    weights: np.ndarray    # (K1, M) exp(-k^T Omega k / 2), zero off the ellipsoid
    spans: np.ndarray      # (K1, 2) the columns from a row's first to last weight
    reach: np.ndarray      # (2,) max |k_j|


def _separable(offsets, quad, omega):
    """The :class:`_Separable` tables of ``offsets`` (P, 2), or None.

    ``quad`` holds k^T Omega k / 2.  None where some factor could pass
    e^600 for g within its bounds |g_j| <= 1/2 sum_l |Omega_jl|, and where
    the table would hold more than 2P entries (a thin, tilted ellipsoid
    fills little of its bounding box), or more than the kept-point cap
    leaves beside the P offsets.  A row's weights are contiguous: the
    ellipsoid cuts each line of constant k_1 in one interval, and
    exp(-k^T Omega k / 2) can underflow only at its ends.
    """
    low, high = offsets.min(axis=0), offsets.max(axis=0)
    shape, reach, points = high - low + 1, np.maximum(high, -low), offsets.shape[0]
    if (0.5 * np.abs(omega).sum(axis=1) @ reach > _LOG_FACTOR_CAP
            or shape.prod() > min(2 * points, _WORK_CAP - points)):
        return None
    weights = np.zeros(shape)
    weights[offsets[:, 0] - low[0], offsets[:, 1] - low[1]] = np.exp(-quad)
    present = weights > 0.0
    start = present.argmax(axis=1)
    spans = np.column_stack([start, start + present.sum(axis=1)])
    first, second = (np.arange(lo, hi + 1, dtype=float)[:, None] for lo, hi in zip(low, high))
    return _Separable(first, second, weights, spans, reach.astype(float))


def _separable_log_sums(g, f0, cols, quad, tables):
    """:func:`_log_sums` over the full lattice at h = 2, in the separable form.

    Per row, U_a = exp(g_1 a) and V_m = exp(g_2 m); the sum is
    sum_m V_m sum_a A_am U_a, accumulated elementwise in a fixed order with
    rows along the contiguous axis.  A block whose rows times the table
    hold at most ``_BLOCK / 16`` entries takes both sums in one
    ``np.add.accumulate`` call each, r[i] = r[i-1] + x[i], which adds in the
    same order as the loop over table rows (a zero weight adds an exact
    zero) but walks each column on its own, so a wider block takes the
    loop (on the kernels of the n_h = 2 fit the two cost the same near
    6000 entries).  Rows are taken in blocks whose work arrays hold about
    ``_BLOCK / 4`` elements each, few enough to be reused between blocks
    rather than mapped afresh.

    A row whose |g_1| max |k_1| + |g_2| max |k_2| passes 600 is summed by
    :func:`_log_sums` instead: far from the origin the rounded maximizer
    and z - Omega c carry rounding errors that can take g past the bounds
    the tables were admitted on.  The test reads only the row's own g.
    """
    far = ~(np.abs(g[:, 0]) * tables.reach[0] + np.abs(g[:, 1]) * tables.reach[1]
            <= _LOG_FACTOR_CAP)
    if far.any():
        out = np.empty(g.shape[0])
        out[far] = _log_sums(g[far], f0[far], cols, quad, None)
        near = ~far
        out[near] = _separable_log_sums(g[near], f0[near], cols, quad, tables)
        return out
    firsts, seconds, weights, spans, _ = tables
    spans = spans.tolist()
    out = np.empty(g.shape[0])
    step = max(1, _BLOCK // (4 * max(weights.shape)))
    for s in range(0, g.shape[0], step):
        blk = slice(s, s + step)
        u = np.multiply(firsts, g[blk, 0])
        np.exp(u, out=u)
        v = np.multiply(seconds, g[blk, 1])
        np.exp(v, out=v)
        if u.size * weights.shape[1] <= _BLOCK // 16:
            acc = np.add.accumulate(weights[:, :, None] * u[:, None, :])[-1]
            acc *= v
            total = np.add.accumulate(acc)[-1]
        else:
            acc = np.zeros_like(v)
            term = np.empty_like(v)
            for a, (lo, hi) in enumerate(spans):
                part = term[:hi - lo]
                np.multiply(weights[a, lo:hi, None], u[a], out=part)
                acc[lo:hi] += part
            acc *= v
            total = acc[0]
            for m in range(1, acc.shape[0]):
                total += acc[m]
        np.log(total, out=total)
        np.add(f0[blk], total, out=out[blk])
    return out


def _orthant_terms(zs, omega, chol, nhat, reach, best):
    """Log-terms of each row's orthant points within ``reach`` of its maximizer.

    Terms are expanded about ``best``, the row's orthant point, where the
    sum's mass lies.  Returns ``(owner, points, logterms)`` grouped by row.
    """
    owner, points = _ellipsoid_points(chol, nhat, reach, orthant=True)
    b_omega = _rows_dot(best, omega)
    f_best = -0.5 * np.einsum("bh,bh->b", b_omega, best) + np.einsum("bh,bh->b", best, zs)
    k = points - best[owner]
    terms = (f_best[owner] + np.einsum("ph,ph->p", (zs - b_omega)[owner], k)
             - 0.5 * np.einsum("ph,hl,pl->p", k, omega, k))
    return owner, points, terms


def _orthant_log_sums(zs, omega, chol, nhat, reach, best, bounds):
    """Per-row log-sums of :func:`_orthant_terms`, in pieces under the work cap.

    Consecutive rows are grouped so that their point ``bounds`` (each at
    most the cap) add up to at most the cap.  A row's sum uses its own
    points only, so it does not depend on its batch.
    """
    out = np.empty(zs.shape[0])
    ends = np.concatenate([[0.0], np.cumsum(bounds)])
    start = 0
    while start < zs.shape[0]:
        stop = int(np.searchsorted(ends, ends[start] + _WORK_CAP, side="right")) - 1
        rows = slice(start, max(stop, start + 1))
        owner, _, terms = _orthant_terms(zs[rows], omega, chol, nhat[rows],
                                         reach[rows], best[rows])
        out[rows] = _segment_log_sums(owner, terms, rows.stop - rows.start)
        start = rows.stop
    return out


def _segment_log_sums(owner, terms, count):
    """Log-sum-exp of ``terms`` per owner; owners ascending, each present."""
    starts = np.searchsorted(owner, np.arange(count))
    peak = np.maximum.reduceat(terms, starts)
    return peak + np.log(np.add.reduceat(np.exp(terms - peak[owner]), starts))


def sym(a):
    """Average a square matrix with its transpose."""
    return 0.5 * (a + a.T)


def try_cholesky(a):
    """(lower factor, None) on success, (None, min eigenvalue) on failure.

    The matrix is symmetrized first so downstream factorizations are
    deterministic regardless of sub-tolerance asymmetry in the input.
    """
    s = sym(np.asarray(a, dtype=float))
    try:
        return la.cholesky(s, lower=True), None
    except la.LinAlgError:
        return None, float(la.eigvalsh(s)[0])


def spd_cholesky(a, name):
    """Lower Cholesky factor of a symmetrized matrix; loud failure."""
    chol, lam = try_cholesky(a)
    if chol is None:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (min eigenvalue ~ {lam:.6g})",
            min_eigenvalue=lam)
    return chol


class _Dual(NamedTuple):
    """The dual form of a sum over the full lattice."""

    omega: np.ndarray    # Omega' = 4 pi^2 Omega^-1
    chol: np.ndarray     # its lower Cholesky factor L'
    radius: float        # certified radius of the dual offsets
    log_scale: float     # log of (2 pi)^{h/2} det(Omega)^{-1/2}


def _off_origin_bound(lengths_sq):
    """Upper bound on the off-origin mass s of a dual sum, from its pivots.

    Given its later coordinates, the sum over each k_i is a shifted 1-D
    theta sum, at most its unshifted value 1 + 2 sum_{n>=1} q_i^{n^2} <=
    1 + 2 q_i / (1 - q_i^3), q_i = exp(-L'_ii^2 / 2); s is at most the
    product of these, less one.  The bound falls as the ``lengths_sq``
    L'_ii^2 grow.
    """
    bound = 1.0
    for length_sq in lengths_sq.tolist():
        bound *= 1.0 + 2.0 * math.exp(-0.5 * length_sq) / -math.expm1(-1.5 * length_sq)
    return bound - 1.0


def _dual_form(omega, omega_inv, eps, primal_bound):
    """The :class:`_Dual` of a full-lattice sum, or None where it is not used.

    The dual weights exp(-k^T Omega' k / 2) are the primal terms of Omega'
    at z = 0, so :func:`_certified_radius` bounds their omitted mass by
    eps / 2.  The dual is used only when :func:`_off_origin_bound` is at
    most 1/2, so that the cosine sum is at least 1/2 and the relative error
    at most eps, and when its point bound is below the primal's and the cap.
    """
    dual = (4.0 * np.pi ** 2) * omega_inv
    # L'_ii^2 <= Omega'_ii, so the diagonal rejects before anything is factored
    if not np.isfinite(dual).all() or _off_origin_bound(np.diag(dual)) > 0.5:
        return None
    chol, _ = try_cholesky(dual)
    if chol is None:
        return None
    pivots = np.diag(chol)
    if _off_origin_bound(pivots ** 2) > 0.5:
        return None
    radius = _certified_radius(pivots, np.log(eps) - np.log(2.0))
    spans = 2.0 * radius * np.sqrt(np.diag(omega)) / (2.0 * np.pi)
    bound = _point_bounds(pivots, np.array([radius]), spans[None, :])[0]
    if bound >= min(primal_bound, _WORK_CAP):
        return None
    # det Omega' = (2 pi)^{2h} / det Omega
    log_scale = np.log(pivots).sum() - 0.5 * pivots.size * np.log(2.0 * np.pi)
    return _Dual(dual, chol, radius, log_scale)


def _dual_log_sums(nhat, cols, weights):
    """Per-row log of sum_k w_k cos(2 pi k.nhat) over the dual offsets.

    ``cols`` holds k = 0 and one of each pair +-k column-wise, ``weights``
    their weights, doubled off the origin.  The phase k.nhat is accumulated
    one coordinate at a time and reduced to [-1/2, 1/2] before the cosine;
    rows are taken in blocks of about ``_BLOCK`` row-point pairs and each is
    summed on its own, so a row's sum does not depend on its batch.
    """
    out = np.empty(nhat.shape[0])
    step = max(1, _BLOCK // cols.shape[1])
    for s in range(0, nhat.shape[0], step):
        blk = nhat[s:s + step]
        phase = blk[:, :1] * cols[0]
        for j in range(1, cols.shape[0]):
            phase += blk[:, j:j + 1] * cols[j]
        phase -= np.rint(phase)
        phase *= 2.0 * np.pi
        np.cos(phase, out=phase)
        phase *= weights
        out[s:s + step] = np.log(phase.sum(axis=1))
    return out


class _Kernel:
    """What a sum needs that depends only on Omega, the lattice and eps.

    Holds the Cholesky factor, Omega^-1, the certified radius of the shared
    ellipsoid and the bound on its point count, and on the full lattice the
    dual form (:func:`_dual_form`) where it is cheaper.  The offsets of each
    form (:meth:`shared_points`), with the primal form's separable tables
    (:func:`_separable`), are kept, read-only, from their second use
    on: a matrix summed once, like each candidate of a fit, holds no points,
    and its arrays are freed as an uncached call's would be.
    Raises NotPositiveDefiniteError if Omega is not positive definite.
    """

    def __init__(self, omega, lattice, eps):
        self.omega = omega
        self.chol = spd_cholesky(omega, "omega")
        self.omega_inv = np.linalg.inv(omega)
        h = omega.shape[0]
        self.pivots = np.diag(self.chol)
        # Every row's sum is at least its term at the rounded maximizer, which
        # lies within rho_half = max over the half-cube corners of |L^T u| of
        # it; enumerating |L^T k| <= R + rho_half about the centre therefore
        # covers each row's own ellipsoid |L^T (n - nhat)| <= R.
        signs = 1.0 - 2.0 * ((np.arange(2 ** h)[:, None] >> np.arange(h)) & 1)
        rho_half = 0.5 * np.sqrt(np.einsum("ch,hl,cl->c", signs, omega, signs).max())
        self.log_eps = np.log(eps)
        self.radius = _certified_radius(self.pivots, self.log_eps - 0.5 * rho_half ** 2) \
            + rho_half
        self.widths = np.sqrt(np.diag(self.omega_inv))
        self.bound = _point_bounds(self.pivots, np.array([self.radius]),
                                   2.0 * self.radius * self.widths[None, :])[0]
        self.dual = None
        if lattice is Lattice.FULL:
            self.dual = _dual_form(omega, self.omega_inv, eps, self.bound)
        self.lattice = lattice
        self.kept = {False: None, True: None}     # by form: dual or not
        self.used = {False: False, True: False}
        self.points = 0     # offsets and separable weights kept, over both forms

    def shared_points(self, dual=False):
        """The offsets k column-wise, with k^T Omega k / 2 and the
        :class:`_Separable` tables (or None) for the primal form, or with
        their weights for the dual form."""
        kept = self.kept[dual]
        if kept is None:
            h = self.omega.shape[0]
            form = self.dual if dual else self
            offsets = _ellipsoid_points(form.chol, np.zeros((1, h)), np.array([form.radius]))[1]
            if dual:
                # k = 0 and, of each pair +-k, the one whose first nonzero entry is positive
                first = offsets[np.arange(offsets.shape[0]), (offsets != 0).argmax(axis=1)]
                offsets, first = offsets[first >= 0], first[first >= 0]
                quad = np.einsum("kh,hl,kl->k", offsets, self.dual.omega, offsets)
                kept = (np.ascontiguousarray(offsets.T, dtype=float),
                        np.where(first > 0, 2.0, 1.0) * np.exp(-0.5 * quad))
            else:
                quad = 0.5 * np.einsum("kh,hl,kl->k", offsets, self.omega, offsets)
                tables = None
                if self.lattice is Lattice.FULL and self.dual is None and h == 2:
                    tables = _separable(offsets, quad, self.omega)
                kept = (np.ascontiguousarray(offsets.T, dtype=float), quad, tables)
            if not self.used[dual]:
                self.used[dual] = True
                return kept
            tables = () if dual or kept[2] is None else kept[2]
            for a in (*kept[:2], *tables):
                a.setflags(write=False)
            self.kept[dual] = kept
            self.points += kept[0].shape[1] + (tables.weights.size if tables else 0)
            with _KERNELS_LOCK:      # least recently used first, until the points fit
                while sum(k.points for k in _KERNELS.values()) > _WORK_CAP:
                    _KERNELS.popitem(last=False)
        return kept


def _kernel(omega, lattice, eps):
    """The prepared kernel for (Omega, lattice, eps), from the cache or new."""
    key = (omega.tobytes(), omega.shape, lattice, eps)
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is not None:
            _KERNELS.move_to_end(key)
            return kernel
    omega = omega.copy()
    omega.setflags(write=False)
    kernel = _Kernel(omega, lattice, eps)
    with _KERNELS_LOCK:
        _KERNELS[key] = kernel
        if len(_KERNELS) > _KERNEL_CAP:
            _KERNELS.popitem(last=False)
    return kernel


def log_theta_many(zs, omega, lattice=Lattice.FULL, eps=DEFAULT_EPS,
                   collect_terms=False):
    """Evaluate log tilde-theta for a batch of arguments sharing one Omega.

    Parameters
    ----------
    zs : (B, h) array of argument vectors.
    omega : (h, h) symmetric positive definite matrix.
    lattice : which lattice to sum over.
    eps : relative truncation tolerance, 0 < eps <= 1e-3.
    collect_terms : if True (batch size 1 only), also return the enumerated
        lattice points and their log-terms, for mixture-weight extraction.

    Returns
    -------
    (B,) array of log-sums, or ``(logsum, points, logterms)`` when
    ``collect_terms`` is set.

    Raises
    ------
    NotPositiveDefiniteError
        If omega is not positive definite.
    ThetaTruncationError
        If certifying ``eps`` needs more lattice points than the work cap
        in the form used (the primal one when the dual is not certified or
        not cheaper); this is checked before the points are allocated, and
        the sum is never silently truncated.
    ValueError
        If ``eps`` is out of range or an argument is not finite.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    omega = np.asarray(omega, dtype=float)
    nb = zs.shape[0]
    lattice = Lattice(lattice)
    eps = check_eps(eps)
    if collect_terms and nb != 1:
        raise ValueError("collect_terms requires a single argument vector")
    if not (np.isfinite(zs).all() and np.isfinite(omega).all()):
        raise ValueError("theta arguments must be finite")
    kernel = _kernel(omega, lattice, eps)
    omega, chol = kernel.omega, kernel.chol

    # Row arithmetic avoids BLAS (see _rows_dot) so that a row's sum does
    # not depend on the other rows of its batch.
    nhat = _rows_dot(zs, kernel.omega_inv)              # continuous maximizer
    if kernel.dual is not None and not collect_terms:  # its bound is under the cap
        return (kernel.dual.log_scale + 0.5 * np.einsum("bh,bh->b", zs, nhat)
                + _dual_log_sums(nhat, *kernel.shared_points(dual=True)))
    centre = np.rint(nhat)
    shared = np.ones(nb, dtype=bool)
    if lattice is Lattice.NONNEG:
        shared = ~(centre < 0).any(axis=1)
    clipped = np.flatnonzero(~shared)

    bounds = np.full(nb, kernel.bound)
    if clipped.size:
        # A rounded maximizer outside the orthant gives no term to bound the
        # sum with; an orthant point found by coordinate ascent does, and the
        # row's own ellipsoid is enumerated inside the orthant.
        best = _orthant_ascent(zs[clipped], omega, np.maximum(centre[clipped], 0.0))
        u = nhat[clipped] - best
        dist = np.sqrt(np.einsum("bh,hl,bl->b", u, omega, u))
        reach = np.maximum(_certified_radius(kernel.pivots, kernel.log_eps - 0.5 * dist ** 2),
                           dist)        # radius of each clipped row's own points
        upper = nhat[clipped] + reach[:, None] * kernel.widths
        lower = np.maximum(nhat[clipped] - reach[:, None] * kernel.widths, 0.0)
        bounds[clipped] = _point_bounds(kernel.pivots, reach, upper - lower)
    failed = bounds > _WORK_CAP
    if failed.any():
        raise ThetaTruncationError(
            f"{int(failed.sum())} of {nb} lattice sums not converged: eps={eps:g} "
            f"needs up to {bounds.max():.4g} lattice points, above the work cap "
            f"of {_WORK_CAP} (min eigenvalue {np.linalg.eigvalsh(omega)[0]:.6g})")

    result = np.empty(nb)
    if clipped.size:
        if collect_terms:
            owner, points, terms = _orthant_terms(zs, omega, chol, nhat, reach, best)
            return _segment_log_sums(owner, terms, 1), points, terms
        result[clipped] = _orthant_log_sums(zs[clipped], omega, chol, nhat[clipped],
                                            reach, best, bounds[clipped])
    if shared.any():
        cols, quad, tables = kernel.shared_points()
        shared = np.flatnonzero(shared) if clipped.size else slice(None)
        # f(centre + k) = f0 + k.(z - Omega centre) - k^T Omega k / 2
        centre = centre[shared]
        c_omega = _rows_dot(centre, omega)
        g = zs[shared] - c_omega
        f0 = -0.5 * np.einsum("bh,bh->b", c_omega, centre) \
            + np.einsum("bh,bh->b", centre, zs[shared])
        mask = centre if lattice is Lattice.NONNEG else None
        if collect_terms:
            e = _exponents(g, cols, quad, mask)
            terms = f0[0] + e[0]
            keep = np.isfinite(terms)
            result = f0 + _logsumexp_rows(e)
            return result, centre[0].astype(np.int64) + cols.T[keep].astype(np.int64), \
                terms[keep]
        if tables is None:
            result[shared] = _log_sums(g, f0, cols, quad, mask)
        else:
            result[shared] = _separable_log_sums(g, f0, cols, quad, tables)
    return result

