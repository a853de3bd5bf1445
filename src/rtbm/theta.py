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
  against a fixed cap; a caller may also cap the ellipsoid's max-norm
  half-width with ``max_radius``.  Either failure raises
  ThetaTruncationError, so a sum is never silently truncated and never
  allocates without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammainccinv, gammaln, logsumexp

from .errors import NotPositiveDefiniteError, ThetaTruncationError

DEFAULT_EPS = 1e-12
_WORK_CAP = 1 << 21      # most lattice points enumerated at once
_BLOCK = 1 << 16         # row-point pairs evaluated at once, sized for cache
_LOG_TINY = -700.0       # log of a comfortably normal double
_REFERENCE_POINT_CAP = 10**8


class Lattice(str, Enum):
    """Summation lattice for the hidden units."""

    FULL = "full"      # all integer vectors
    NONNEG = "nonneg"  # vectors with nonnegative integer entries


@dataclass(frozen=True)
class ThetaQuery:
    """Argument pair (z, Omega) for a tilde-theta evaluation.

    ``eps`` is the relative truncation tolerance: the omitted lattice mass
    is certified to be below ``eps`` times the returned sum.
    """

    z: np.ndarray
    omega: np.ndarray
    lattice: Lattice = Lattice.FULL
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        omega = np.atleast_2d(np.asarray(self.omega, dtype=float))
        h = z.shape[0]
        if z.ndim != 1 or omega.shape != (h, h):
            raise ValueError(f"shape mismatch: z {z.shape}, omega {omega.shape}")
        if not np.isfinite(z).all() or not np.isfinite(omega).all():
            raise ValueError("z and omega must be finite")
        if np.abs(omega - omega.T).max() > 1e-10:
            raise ValueError("omega must be symmetric")
        if not (0.0 < self.eps <= 1e-3):
            raise ValueError(f"eps must lie in (0, 1e-3], got {self.eps}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "lattice", Lattice(self.lattice))


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
    log_count = np.log(2.0 / pivots + 1.0 / np.expand_dims(r0, -1)).sum(axis=-1)
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


def _spd_cholesky(omega, name="omega"):
    """Lower Cholesky factor, raising NotPositiveDefiniteError on failure."""
    try:
        return np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(omega)[0])
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (min eigenvalue ~ {lam:.6g})",
            min_eigenvalue=lam,
        ) from None


def _check_converged(failed, eps, omega, need):
    """Raise ThetaTruncationError if any row is ``failed``; ``need`` says why."""
    if failed.any():
        raise ThetaTruncationError(
            f"{int(failed.sum())} of {failed.size} lattice sums not converged: "
            f"eps={eps:g} needs {need} "
            f"(min eigenvalue {np.linalg.eigvalsh(omega)[0]:.6g})")


def log_theta_many(zs, omega, lattice=Lattice.FULL, eps=DEFAULT_EPS,
                   max_radius=None, collect_terms=False):
    """Evaluate log tilde-theta for a batch of arguments sharing one Omega.

    Parameters
    ----------
    zs : (B, h) array of argument vectors.
    omega : (h, h) symmetric positive definite matrix.
    lattice : which lattice to sum over.
    eps : relative truncation tolerance.
    max_radius : optional cap on the max-norm half-width of each row's
        enumerated ellipsoid.
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
        If certifying ``eps`` needs more lattice points than the work cap or
        a half-width above ``max_radius``; both are checked before the points
        are allocated, and the sum is never silently truncated.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    omega = np.asarray(omega, dtype=float)
    nb, h = zs.shape
    lattice = Lattice(lattice)
    if collect_terms and nb != 1:
        raise ValueError("collect_terms requires a single argument vector")
    if not (np.isfinite(zs).all() and np.isfinite(omega).all()):
        raise ValueError("theta arguments must be finite")

    chol = _spd_cholesky(omega)
    omega_inv = np.linalg.inv(omega)

    # Row arithmetic avoids BLAS (see _rows_dot) so that a row's sum does
    # not depend on the other rows of its batch.
    nhat = _rows_dot(zs, omega_inv)                     # continuous maximizer
    centre = np.rint(nhat)
    shared = np.ones(nb, dtype=bool)
    if lattice is Lattice.NONNEG:
        shared = ~(centre < 0).any(axis=1)
    clipped = np.flatnonzero(~shared)

    pivots = np.diag(chol)
    # Every row's sum is at least its term at the rounded maximizer, which
    # lies within rho_half = max over the half-cube corners of |L^T u| of
    # it; enumerating |L^T k| <= R + rho_half about the centre therefore
    # covers each row's own ellipsoid |L^T (n - nhat)| <= R.
    signs = 1.0 - 2.0 * ((np.arange(2 ** h)[:, None] >> np.arange(h)) & 1)
    rho_half = 0.5 * np.sqrt(np.einsum("ch,hl,cl->c", signs, omega, signs).max())
    log_eps = np.log(eps)
    radius = _certified_radius(pivots, log_eps - 0.5 * rho_half ** 2) + rho_half
    reach = np.full(nb, radius)        # radius of each row's enumerated points
    widths = np.sqrt(np.diag(omega_inv))
    spans = np.tile(2.0 * radius * widths, (nb, 1))    # extents along each n_i
    if clipped.size:
        # A rounded maximizer outside the orthant gives no term to bound the
        # sum with; an orthant point found by coordinate ascent does, and the
        # row's own ellipsoid is enumerated inside the orthant.
        best = _orthant_ascent(zs[clipped], omega, np.maximum(centre[clipped], 0.0))
        u = nhat[clipped] - best
        dist = np.sqrt(np.einsum("bh,hl,bl->b", u, omega, u))
        reach[clipped] = np.maximum(
            _certified_radius(pivots, log_eps - 0.5 * dist ** 2), dist)
        upper = nhat[clipped] + reach[clipped, None] * widths
        lower = np.maximum(nhat[clipped] - reach[clipped, None] * widths, 0.0)
        spans[clipped] = upper - lower

    bounds = _point_bounds(pivots, reach, spans)
    _check_converged(bounds > _WORK_CAP, eps, omega,
                     f"up to {bounds.max():.4g} lattice points, "
                     f"above the work cap of {_WORK_CAP}")
    if max_radius is not None:
        half_width = 0.5 * spans.max(axis=1)
        _check_converged(half_width > max_radius, eps, omega,
                         f"a max-norm half-width of {half_width.max():.4g}, "
                         f"above max_radius={max_radius}")

    result = np.empty(nb)
    if clipped.size:
        if collect_terms:
            owner, points, terms = _orthant_terms(zs, omega, chol, nhat, reach, best)
            return _segment_log_sums(owner, terms, 1), points, terms
        result[clipped] = _orthant_log_sums(zs[clipped], omega, chol, nhat[clipped],
                                            reach[clipped], best, bounds[clipped])
    if shared.any():
        offsets = _ellipsoid_points(chol, np.zeros((1, h)), np.array([radius]))[1]
        quad = 0.5 * np.einsum("kh,hl,kl->k", offsets, omega, offsets)
        cols = np.ascontiguousarray(offsets.T, dtype=float)
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
            return result, centre[0].astype(np.int64) + offsets[keep], terms[keep]
        result[shared] = _log_sums(g, f0, cols, quad, mask)
    return result


def log_theta(query: ThetaQuery) -> float:
    """Log of the tilde-theta lattice sum for a single argument."""
    return float(log_theta_many(query.z[None, :], query.omega,
                                query.lattice, query.eps)[0])


def log_theta_reference(z, omega, lattice=Lattice.FULL, radius=10) -> float:
    """Brute-force tilde-theta over all lattice points with max-norm <= radius.

    Exhaustive summation in a fixed naive order with log-sum-exp
    accumulation; intended as a test oracle only.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    lattice = Lattice(lattice)
    h = z.shape[0]
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side = radius + 1 if lattice is Lattice.NONNEG else 2 * radius + 1
    if h * side**h > _REFERENCE_POINT_CAP:
        raise ValueError(
            f"enumeration of {h * side**h} points exceeds the "
            f"{_REFERENCE_POINT_CAP} cap")
    lo = 0 if lattice is Lattice.NONNEG else -radius
    axis = np.arange(lo, radius + 1, dtype=np.int64)
    chunks = []
    if h == 1:
        blocks = [axis[:, None]]
    else:
        tail = np.meshgrid(*([axis] * (h - 1)), indexing="ij")
        tail = np.stack([m.ravel() for m in tail], axis=1)
        blocks = (np.concatenate(
            [np.full((tail.shape[0], 1), first, dtype=np.int64), tail], axis=1)
            for first in axis)
    for pts in blocks:
        f = -0.5 * np.einsum("kh,hl,kl->k", pts, omega, pts) + pts @ z
        chunks.append(logsumexp(f))
    return float(logsumexp(np.array(chunks)))
