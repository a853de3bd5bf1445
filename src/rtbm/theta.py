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
  tolerance ``EPS``.
* Ellipsoid.  The offsets k from each row's rounded maximizer with
  k^T Omega k <= (R + rho_half)^2, rho_half bounding |L^T u| over the
  rounding errors u, contain every row's own ellipsoid.  They depend only
  on Omega, are enumerated once by the Fincke-Pohst recursion over
  the Cholesky factor (Fincke and Pohst, "Improved methods for calculating
  vectors of short length in a lattice", Math. Comp. 44 (1985) 463-471),
  and every row is evaluated against them in blocked products.  On the
  orthant lattice, points outside it are masked; a row whose rounded
  maximizer lies outside the orthant gets its own radius from its best
  orthant point and sums its own ellipsoid, as does the collected row
  whose points ``collect_terms`` returns.
* Work cap.  Before anything is allocated, each row's point count is
  bounded by prod_i (min(2r / L_ii, s_i) + 1), s_i the extent of its
  ellipsoid (cut at zero on the orthant lattice) along n_i, and checked
  against a fixed cap of 2^21 points, once for all the rows that share a
  kernel's offsets.  A row over the cap, with no dual form under it,
  raises ThetaTruncationError, so a sum is never silently truncated and
  never allocates without bound.
* Dual sums.  On the full lattice, Poisson summation gives the functional
  equation of theta (Mumford, "Tata Lectures on Theta I", 1983):

      theta(z | Omega) = (2 pi)^{h/2} det(Omega)^{-1/2} e^{z.nhat / 2}
                         sum_k e^{-k^T Omega' k / 2} cos(2 pi k.nhat)

  with Omega' = 4 pi^2 Omega^-1, the modular step that Frauendiener, Jaber
  and Klein, "Efficient computation of multidimensional theta functions",
  J. Geom. Phys. 141 (2019), arXiv:1701.07486, also take.  The dual
  weights are the primal terms of Omega' at z = 0, so the bound above,
  with tolerance EPS / 2 and no rounding, certifies their omitted mass,
  and their points do not depend on z.  The cosine sum is at least 1 - s,
  s the off-origin weight, which a product of 1-D theta values over the
  pivots of Omega' bounds; the dual form is used only when that bound is
  at most 1/2, so its relative error stays at most EPS, and only when its
  point bound is below the primal's and the cap.  The choice is made once
  per kernel, before anything is enumerated; small matrices, whose primal
  ellipsoid is large, take the dual.  Per row the sum is z.nhat / 2 plus
  the log of the cosine sum over k = 0 and one of each pair +-k, with
  doubled weights, the phases x reduced to [-1/2, 1/2].  Each cosine is
  cos(2 pi x) = (1 - t^2) / (1 + t^2) with t = tan(pi x): numpy 2.4.6 on
  a 2-vCPU x86-64 host computes float64 cos at 14.3 ns per element but tan
  at 1.85 ns (exp at 0.82 ns), as only the tangent is vectorized, which
  made a dual wide call cost about three times a separable one.  Where
  numpy's tan is not vectorized it costs about what cos does, and the form
  adds four cheap elementwise passes.  The orthant lattice, to which
  Poisson summation does not apply, and the collected row stay primal.
* Separable sums.  On the full lattice at h >= 2, with g = z - Omega c the
  offset of a row's rounded maximizer c, exp(g.k) = exp(g_1 k_1)
  exp(g_2 k_2 + ... + g_h k_h), the factoring of the primal terms that
  Deconinck et al. use, so a row's sum over the shared offsets is
  sum_m V_m sum_a A_am U_a, with U_a = exp(g_1 a) over the K1 values a of
  k_1, V_m = exp(g_2 p_m2 + ... + g_h p_mh) over the M prefixes
  p_m = (k_2, ..., k_h), and the fixed table A_am = exp(-k^T Omega k / 2),
  zero off the ellipsoid.  The enumeration emits the offsets grouped by
  prefix with k_1 innermost, so the table is read from its last level.  A
  row then takes K1 + M exponentials instead of one per point: about 14
  instead of 31 in the n_h = 2 fit, and 68 instead of 273 in the n_h = 3
  fit.  The tables are used where they fit: at most two entries per
  offset, which a thin, tilted ellipsoid fails, and at most 2^15 values of
  k_1 or prefixes, which a long ellipsoid fails.  A row is summed from
  them only where its own |g_j| max |k_j| (for j >= 2 over the table's
  prefixes, some of which may hold no offset), summed over j in index
  order, is at most 600, so every factor and term stays below e^600 and a
  partial product that underflows belongs to a term below e^-100 of a sum
  that is at least its k = 0 term, 1.  Other rows are summed directly:
  |g_j| reaches 1/2 sum_l |Omega_jl| where nhat - c is 1/2, and far from
  the origin rounding carries g further.  The rows are first tested once,
  by the same sum over j with the largest |g_j| of the call's rows in
  place of a row's: rounding is monotone, so where that one bound is at
  most 600 so is every row's sum, the same rows are chosen, and no row is
  tested on its own.  The rows lie along the contiguous axis: U is
  (K1, rows) and V (M, rows).  A block of rows takes
  sum_a A_am U_a in one einsum and sum_m of its products with V_m in one
  reduction, both over the leading axis in index order, without BLAS
  (whose gemv for a single row rounds differently from its gemm).  numpy
  reduces a block of one row in an order of its own, so a lone row is
  broadcast into two columns, and a row's sum does not depend on its
  batch.  A block takes 2^16 / max(K1, M) rows, at least two, so that
  each of its arrays fits one row of a work array
  that each thread keeps (1.5 MiB) rather than having it mapped afresh per
  call; a 5000-row call of the n_h = 2 fit is one block or two, and of the
  n_h = 3 fit about five.  The choice is made once per kernel, from its
  offsets, whatever its batch: a kernel summed for one row, like each fit
  candidate's normalizer, pays for tables it does not repay (about a
  fifth of a cold call at h = 3), but no property of the matrix tells it
  from the candidate's wide numerator kernel, whose tables save about
  0.8 ms.  The dual form, the orthant lattice and the collected row keep
  their sums.
* Prepared kernels.  What depends only on Omega and the lattice - the
  Cholesky factor, Omega^-1 (from the factor, by LAPACK ``dpotri``), the
  radius, the shared point bound, the one form its rows take (dual, or
  primal with separable tables where they apply) and, from that form's
  second use on, its offsets and tables - is kept in one module-level LRU
  keyed by Omega's exact bytes and shape and the lattice; the kernel
  sums (Omega + Omega^T) / 2.  It holds at most 32 kernels and at most
  2^21 kept offsets and table entries in total.  Conditioning changes only
  the theta arguments, so every conditional of one model sums over the
  same two or three matrices, bit for bit, and after the first query only
  the per-row work remains.  ``model.validate`` checks Q and the Schur
  matrix by preparing their kernels, so each is factored once per model.
  rho_half is the maximum over the 2^h corners of the half-cube up to
  h = 16 and an O(h^2) bound on it above; at h >= 21 the shared point
  bound exceeds 2^h, past the work cap, and only the dual form or a row's
  own ellipsoid (an orthant row, the collected row) can sum.  A miss
  does what an uncached call does, in the same order, so results never
  depend on the cache.  It enumerates
  the offsets as coordinate rows and takes each offset's k^T Omega k (of
  Omega' in the dual form) from the enumeration's sum of squared steps.
  A fit brings two fresh matrices per candidate, Q and its Schur matrix,
  and what a fresh kernel costs is numpy's overhead per call on arrays of
  one to a few hundred elements, so it is prepared with few calls: Omega,
  symmetrized here and checked finite by the caller, and the exactly
  symmetric Omega' go to LAPACK ``dpotrf`` without a second check; each
  form's radius and point bound are formed in Python floats, but for
  numpy's log, exp and sum over the pivots; and the enumeration about the
  origin finds the intervals of its two outermost coordinates in Python
  floats and each further coordinate's in about two dozen calls.  Over
  the captured matrices of the two seeded benchmark fits (a shared 2-vCPU
  x86-64 host, each matrix's best of seven passes, interleaved with the
  previous code in one process), construction and first enumeration take
  87 us at h = 3 and 65 us at h = 2, against 102 and 76 us when the
  radius, the bounds and all but the outermost coordinate were numpy's.
  ``log_theta_many`` checks its arguments and hands their coordinate rows
  to ``_log_theta_rows`` under one ``np.errstate``, as ``density`` does
  with rows it has checked.
  The per-row work - the maximizer Omega^-1 z, its rounding c,
  g = z - Omega c and the term at c - reads each coordinate of the batch
  as one contiguous row of B values and sums over the coordinates in index
  order, one length-B operation each, which neither the batch nor the
  CPU's vector width can reorder.  The direct and dual sums build their
  (rows x points) blocks of about 2^14 elements (one row at least) from
  these rows.

Every sum is certified to the one relative tolerance ``EPS`` (1e-12).
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.special import gammainccinv, gammaln

from .errors import NotPositiveDefiniteError, ThetaTruncationError

EPS = 1e-12              # relative truncation tolerance of every sum
_WORK_CAP = 1 << 21      # most lattice points enumerated at once, and kept at once
_KERNEL_CAP = 32         # most prepared kernels kept at once
_BLOCK = 1 << 14         # elements of a direct or dual sum's (rows x points) block, reused
_TABLE_BLOCK = 1 << 16   # elements of each row of a separable sum's kept work array
_LOG_TINY = -700.0       # log of a comfortably normal double
_LOG_FACTOR_CAP = 600.0  # largest exponent of a factor of a separable sum
_LOG_2 = float(np.log(2.0))
_LOG_EPS = float(np.log(EPS))
_LOG_2PI = float(np.log(2.0 * np.pi))
_DUAL_SCALE = 4.0 * np.pi ** 2    # Omega' = 4 pi^2 Omega^-1

# Prepared kernels by (Omega bytes, shape, lattice), least recently used first.
_KERNELS = OrderedDict()
_KERNELS_LOCK = threading.Lock()
_TABLE_WORK = threading.local()   # each thread's work array for separable sums


class Lattice(str, Enum):
    """Summation lattice for the hidden units."""

    FULL = "full"      # all integer vectors
    NONNEG = "nonneg"  # vectors with nonnegative integer entries


@functools.cache
def _log_gamma(h):
    """log Gamma(h/2 + 1), the constant of :func:`_certified_radius` for dimension h."""
    return float(gammaln(0.5 * h + 1.0))


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
    the Gaussian radius sqrt(-2 log_rel).

    ``log_rel`` is a float (a kernel's radius) or an array (the radii of
    rows that sum their own ellipsoid), and so is R: one formula for both.
    Its transcendental functions and its sum over the h logs are numpy's
    either way, as numpy's own float64 log and exp can differ from the C
    library's in the last bit, and its sum from a sequential one; a float's
    other arithmetic, square roots, maxima and minima are Python's, which
    round as numpy's do and pick the value numpy's would (the first of two
    equal ones) at a tenth of the cost.
    """
    rows = isinstance(log_rel, np.ndarray)
    maximum, minimum, sqrt = (np.maximum, np.minimum, np.sqrt) if rows else (max, min, math.sqrt)
    h = pivots.size
    a = 0.5 * h + 1.0
    r0 = sqrt(-2.0 * log_rel)      # above 7.4, as every log_rel is at most log EPS
    if rows:
        log_count = np.add.reduce(np.log(2.0 / pivots + (1.0 / r0)[:, None]), axis=-1)
    else:
        inv_r0 = 1.0 / r0
        log_count = float(np.add.reduce(np.log([2.0 / p + inv_r0 for p in pivots.tolist()])))
    # the extra factor 2 absorbs the rounding of the inverse
    log_y = minimum(log_rel - log_count - 0.5 * h * _LOG_2 - _log_gamma(h) - _LOG_2, 0.0)
    # Below the representable range, Gamma(a, x + d) <= e^{-d (1 - (a-1)/x)}
    # Gamma(a, x) (a >= 1) moves the inverse on by the missing log-mass.
    log_floor = maximum(log_y, _LOG_TINY)
    x = gammainccinv(a, np.exp(log_floor))
    x = x + (log_floor - log_y) / (1.0 - (a - 1.0) / maximum(x, a))
    return maximum(sqrt(2.0 * x), r0)


def _ellipsoid_points(chol, centres, radii, orthant=False):
    """Integer vectors n with |L^T (n - c)| <= r, for each centre c and radius r.

    Fincke-Pohst enumeration over Omega = L L^T, vectorized one coordinate at
    a time from the last to the first: (L^T (n - c))_i = L_ii (n_i - m_i)
    with m_i = c_i - sum_{j>i} L_ji (n_j - c_j) / L_ii, so each prefix
    (n_{i+1}, ..., n_{h-1}) leaves an interval of admissible n_i, cut at
    zero when ``orthant`` is set.  The caller bounds the number of points
    with :func:`_point_bounds` first.

    Returns ``(owner, points, sq, counts, prefixes)``: the index of each
    point's centre, in ascending order; the points as float coordinate rows
    (h, P), the layout the sums read; |L^T (n - c)|^2, the squares of the
    steps L_ii (n_i - m_i) summed from the last coordinate to the first as
    they are formed; and, from the last level, the number of points of each
    prefix (n_2, ..., n_h) of the (h - 1, M) float coordinate rows
    ``prefixes``, so the points come grouped by prefix, in the prefixes'
    order, with n_1 ascending within each group.  A prefix may hold no point.

    Each level's points are the columns of one (h + 3, P_i) array: the
    remaining squared radius, the sum of squared steps, a row for m_i and
    then the steps, and one row per coordinate.  Each prefix's m_i, and its
    first n_i, are written into its column, and one ``repeat`` copies each
    prefix's column once per point of its interval, so a level costs about
    two dozen numpy calls, whatever its size, or ten where its intervals
    are already known.  A single centre, like the origin of a kernel's
    shared offsets, finds the intervals of its two outermost levels - one
    prefix, then one per value of n_{h-1} - in Python floats, whose +, -,
    *, /, sqrt, ceil and floor round as numpy's do, so only the inner levels
    pay numpy's cost per call; it broadcasts its coordinates instead of
    gathering them per point, and has no owner to carry from level to level.
    """
    m, h = centres.shape
    cen = centres.T
    factor = chol.tolist()      # its entries as floats, which divide as numpy's do
    # the slack keeps rounding from dropping a point on the boundary
    slack = 1.0 + 1e-12
    counts = None
    if m == 1:
        c = centres[0].tolist()
        # n_j - c_j is n_j where c_j is +0.0, as at the origin: no call
        at_zero = [x == 0.0 and math.copysign(1.0, x) > 0.0 for x in c]
        owner, level, counts, top = None, *_outer_intervals(factor, c, float(radii[0]), slack,
                                                            orthant)
    else:
        at_zero = [False] * h
        owner = np.arange(m)
        level = np.empty((h + 3, m))
        level[0], level[1] = np.square(radii) * slack, 0.0
        top = h - 1
    for i in range(top, -1, -1):
        lii = factor[i][i]
        if counts is None:
            prefixes = level[i + 4:]
            own = cen[i:] if owner is None else cen[i:, owner]
            mid = level[2]
            if i == h - 1:
                mid[:] = own[0]
            for j in range(1, h - i):
                diff = prefixes[j - 1] if at_zero[i + j] else prefixes[j - 1] - own[j]
                np.subtract(own[0] if j == 1 else mid, diff * (factor[i + j][i] / lii), out=mid)
            half = np.maximum(level[0], 0.0)
            np.sqrt(half, out=half)
            half /= lii
            lo = np.subtract(mid, half)
            np.ceil(lo, out=lo)
            end = np.add(mid, half, out=half)
            np.floor(end, out=end)
            end += 1.0      # at least lo, as half >= 0
            if orthant:
                np.maximum(lo, 0.0, out=lo)
                np.maximum(end, lo, out=end)
            end -= lo
            counts = end.astype(np.int64)
            starts = counts.cumsum()
            starts -= counts
            # n_i runs from lo up within each prefix's run of points
            np.subtract(lo, starts, out=level[i + 3])
        prefixes = level[i + 4:]
        level = level.repeat(counts, axis=1)
        ni = level[i + 3]
        ni += np.arange(ni.size)
        step = np.subtract(ni, level[2], out=level[2])
        step *= lii
        step *= step
        if i:
            level[0] -= step
        level[1] += step
        if owner is not None:
            owner = owner[np.arange(len(counts)).repeat(counts)]
        if i:
            counts = None
    if owner is None:
        owner = np.zeros(level.shape[1], dtype=np.intp)
    return owner, level[3:], level[1], counts, prefixes


def _outer_intervals(factor, c, radius, slack, orthant):
    """The two outermost levels of :func:`_ellipsoid_points` about the one
    centre ``c`` (a list of floats), in Python floats, over the Cholesky
    factor's rows ``factor`` (lists of floats).

    Returns the (h + 3, K) array of the prefixes of the level whose
    intervals are found here - level h - 2, whose K prefixes are the values
    of n_{h-1}, or at h = 1 the one empty prefix of level 0 - with each
    prefix's remaining squared radius, sum of squared steps, m_i and first
    n_i less its run's start; the K interval lengths; and that level's
    index.  Each value is formed by the operations, in the order, of the
    numpy levels.
    """
    h = len(c)
    i, lii = h - 1, factor[-1][-1]
    rem = radius * radius * slack
    half = math.sqrt(max(rem, 0.0)) / lii
    lo, end = math.ceil(c[i] - half), math.floor(c[i] + half) + 1
    if orthant:
        lo = max(lo, 0)
        end = max(end, lo)
    if i == 0:
        level = np.empty((4, 1))
        level[:, 0] = (rem, 0.0, c[0], lo)
        return level, [end - lo], 0
    rems, sqs, mids, firsts, outer, counts = [], [], [], [], [], []
    i -= 1
    l_i = factor[i][i]
    ratio = factor[i + 1][i] / l_i
    start = 0
    for n in range(lo, end):
        step = (n - c[i + 1]) * lii
        step *= step
        left = rem - step
        mid = c[i] - (n - c[i + 1]) * ratio
        half = math.sqrt(max(left, 0.0)) / l_i
        a, b = math.ceil(mid - half), math.floor(mid + half) + 1
        if orthant:
            a = max(a, 0)
            b = max(b, a)
        rems.append(left)
        sqs.append(step)
        mids.append(mid)
        firsts.append(a - start)
        outer.append(n)
        counts.append(b - a)
        start += b - a
    level = np.empty((h + 3, len(counts)))
    level[0], level[1], level[2] = rems, sqs, mids
    level[i + 3], level[i + 4] = firsts, outer
    return level, counts, i


def _point_bounds(pivots, radii, spans):
    """Upper bounds on the points :func:`_ellipsoid_points` finds per centre.

    Given its prefix, n_i ranges over an interval of length at most
    2r / L_ii, and over the ellipsoid's extent ``spans[..., i]`` along n_i
    (which its orthant cut can shorten), so each coordinate level multiplies
    the count by at most the smaller of the two plus one.  The factor
    1 + 1e-12 matches the enumeration's boundary slack.  ``radii`` is an
    array of rows' radii, or a float, a kernel's, whose bound is formed in
    Python floats over the h ``spans`` (a list): their arithmetic rounds as
    numpy's does, and numpy's product over the last axis is taken in index
    order, as it is here.
    """
    if isinstance(radii, np.ndarray):
        reach = np.divide.outer(2.0 * radii, pivots)
        np.minimum(reach, spans, out=reach)
        reach *= 1.0 + 1e-12
        reach += 1.0
        return np.multiply.reduce(reach, axis=-1)
    bound = 1.0
    for pivot, span in zip(pivots.tolist(), spans):
        bound *= min(2.0 * radii / pivot, span) * (1.0 + 1e-12) + 1.0
    return bound


def _orthant_ascent(zs, omega, start):
    """Raise -n^T Omega n / 2 + n.z over n >= 0 integer, one coordinate at a time.

    Each step sets n_i to its best nonnegative integer given the others, so
    the value never falls; h sweeps give a lower bound on the orthant sum.
    """
    n = start.copy()
    h = n.shape[1]
    for _ in range(h):
        for i in range(h):
            others = _coords_dot_rows(n.T, omega[:, i:i + 1])[:, 0] - omega[i, i] * n[:, i]
            n[:, i] = np.maximum(np.rint((zs[:, i] - others) / omega[i, i]), 0.0)
    return n


def _coords_dot(rows, m, out=None):
    """``m^T rows`` for coordinate rows (h, B): out[k] = sum_j m[j, k] rows[j],
    into ``out`` (h', B) if given.

    The sum runs over j in index order, one (h', B) product per coordinate,
    each formed in one reused buffer and then added.
    BLAS rounds a row differently depending on how many rows share the
    product (gemv for one row, blocked gemm kernels for more), which would
    make a lattice sum depend on its batch; this order depends on nothing
    but h.  For a C-ordered ``m`` of many columns it is also the order of
    :func:`_coords_dot_rows`, bit for bit.  It stays a loop because einsum
    sums a lone row in another order when ``m`` has one column (W with one
    hidden unit) or is Fortran-ordered (``chol_t`` from LAPACK).
    """
    out = np.multiply.outer(m[0], rows[0], out=out)
    prod = None
    for j in range(1, rows.shape[0]):
        prod = np.multiply.outer(m[j], rows[j], out=prod)
        out += prod
    return out


def _coords_dot_rows(rows, m):
    """``rows^T m`` (B, k) for coordinate rows (h, B), summed over h in index order.

    The blocked sums' (rows x points) products, in one call that allocates
    only its output (:func:`_coords_dot` would make a temporary of the
    block per coordinate).  The own-ellipsoid paths, which keep their few
    rows as (rows, h), pass the transpose.
    """
    return np.einsum("hb,hk->bk", rows, m)


def _coords_inner(a, b):
    """sum_j a[j] b[j] for coordinate rows (h, B), over j in index order.

    ``np.einsum("hb,hb->b")`` would sum a lone row (B = 1) in the CPU's
    vector-lane order instead.  The products are formed in one call and
    added one coordinate at a time into a new array.
    """
    prods = a * b
    if len(prods) == 1:
        return prods[0]
    out = np.add(prods[0], prods[1])
    for j in range(2, len(prods)):
        out += prods[j]
    return out


def _log_sums(g, f0, cols, quad, centre):
    """Per-row log of sum_k exp(f0 + g.k - k^T Omega k / 2) over the offsets.

    ``g`` holds the rows' coordinates as rows (h, B), ``cols`` the offsets k
    column-wise, ``centre`` the rows' lattice centres (h, B) for the NONNEG
    lattice, where offsets outside it are masked, or None for the full
    lattice.  Rows are taken in blocks of about ``_BLOCK`` row-point pairs
    (one row at least), so no block exceeds ``_WORK_CAP`` elements.
    """
    out = np.empty(g.shape[1])
    step = max(1, _BLOCK // cols.shape[1])
    for s in range(0, g.shape[1], step):
        blk = slice(s, s + step)
        e = _coords_dot_rows(g[:, blk], cols)
        e -= quad
        if centre is not None:
            outside = cols[0] < -centre[0, blk, None]
            for j in range(1, cols.shape[0]):
                outside |= cols[j] < -centre[j, blk, None]
            np.copyto(e, -np.inf, where=outside)
        peak = e.max(axis=1)
        e -= peak[:, None]
        np.exp(e, out=e)
        out[blk] = f0[blk] + (peak + np.log(e.sum(axis=1)))
    return out


class _Separable(NamedTuple):
    """The offsets k = (k_1, ..., k_h) of a primal kernel with h >= 2, as tables."""

    firsts: np.ndarray     # (K1, 1) the values of k_1, one integer range
    prefixes: np.ndarray   # (h - 1, M, 1) the prefixes (k_2, ..., k_h), a coordinate each
    weights: np.ndarray    # (K1, M) exp(-k^T Omega k / 2), zero off the ellipsoid
    reach: np.ndarray      # (h, 1) max |k_1|, then max |k_j| over the prefixes


def _separable(cols, quad, counts, prefixes):
    """The :class:`_Separable` tables of the offsets ``cols`` (h, P), or None.

    ``quad`` holds k^T Omega k / 2, and the offsets' counts per prefix
    ``counts`` and the h - 1 coordinate rows ``prefixes`` group the offsets
    by (k_2, ..., k_h) as :func:`_ellipsoid_points` emits them;
    the groups from the first to the last that holds an offset are the
    table's M prefixes (at h = 2, the values of k_2 from least to greatest).
    The enumeration about the origin
    negates exactly, so the offsets hold -k with k, and max |k_1| and the
    range of k_1 come from one maximum.  A prefix in that range may hold no
    offset (at h >= 3, say the end of one k_3 row of a tilted ellipsoid)
    and reach past every offset's |k_j|, yet its V_m is formed all the
    same, so max |k_j| for j >= 2 is taken over the table's prefixes, for
    the per-row factor test of :func:`_separable_log_sums`.  None where the
    table would not fit: more than 2P entries (a thin, tilted ellipsoid
    fills little of its bounding box), more than the kept-point cap leaves
    beside the P offsets, or more than ``_TABLE_BLOCK // 2`` (2^15) values
    of k_1 or prefixes, which would not fit a row of the work array even
    for a block of the two rows every block holds at least.
    """
    h, points = cols.shape
    held = np.flatnonzero(counts)
    first = int(held[0])
    k1 = float(np.maximum.reduce(cols[0]))
    shape = (2 * int(k1) + 1, int(held[-1]) - first + 1)
    if (shape[0] * shape[1] > min(2 * points, _WORK_CAP - points)
            or max(shape) > _TABLE_BLOCK // 2):
        return None
    # a copy: a view would keep the enumeration's whole level in the kernel cache
    prefixes = prefixes[:, first:first + shape[1], None].copy()
    reach = np.empty((h, 1))
    reach[0] = k1
    np.maximum.reduce(np.abs(prefixes), axis=1, out=reach[1:])
    weights = np.zeros(shape)
    weights[(cols[0] + k1).astype(np.intp),
            np.arange(-first, len(counts) - first).repeat(counts)] = np.exp(-quad)
    return _Separable(np.arange(-k1, k1 + 1)[:, None], prefixes, weights, reach)


def _table_work():
    """This thread's (3, ``_TABLE_BLOCK``) work array for separable sums.

    Made once per thread and reused: a new work array of this size would be
    mapped afresh by the allocator, and its pages faulted in, on every call.
    """
    work = getattr(_TABLE_WORK, "array", None)
    if work is None:
        work = _TABLE_WORK.array = np.empty((3, _TABLE_BLOCK))
    return work


def _separable_log_sums(g, f0, cols, quad, tables):
    """:func:`_log_sums` over the full lattice at h >= 2, in the separable form.

    Per row, U_a = exp(g_1 a) over the K1 values a of k_1 and V_m =
    exp(g_2 p_m2 + ... + g_h p_mh) over the M prefixes p_m, its exponent
    summed in index order; the sum is sum_m V_m sum_a A_am U_a, K1 + M
    exponentials where the direct sum takes one per offset.  ``g`` holds the
    rows' coordinates as rows (h, B).  A block takes
    ``_TABLE_BLOCK // max(K1, M)`` rows, so that U, V and the partial sums
    each fill at most one row of the thread's work array
    (:func:`_table_work`).  It forms the partial sums in one einsum and
    their products with V in one ``np.add.reduce``; both add over the
    leading axis in index order (a zero weight adds an exact zero), the same
    for every row of a block of two rows or more.  A block of one row would
    be summed in numpy's own order, so a lone row (a batch of one, or one
    past a whole block) is broadcast into two columns.  A 5000-row call is
    one block while the table has at most 13 values of k_1 and prefixes, as
    in all but 1 of the 879 separable wide calls of the seeded n_h = 2 fit;
    the 87 separable wide calls of the seeded n_h = 3 fit take tables of a
    median 7 x 61 for 273 offsets, about 1000 rows a block.

    A row whose sum over j of |g_j| max |k_j|, taken in index order, passes
    600 is summed by :func:`_log_sums` instead, whatever its kernel: |g_j|
    reaches 1/2 sum_l |Omega_jl| halfway between lattice points, and far
    from the origin rounding carries g further.  This test, which reads
    only the row's own g, alone decides whether a row's factors are safe;
    it is skipped where the same sum over the rows' largest |g_j|, formed
    in Python floats, is at most 600, which bounds every row's.
    """
    abs_g = np.abs(g)
    # every row passes where the rows' largest |g_j| pass, as rounding is monotone
    top = np.maximum.reduce(abs_g, axis=1, initial=0.0).tolist()
    reach = tables.reach[:, 0].tolist()
    bound = top[0] * reach[0]
    for j in range(1, len(top)):
        bound += top[j] * reach[j]
    if not bound <= _LOG_FACTOR_CAP:
        far = ~(_coords_inner(abs_g, tables.reach) <= _LOG_FACTOR_CAP)
        if far.any():
            out = np.empty(g.shape[1])
            out[far] = _log_sums(g[:, far], f0[far], cols, quad, None)
            near = ~far
            out[near] = _separable_log_sums(g[:, near], f0[near], cols, quad, tables)
            return out
    firsts, prefixes, weights, _ = tables
    (k1, m), nb = weights.shape, g.shape[1]
    step = _TABLE_BLOCK // max(k1, m)
    work = _table_work()
    out = np.empty(nb)
    for s in range(0, nb, step):
        blk = slice(s, s + step)
        rows = min(step, nb - s)
        n = max(rows, 2)     # a lone row is broadcast into two columns
        # U then V in one stretch of the first two rows, so one call takes
        # every exponential; the partial sums in the third
        uv = work[:2].reshape(-1)[:(k1 + m) * n]
        u, v = uv[:k1 * n].reshape(k1, n), uv[k1 * n:].reshape(m, n)
        acc = work[2, :m * n].reshape(m, n)
        np.multiply(prefixes[0], g[1, blk], out=v)
        for j in range(1, prefixes.shape[0]):
            v += np.multiply(prefixes[j], g[j + 1, blk], out=acc)
        np.multiply(firsts, g[0, blk], out=u)
        np.exp(uv, out=uv)
        np.einsum("an,am->mn", u, weights, out=acc)
        acc *= v
        total = np.add.reduce(acc, axis=0)
        np.log(total, out=total)
        np.add(f0[blk], total[:rows], out=out[blk])
    return out


def _own_terms(zs, omega, chol, nhat, reach, best, orthant):
    """Log-terms of each row's points within ``reach`` of its maximizer.

    Terms are expanded about ``best``, the row's rounded maximizer or, on
    the ``orthant``, its orthant point, where the sum's mass lies.  Returns
    ``(owner, points, logterms)`` grouped by row, the points (P, h) int64.
    """
    owner, points = _ellipsoid_points(chol, nhat, reach, orthant)[:2]
    points = points.T.astype(np.int64)
    b_omega = _coords_dot_rows(best.T, omega)
    f_best = -0.5 * np.einsum("bh,bh->b", b_omega, best) + np.einsum("bh,bh->b", best, zs)
    k = points - best[owner]
    terms = (f_best[owner] + np.einsum("ph,ph->p", (zs - b_omega)[owner], k)
             - 0.5 * np.einsum("ph,hl,pl->p", k, omega, k))
    return owner, points, terms


def _orthant_log_sums(zs, omega, chol, nhat, reach, best, bounds):
    """Per-row orthant log-sums of :func:`_own_terms`, in pieces under the work cap.

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
        owner, _, terms = _own_terms(zs[rows], omega, chol, nhat[rows],
                                     reach[rows], best[rows], orthant=True)
        out[rows] = _segment_log_sums(owner, terms, rows.stop - rows.start)
        start = rows.stop
    return out


def _segment_log_sums(owner, terms, count):
    """Log-sum-exp of ``terms`` per owner; owners ascending, each present."""
    starts = np.searchsorted(owner, np.arange(count))
    peak = np.maximum.reduceat(terms, starts)
    return peak + np.log(np.add.reduceat(np.exp(terms - peak[owner]), starts))


def sym(a):
    """Average a square matrix with its transpose, halving first so it cannot overflow."""
    half = 0.5 * a      # whose transpose is 0.5 * a.T, bit for bit
    return half + half.T


def _factor(s):
    """Lower Cholesky factor of a matrix ``s`` already exactly symmetric and
    finite, or None if it is not positive definite.

    LAPACK directly: scipy's la.cholesky wrapper costs about 8x the factorization.
    """
    chol, info = dpotrf(s, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return chol if info == 0 else None


def _min_eigenvalue(s):
    return float(la.eigvalsh(s)[0])


def _require(s, name):
    """:func:`_factor` of ``s``; NotPositiveDefiniteError naming ``name`` if none.

    The error's eigenvalue is computed only if it is read: a fit's objective
    scores the candidate +inf and never does.
    """
    chol = _factor(s)
    if chol is None:
        raise NotPositiveDefiniteError(f"{name} is not positive definite",
                                       min_eigenvalue=functools.partial(_min_eigenvalue, s))
    return chol


def spd_cholesky(a, name):
    """Lower Cholesky factor of ``a`` symmetrized by :func:`sym`, the one way
    to factor a matrix outside the theta kernel, such as a model's T; its Q
    and Schur matrix are factored by their kernels, which ``model.validate``
    prepares for the sums to reuse (at h >= 21 with a shared point bound past
    the work cap, so that no shared offset is enumerated).

    A non-finite ``a`` is a ValueError; one that is not positive definite
    is :func:`_require`'s NotPositiveDefiniteError naming ``name``.
    """
    s = sym(np.asarray(a, dtype=float))
    if not np.isfinite(s).all():
        raise ValueError("array must not contain infs or NaNs")
    return _require(s, name)


def _cholesky_inverse(chol):
    """Omega^-1 from the lower Cholesky factor of Omega (LAPACK ``dpotri``).

    ``dpotri`` writes the inverse's lower triangle over a copy of the factor
    and leaves its upper triangle, zero in the factors :func:`_factor`
    returns, so adding the transpose mirrors the lower triangle and doubles
    only the diagonal, which is then put back.
    """
    lower, _ = dpotri(chol, lower=1)
    inv = lower + lower.T
    inv.flat[::inv.shape[0] + 1] = lower.flat[::inv.shape[0] + 1]
    return inv


@functools.cache
def _first_sign_weights(h):
    """(3^(h-1), ..., 3, 1), whose dot product with the signs of k has the sign of k's first
    nonzero entry: each weight exceeds the sum of those after it, and the sum,
    an integer below 3^h, is exact in any order of summation."""
    return 3.0 ** np.arange(h - 1, -1, -1)


@functools.cache
def _cube_signs(h):
    """The (2^h, h) signs of the corners of the cube [-1, 1]^h, corner i
    taking -1 at each set bit of i; read-only, formed for h <= 16 only."""
    signs = 1.0 - 2.0 * ((np.arange(2 ** h)[:, None] >> np.arange(h)) & 1)
    signs.setflags(write=False)
    return signs


def _rho_half(omega):
    """rho_half, at least max |L^T u| over the corners u of the half-cube
    [-1/2, 1/2]^h: half the square root of the largest c^T Omega c over the
    sign vectors c.

    At h <= 16 it is that maximum, over the kept :func:`_cube_signs`.  Above,
    it is the O(h^2) bound 0.5 sqrt(sum_ij |Omega_ij|), which is at least the
    maximum and equal to it for a diagonal Omega.  Either way each factor
    min(2r / L_ii, s_i) + 1 of :func:`_point_bounds` exceeds 2, as r > rho_half,
    2 rho_half >= sqrt(tr Omega) >= L_ii and 2 rho_half sqrt((Omega^-1)_ii) >= 1,
    so the shared point bound exceeds 2^h, past the work cap from h = 21 on.
    """
    h = omega.shape[0]
    if h > 16:
        return 0.5 * math.sqrt(np.abs(omega).sum())
    c = _cube_signs(h)
    return 0.5 * math.sqrt(np.maximum.reduce(np.einsum("ch,hl,cl->c", c, omega, c)))


class _Dual(NamedTuple):
    """The dual form of a sum over the full lattice."""

    omega: np.ndarray    # Omega' = 4 pi^2 Omega^-1
    chol: np.ndarray     # its lower Cholesky factor L'
    radius: float        # certified radius of the dual offsets
    bound: float         # bound on their point count, below the work cap
    log_scale: float     # log of (2 pi)^{h/2} det(Omega)^{-1/2}


def _off_origin_bound(lengths_sq):
    """Upper bound on the off-origin mass s of a dual sum, from its pivots.

    Given its later coordinates, the sum over each k_i is a shifted 1-D
    theta sum, at most its unshifted value 1 + 2 sum_{n>=1} q_i^{n^2} <=
    1 + 2 q_i / (1 - q_i^3), q_i = exp(-L'_ii^2 / 2); s is at most the
    product of these, less one.  The bound falls as the ``lengths_sq``
    L'_ii^2, a list of floats, grow.
    """
    bound = 1.0
    for length_sq in lengths_sq:
        bound *= 1.0 + 2.0 * math.exp(-0.5 * length_sq) / -math.expm1(-1.5 * length_sq)
    return bound - 1.0


def _dual_form(omega, omega_inv):
    """The :class:`_Dual` of a full-lattice sum, or None where it cannot be used.

    The dual weights exp(-k^T Omega' k / 2) are the primal terms of Omega'
    at z = 0, so :func:`_certified_radius` bounds their omitted mass by
    EPS / 2.  The dual can be used only when :func:`_off_origin_bound` is at
    most 1/2, so that the cosine sum is at least 1/2 and the relative error
    at most EPS, and when its point bound is below the cap; the kernel
    compares that bound with the primal's.
    """
    # L'_ii^2 <= Omega'_ii, so the diagonal rejects before anything is formed or factored
    if _off_origin_bound([_DUAL_SCALE * d for d in omega_inv.diagonal().tolist()]) > 0.5:
        return None
    dual = _DUAL_SCALE * omega_inv
    if not np.isfinite(dual).all():
        return None
    chol = _factor(dual)     # exactly symmetric, as Omega^-1 is
    if chol is None:
        return None
    pivots = chol.diagonal()
    if _off_origin_bound([p * p for p in pivots.tolist()]) > 0.5:
        return None
    radius = _certified_radius(pivots, _LOG_EPS - _LOG_2)
    spans = [2.0 * radius * math.sqrt(d) / (2.0 * math.pi) for d in omega.diagonal().tolist()]
    bound = _point_bounds(pivots, radius, spans)
    if bound >= _WORK_CAP:
        return None
    # det Omega' = (2 pi)^{2h} / det Omega
    log_scale = np.add.reduce(np.log(pivots)) - 0.5 * pivots.size * _LOG_2PI
    return _Dual(dual, chol, radius, bound, log_scale)


def _dual_log_sums(nhat, cols, weights):
    """Per-row log of sum_k w_k cos(2 pi k.nhat) over the dual offsets.

    ``cols`` holds k = 0 and one of each pair +-k column-wise, ``weights``
    their weights, doubled off the origin.  The phase x = k.nhat is
    accumulated one coordinate at a time and reduced to [-1/2, 1/2]; the
    cosine is then cos(2 pi x) = (1 - t^2) / (1 + t^2) = 2 / (1 + t^2) - 1
    with t = tan(pi x), formed in place in the block by a square, an add, a
    divide and a subtract after the tangent (which numpy vectorizes where
    it does not vectorize cos; see the module docstring).  It agrees with
    ``np.cos`` to within 3.4e-16 absolute over [-1/2, 1/2]; at x = +-1/2,
    t is about +-1.6e16, t^2 stays finite and the cosine is exactly -1,
    with no float error.  Rows are taken in blocks of about ``_BLOCK``
    row-point pairs and each is summed on its own, and every step is
    elementwise, so a row's sum does not depend on its batch.
    """
    out = np.empty(nhat.shape[1])
    step = max(1, _BLOCK // cols.shape[1])
    for s in range(0, nhat.shape[1], step):
        blk = slice(s, s + step)
        phase = _coords_dot_rows(nhat[:, blk], cols)
        phase -= np.rint(phase)
        phase *= np.pi
        np.tan(phase, out=phase)
        np.square(phase, out=phase)
        phase += 1.0
        np.divide(2.0, phase, out=phase)
        phase -= 1.0
        phase *= weights
        np.log(np.add.reduce(phase, axis=1), out=out[blk])
    return out


class _Kernel:
    """What a sum needs that depends only on Omega and the lattice.

    Holds the Cholesky factor, Omega^-1, the certified radius of the shared
    primal ellipsoid and the bound on its point count (computed when first
    read), and the one form its rows are summed in: on the full lattice the
    dual (:func:`_dual_form`) where it is cheaper, and otherwise the
    primal, with separable tables (:func:`_separable`) where they apply.
    A dual kernel whose bound is below a lower bound on the primal's never
    computes the primal radius and bound: its collected row (which stays
    primal) bounds its own ellipsoid, and reads neither.
    The form's offsets (:meth:`shared_points`) are kept, read-only, from
    their second use on: a matrix summed once, like each candidate of a
    fit, holds no points, and its arrays are freed as an uncached call's
    would be.
    Raises NotPositiveDefiniteError if Omega is not positive definite.
    """

    def __init__(self, omega, lattice):
        self.omega = omega
        self.chol = _require(omega, "omega")     # omega is symmetrized and finite
        self.omega_inv = _cholesky_inverse(self.chol)
        self.pivots = self.chol.diagonal()
        # sqrt((Omega^-1)_ii), the extent along n_i of the ellipsoid of radius 1
        self.widths = [math.sqrt(d) for d in self.omega_inv.diagonal().tolist()]
        self.dual = None
        if lattice is Lattice.FULL:
            dual = _dual_form(omega, self.omega_inv)
            # The primal bound rises with rho_half, which is at least
            # sqrt(tr Omega) / 2 (the mean of c^T Omega c over the sign vectors
            # c is tr Omega), and the radius is at least sqrt(-2 log_rel) +
            # rho_half; a dual bound below the primal bound there (rho_half
            # shaved by 1e-9 against rounding) is below the primal's, which is
            # then not computed.
            if dual is not None:
                rho = 0.5 * (1.0 - 1e-9) * math.sqrt(np.add.reduce(self.omega.diagonal()))
                floor = math.sqrt(-2.0 * (_LOG_EPS - 0.5 * rho ** 2)) + rho
                if (dual.bound < _point_bounds(self.pivots, floor,
                                               [2.0 * floor * w for w in self.widths])
                        or dual.bound < self.bound):
                    self.dual = dual
        self.lattice = lattice
        self.kept = None
        self.used = False
        self.points = 0     # offsets and separable weights kept

    @functools.cached_property
    def radius(self):
        """Radius R + rho_half of the shared primal offsets.

        Every row's sum is at least its term at the rounded maximizer, which
        lies within rho_half (:func:`_rho_half`) of it; enumerating
        |L^T k| <= R + rho_half about the centre therefore covers each row's
        own ellipsoid |L^T (n - nhat)| <= R.
        """
        rho_half = _rho_half(self.omega)
        return _certified_radius(self.pivots, _LOG_EPS - 0.5 * rho_half ** 2) + rho_half

    @functools.cached_property
    def bound(self):
        """Bound on the count of the shared primal offsets."""
        return _point_bounds(self.pivots, self.radius, [2.0 * self.radius * w for w in self.widths])

    def shared_points(self):
        """The offsets k column-wise: with their weights in the dual form, or
        with k^T Omega k / 2 and the :class:`_Separable` tables (or None) in
        the primal form."""
        if self.kept is not None:
            return self.kept
        h = self.omega.shape[0]
        form = self if self.dual is None else self.dual
        # about the origin the enumeration's |L^T k|^2 is k^T Omega k (of Omega' in the dual)
        _, cols, sq, counts, prefixes = _ellipsoid_points(form.chol, np.zeros((1, h)),
                                                          np.array([form.radius]))
        tables = None
        if self.dual is not None:
            # k = 0 and, of each pair +-k, the one whose first nonzero entry is positive
            first = _first_sign_weights(h) @ np.sign(cols)
            keep = first >= 0
            # compress keeps the rows C-contiguous (cols[:, keep] would not), and
            # with them each block's (rows x points) product, which is summed per row
            kept = (cols.compress(keep, axis=1),
                    (np.where(first > 0, 2.0, 1.0) * np.exp(sq * -0.5)).compress(keep))
        else:
            quad = sq
            quad *= 0.5
            if self.lattice is Lattice.FULL and h > 1:
                tables = _separable(cols, quad, counts, prefixes)
            kept = (cols, quad, tables)
        if not self.used:
            self.used = True
            return kept
        if self.dual is None:       # views: copies keep only their rows of the last level
            kept = (cols.copy(), quad.copy(), tables)
        for a in (*kept[:2], *(tables or ())):
            a.setflags(write=False)
        self.kept = kept
        self.points = kept[0].shape[1] + (tables.weights.size if tables else 0)
        with _KERNELS_LOCK:      # least recently used first, until the points fit
            while sum(k.points for k in _KERNELS.values()) > _WORK_CAP:
                _KERNELS.popitem(last=False)
        return kept


def _kernel(omega, lattice):
    """The prepared kernel for (Omega, lattice), from the cache or new."""
    key = (omega.tobytes(), omega.shape, lattice)
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is not None:
            _KERNELS.move_to_end(key)
            return kernel
    omega = sym(omega)          # keyed by the caller's bytes, summed symmetrized
    omega.setflags(write=False)
    kernel = _Kernel(omega, lattice)
    with _KERNELS_LOCK:
        _KERNELS[key] = kernel
        if len(_KERNELS) > _KERNEL_CAP:
            _KERNELS.popitem(last=False)
    return kernel


def log_theta_many(zs, omega, lattice=Lattice.FULL, collect_terms=False):
    """Evaluate log tilde-theta for a batch of arguments sharing one Omega.

    Parameters
    ----------
    zs : (B, h) array of argument vectors.
    omega : (h, h) matrix whose symmetric part (Omega + Omega^T) / 2, the
        matrix that is summed, is positive definite.
    lattice : which lattice to sum over.
    collect_terms : if True (batch size 1 only), also return the lattice
        points of the row's own certified ellipsoid and their log-terms, for
        mixture-weight extraction.

    Returns
    -------
    (B,) array of log-sums, each to the relative tolerance ``EPS``, or
    ``(logsum, points, logterms)`` when ``collect_terms`` is set.

    Raises
    ------
    NotPositiveDefiniteError
        If the symmetric part of omega is not positive definite.
    ThetaTruncationError
        If certifying ``EPS`` needs more lattice points than the work cap
        in the form used (the primal one when the dual is not certified or
        not cheaper); this is checked before the points are allocated, and
        the sum is never silently truncated.
    ValueError
        If an argument is not finite, omega is not square, or ``zs`` is not
        (B, h) for omega's size h.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or zs.ndim != 2 or not zs.shape[1] == omega.shape[0] == omega.shape[1]:
        raise ValueError(f"zs {zs.shape} and omega {omega.shape} are not (B, h) and (h, h)")
    lattice = Lattice(lattice)
    if collect_terms and zs.shape[0] != 1:
        raise ValueError("collect_terms requires a single argument vector")
    if not (np.isfinite(zs).all() and np.isfinite(omega).all()):
        raise ValueError("theta arguments must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_theta_rows(np.ascontiguousarray(zs.T), omega, lattice, collect_terms)


def _log_theta_rows(z, omega, lattice, collect_terms=False):
    """:func:`log_theta_many` of the C-contiguous coordinate rows ``z`` (h, B),
    unchecked: ``z`` and ``omega`` (h, h) finite, ``lattice`` a Lattice.

    Its callers run it under ``np.errstate(over="ignore", invalid="ignore")``,
    entered once per public call: a far argument, or the Omega^-1 of a
    nearly singular Omega, can overflow in the set-up; the bounds reject
    such a matrix, and the callers judge the rows.  On the full lattice
    without ``collect_terms`` every row shares the kernel's offsets and its
    one bound, so such a call goes from the set-up straight to the shared
    sums, with no per-row bound or row selection."""
    kernel = _kernel(omega, lattice)
    omega, chol = kernel.omega, kernel.chol
    nb = z.shape[1]

    # The set-up reads each coordinate as one contiguous row of B values and
    # sums over the coordinates in index order (_coords_dot, _coords_inner),
    # one length-B operation per coordinate.  No BLAS and no reduction over
    # the short axis, whose order depends on the batch or the CPU's vector
    # width, so a row's sum does not depend on the other rows of its batch.
    nhat = _coords_dot(z, kernel.omega_inv)         # continuous maximizer
    if kernel.dual is not None and not collect_terms:   # its bound is under the cap
        return (kernel.dual.log_scale + 0.5 * _coords_inner(z, nhat)
                + _dual_log_sums(nhat, *kernel.shared_points()))
    # f(centre + k) = f0 + k.(z - Omega centre) - k^T Omega k / 2, with
    # f0 = -centre.(Omega centre) / 2 + centre.z: Omega centre and z are
    # formed side by side, so that one product and h - 1 sums over the
    # coordinates, in index order, give both inner products
    centre = np.rint(nhat)
    pair = np.empty((2,) + z.shape)
    c_omega = _coords_dot(centre, omega, out=pair[0])
    g = z - c_omega
    pair[1] = z
    pair *= centre
    inner = pair[:, 0]
    for j in range(1, z.shape[0]):
        inner += pair[:, j]
    f0 = -0.5 * inner[0] + inner[1]
    orthant = lattice is Lattice.NONNEG
    if not (orthant or collect_terms):
        # every row shares the kernel's offsets and its one bound
        if kernel.bound > _WORK_CAP:
            _raise_truncation(nb, nb, kernel.bound, omega)
        return _shared_log_sums(kernel, g, f0, None)
    # The collected row and, on the orthant, a row whose rounded maximizer
    # lies outside it (own: a flag per row, or one for all) sum their own
    # ellipsoid, certified by their term at the rounded maximizer or at an
    # orthant point found by coordinate ascent.  The other rows share the
    # kernel's offsets and its one bound, read only if there is such a row.
    own = (centre < 0).any(axis=0) | collect_terms if orthant else collect_terms
    rows = np.flatnonzero(own)
    bounds = kernel.bound if rows.size < nb else 0.0
    if rows.size:
        # (rows, h) copies in row order, the layout _ellipsoid_points enumerates in
        zs_own, nhat_own, best = (a[:, rows].T.copy() for a in (z, nhat, centre))
        if orthant:
            best = _orthant_ascent(zs_own, omega, np.maximum(best, 0.0))
        u = nhat_own - best
        dist = np.sqrt(np.einsum("bh,hl,bl->b", u, omega, u))
        reach = np.maximum(_certified_radius(kernel.pivots, _LOG_EPS - 0.5 * dist ** 2),
                           dist)        # radius of each row's own points
        upper = nhat_own + reach[:, None] * kernel.widths
        lower = np.maximum(nhat_own - reach[:, None] * kernel.widths,
                           0.0 if orthant else -np.inf)
        bounds = np.full(nb, bounds)
        bounds[rows] = _point_bounds(kernel.pivots, reach, upper - lower)
    failed = np.greater(bounds, _WORK_CAP)  # an array, or one flag for every row
    if failed.any():
        _raise_truncation(int(failed.sum()) if failed.ndim else nb, nb, np.max(bounds), omega)
    if collect_terms:
        owner, points, terms = _own_terms(zs_own, omega, chol, nhat_own, reach, best, orthant)
        return _segment_log_sums(owner, terms, 1), points, terms

    result = np.empty(nb)
    if rows.size:
        result[rows] = _orthant_log_sums(zs_own, omega, chol, nhat_own, reach, best,
                                         bounds[rows])
    if rows.size < nb:
        shared = np.flatnonzero(~own) if rows.size else slice(None)
        result[shared] = _shared_log_sums(kernel, g[:, shared], f0[shared],
                                          centre[:, shared] if orthant else None)
    return result


def _shared_log_sums(kernel, g, f0, centre):
    """The primal sums of rows over the kernel's shared offsets: separable where
    it has tables (the full lattice), else direct, masked by the rows' lattice
    ``centre`` on the orthant (None on the full lattice)."""
    cols, quad, tables = kernel.shared_points()
    if tables is None:
        return _log_sums(g, f0, cols, quad, centre)
    return _separable_log_sums(g, f0, cols, quad, tables)


def _raise_truncation(failed, nb, bound, omega):
    """ThetaTruncationError: ``failed`` of ``nb`` sums need up to ``bound`` points."""
    raise ThetaTruncationError(
        f"{failed} of {nb} lattice sums not converged: eps={EPS:g} needs up to "
        f"{bound:.4g} lattice points, above the work cap of {_WORK_CAP} "
        f"(min eigenvalue {_min_eigenvalue(omega):.6g})")
