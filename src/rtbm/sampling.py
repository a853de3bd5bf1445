"""Exact RTBM sampling via the Gaussian-mixture view, and histogram tools.

The visible density is an infinite Gaussian mixture indexed by the hidden
lattice: component n has weight proportional to
exp(-n^T (Q - W^T T^-1 W) n / 2 + (bh - W^T T^-1 bv)^T n), mean
T^-1 (W n - bv) and covariance T^-1.  The hidden states are the lattice
points of the normalizer argument's own certified ellipsoid, which the
theta kernel enumerates about its maximizer (``collect_terms``); their
omitted mass is below the relative tolerance 1e-12 of every theta sum,
so sampling is inverse-CDF over a finite categorical plus one Gaussian
draw.

The draw table (the inverse-CDF ``cdf``, the K component means and, past
``MAX_COUNTED_STATES`` states, a bucket index of ``cdf``) is built on a
model's first draw and kept in ``params.memo``, so repeated draws from one
model pay for the hidden states and the K mean solves once; a repeated
conditioning request returns the parent's kept child (``density._child``),
so its table is reused too.  A draw's hidden state is the count of ``cdf``
entries <= its uniform, the integer ``np.searchsorted(cdf, u,
side="right")`` gives: up to ``MAX_COUNTED_STATES`` (32) states it is
counted by one comparison per state, past that read from the bucket index
(:func:`_buckets`, the guide table of Chen and Asau, "On generating random
variates from an empirical distribution", AIIE Trans. 6 (1974) 163-166),
which searches only the draws whose bucket holds a ``cdf`` entry.

A call makes its uniforms, hidden states and gathered means one block of
``_BLOCK`` (2^14) draws at a time, in block-sized memory that the cache
holds and the allocator does not fault in anew: beside the returned draws,
only the state index (the smallest unsigned integer that holds K - 1, one
byte per draw up to 256 states) is as long as the call.  Two things stay
whole.  The normal noise is drawn by one ``standard_normal`` call into the
returned array itself, so blocking it would save no memory; and it is
solved by one LAPACK triangular solve over the whole array, because a
per-block solve rounds a short last block differently and would move
seeded draws.  The generator consumes the same stream in the same order
(``Generator.random`` split into consecutive calls gives the same
doubles), so every draw keeps its bytes.  Counting a few states in
blocks, and reading many from a bucket index of which under 1% is
searched, each take a fraction of the search's time.

Randomness: numpy's PCG64 via ``default_rng(seed)``; per-run substreams
are derived with ``SeedSequence.spawn``.  Results depend only on
(seed, count), never on thread count (draws are single-stream).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .density import _draw_request, _index, as_points, free_coordinates
from .errors import InsufficientSamplesError
from .model import RtbmParams, _cho_solve, _theta_over_schur
from .theta import log_theta_many

RNG_NAME = "numpy PCG64 (default_rng), substreams via SeedSequence.spawn"
MAX_COUNTED_STATES = 32     # most hidden states whose index is counted (in a uint8), not searched
MAX_BUCKETS = 1 << 16       # most buckets of a draw table's index
_BLOCK = 1 << 14            # draws whose uniforms, states and means are made at a time


@dataclass(frozen=True, eq=False)
class HiddenDistribution:
    """Truncated categorical over hidden lattice states.

    ``log_weights`` are normalized (their log-sum-exp is zero).
    """

    points: np.ndarray       # (K, n_h) int64
    log_weights: np.ndarray  # (K,)


def hidden_distribution(params: RtbmParams) -> HiddenDistribution:
    """Hidden-state probabilities over the normalizer argument's own certified ellipsoid."""
    total, points, terms = _theta_over_schur(params, log_theta_many, params.z_schur[None, :],
                                             collect_terms=True)
    log_w = terms - total[0]
    order = np.lexsort(points.T[::-1])  # deterministic point order
    points = points[order]
    log_w = log_w[order]
    points.setflags(write=False)
    log_w.setflags(write=False)
    return HiddenDistribution(points=points, log_weights=log_w)


def _draw_table(params: RtbmParams) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The inverse-CDF ``cdf`` (K,), the component means (K, n_v) and, past
    ``MAX_COUNTED_STATES`` states, the bucket index of ``cdf``
    (:func:`_buckets`) of ``params``, built on first use and kept in its memo."""
    memo = params.memo
    if "draw_table" not in memo:
        hidden = hidden_distribution(params)
        cdf = np.cumsum(np.exp(hidden.log_weights))
        cdf[-1] = max(cdf[-1], 1.0)
        # one mean per hidden state, gathered per draw
        means = _cho_solve(params.chol_t, (params.w @ hidden.points.T) - params.bv[:, None]).T
        lo = _buckets(cdf)
        for a in (cdf, means, lo):
            if a is not None:
                a.setflags(write=False)
        memo["draw_table"] = (cdf, means, lo)
    return memo["draw_table"]


def _buckets(cdf: np.ndarray) -> np.ndarray | None:
    """The guide table of ``cdf`` (Chen and Asau 1974), or None for at most
    ``MAX_COUNTED_STATES`` entries, whose states are counted.

    ``lo[g]`` is the count of entries <= g / G for g = 0..G + 1: the lower
    edges of the G buckets [g / G, (g + 1) / G) of [0, 1), and of one more,
    so that u = 1 falls in a bucket too.  G is 4K rounded up to a power of
    two, at most ``MAX_BUCKETS``, so that g / G and a draw's u * G are exact.
    """
    if cdf.shape[0] <= MAX_COUNTED_STATES:
        return None
    n_buckets = min(1 << (4 * cdf.shape[0] - 1).bit_length(), MAX_BUCKETS)
    return np.searchsorted(cdf, np.arange(n_buckets + 2) / n_buckets, side="right")


def _state_index(cdf: np.ndarray, u: np.ndarray, lo: np.ndarray | None) -> np.ndarray:
    """The count of entries of the non-decreasing ``cdf`` that are <= each ``u``
    in [0, 1], given the bucket index ``lo = _buckets(cdf)``.

    This is ``np.searchsorted(cdf, u, side="right")``.  Without an index
    (up to ``MAX_COUNTED_STATES`` entries) the count is summed in a uint8
    from one comparison per entry.  With one, it is the count at the lower
    edge g / G <= u of u's bucket, unless an entry lies in the bucket
    (``lo[g] != lo[g + 1]``); only those ``u`` are searched.
    """
    if lo is not None:
        bucket = (u * (lo.shape[0] - 2)).astype(np.intp)
        idx = lo[bucket]
        split = np.flatnonzero(idx != lo[1:][bucket])
        idx[split] = np.searchsorted(cdf, u[split], side="right")
        return idx
    idx = np.zeros(u.shape[0], dtype=np.uint8)
    at_or_past = np.empty(u.shape[0], dtype=bool)
    for c in cdf.tolist():
        np.greater_equal(u, c, out=at_or_past)
        idx += at_or_past
    return idx


def sample_visible(params: RtbmParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` visible configurations, deterministic per seed.

    Hidden states by inverse CDF over the truncated weights, then the
    Gaussian component through the inverse transpose Cholesky factor of T
    (T itself is factored; T^-1 is never formed).  The cdf and the K
    component means are kept on the model (``_draw_table``), so only a
    model's first draw builds them.  Each hidden state is the exact count of
    cdf entries <= its uniform: by comparisons for at most
    ``MAX_COUNTED_STATES`` states, else from the table's bucket index and
    ``np.searchsorted`` (:func:`_state_index`); the integer is the same.
    The uniforms and states are made one block of ``_BLOCK`` draws at a
    time; then the noise of all draws is drawn into the returned array and
    solved in place by one LAPACK solve, and each block's means are
    gathered into a block buffer and added to its rows.  IEEE addition
    commutes, so each draw is bit for bit ``means[idx] + solve``.  The
    solve stays LAPACK's and whole: a per-coordinate back-substitution in
    numpy, or a solve per block, rounds differently and would move seeded
    draws.  A ``count`` that is not an integer of at least 1, or a negative
    integer ``seed``, is a ValueError that names it.
    """
    count = _draw_request(count, seed)
    cdf, means, lo = _draw_table(params)
    rng = np.random.default_rng(seed)
    block = min(count, _BLOCK)
    # Generator.random split into consecutive calls gives the same doubles
    # as one call; a state is at most K - 1, as cdf[-1] >= 1 > u
    u = np.empty(block)
    idx = np.empty(count, dtype=np.min_scalar_type(cdf.shape[0] - 1))
    for start in range(0, count, block):
        u_block = u[:count - start]
        rng.random(out=u_block)
        idx[start:start + block] = _state_index(cdf, u_block, lo)
    noise = rng.standard_normal((count, params.n_v))
    # chol_t is checked finite once per model, and fresh normal draws are finite
    draws = la.solve_triangular(params.chol_t.T, noise.T, lower=False,
                                check_finite=False, overwrite_b=True).T
    gathered = np.empty((block, params.n_v))
    for start in range(0, count, block):
        rows = draws[start:start + block]
        means_block = gathered[:rows.shape[0]]
        # every state is in range; "clip" writes to out without a buffered copy
        np.take(means, idx[start:start + block], axis=0, out=means_block, mode="clip")
        rows += means_block
    return draws


@dataclass(frozen=True, eq=False)
class Histogram:
    """1D or 2D density histogram with bin edges, density and raw counts.

    Density is normalized so the Riemann sum over bins equals one.
    """

    edges: tuple[np.ndarray, ...]
    density: np.ndarray
    counts: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.edges)

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(0.5 * (e[1:] + e[:-1]) for e in self.edges)


def _resolve_edges(data_column, spec):
    if np.ndim(spec) > 0:
        edges = np.asarray(spec, dtype=float)
        if edges.ndim != 1 or edges.shape[0] < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit edges must be strictly increasing")
        return edges
    nbins = 60 if spec is None else _index(spec, "bins")
    if nbins < 1:
        raise ValueError(f"bins must be at least 1, got {nbins}")
    lo, hi = np.percentile(data_column, [0.5, 99.5])
    if hi <= lo:
        raise ValueError("degenerate bin range")
    return np.linspace(lo, hi, nbins + 1)


def make_histogram(samples, bins=None) -> Histogram:
    """Histogram 1D or 2D samples; bins = per-dim count, edges, or None.

    ``None`` means 60 bins per axis over the central 99% sample range.  A
    count that is not an integer of at least 1, or a per-dim list whose
    length is not the dimension count, is a ValueError naming ``bins``.
    """
    samples = as_points(samples)
    if samples.shape[1] not in (1, 2):
        raise ValueError("histograms support 1 or 2 dimensions")
    if samples.shape[0] == 0:
        raise ValueError("no samples to histogram")
    ndim = samples.shape[1]
    if bins is None or np.ndim(bins) == 0:
        bins = [bins] * ndim
    if len(bins) != ndim:
        raise ValueError(f"bins has {len(bins)} item(s) for {ndim} dimension(s)")
    edges = tuple(_resolve_edges(samples[:, i], bins[i]) for i in range(ndim))
    counts, _ = np.histogramdd(samples, bins=edges)
    inside = counts.sum()
    if inside == 0:
        raise ValueError("no samples fall inside the bin range")
    widths = [np.diff(e) for e in edges]
    volume = widths[0] if ndim == 1 else np.outer(widths[0], widths[1])
    density = counts / (inside * volume)
    return Histogram(edges=edges, density=density, counts=counts.astype(np.int64))


def empirical_conditional(samples, cond_indices, cond_values,
                          window=0.05, bins=None) -> Histogram:
    """Windowed-slice estimate of a conditional density.

    Checks the request with :func:`rtbm.density.free_coordinates`, keeps
    rows with |sample[idx] - value| <= window at each conditioned index, and
    histograms the one or two free coordinates.  Needs 100 surviving rows.
    A ``window`` that is not a positive finite number is a ValueError naming it.
    """
    samples = as_points(samples)
    fixed, values, free = free_coordinates(cond_indices, cond_values, samples.shape[1])
    if not (isinstance(window, numbers.Real) and window > 0 and np.isfinite(window)):
        raise ValueError(f"window must be positive and finite, got {window}")
    mask = np.ones(samples.shape[0], dtype=bool)
    for i, val in zip(fixed, values):
        mask &= np.abs(samples[:, i] - val) <= window
    kept = samples[mask]
    if kept.shape[0] < 100:
        raise InsufficientSamplesError(
            f"insufficient conditioned sample: {kept.shape[0]} rows inside "
            f"the window (need at least 100)")
    return make_histogram(kept[:, free], bins=bins)
