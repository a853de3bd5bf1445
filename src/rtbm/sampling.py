"""Exact RTBM sampling via the Gaussian-mixture view, and histogram tools.

The visible density is an infinite Gaussian mixture indexed by the hidden
lattice: component n has weight proportional to
exp(-n^T (Q - W^T T^-1 W) n / 2 + (bh - W^T T^-1 bv)^T n), mean
T^-1 (W n - bv) and covariance T^-1.  The hidden states are the lattice
points of the normalizer argument's own certified ellipsoid, which the
theta kernel enumerates about its maximizer (``collect_terms``); their
omitted mass is below the package's relative tolerance
``theta.DEFAULT_EPS`` (1e-12), so sampling is inverse-CDF over a finite
categorical plus one Gaussian draw.

Randomness: numpy's PCG64 via ``default_rng(seed)``; per-run substreams
are derived with ``SeedSequence.spawn``.  Results depend only on
(seed, count), never on thread count (draws are single-stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import InsufficientSamplesError
from .model import RtbmParams
from .theta import DEFAULT_EPS, log_theta_many

RNG_NAME = "numpy PCG64 (default_rng), substreams via SeedSequence.spawn"


@dataclass(frozen=True)
class HiddenDistribution:
    """Truncated categorical over hidden lattice states.

    ``log_weights`` are normalized (their log-sum-exp is zero).
    """

    points: np.ndarray       # (K, n_h) int64
    log_weights: np.ndarray  # (K,)


def hidden_distribution(params: RtbmParams) -> HiddenDistribution:
    """Hidden-state probabilities over the normalizer argument's own certified ellipsoid."""
    total, points, terms = log_theta_many(
        params.z_schur[None, :], params.schur, params.lattice, DEFAULT_EPS,
        collect_terms=True)
    log_w = terms - total[0]
    order = np.lexsort(points.T[::-1])  # deterministic point order
    points = points[order]
    log_w = log_w[order]
    points.setflags(write=False)
    log_w.setflags(write=False)
    return HiddenDistribution(points=points, log_weights=log_w)


def sample_visible(params: RtbmParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` visible configurations, deterministic per seed.

    Hidden states by inverse CDF over the truncated weights, then the
    Gaussian component through the inverse transpose Cholesky factor of T
    (T itself is factored; T^-1 is never formed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    hidden = hidden_distribution(params)
    weights = np.exp(hidden.log_weights)
    cdf = np.cumsum(weights)
    cdf[-1] = max(cdf[-1], 1.0)

    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")

    chol_t = params.chol_t
    # one mean per hidden state, gathered per draw
    means = la.cho_solve((chol_t, True),
                         (params.w @ hidden.points.T) - params.bv[:, None]).T
    noise = rng.standard_normal((count, params.n_v))
    # chol_t is checked finite once per model, and fresh normal draws are finite
    return means[idx] + la.solve_triangular(chol_t.T, noise.T, lower=False,
                                            check_finite=False).T


@dataclass(frozen=True)
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
    nbins = 60 if spec is None else int(spec)
    lo, hi = np.percentile(data_column, [0.5, 99.5])
    if hi <= lo:
        raise ValueError("degenerate bin range")
    return np.linspace(lo, hi, nbins + 1)


def make_histogram(samples, bins=None) -> Histogram:
    """Histogram 1D or 2D samples; bins = per-dim count, edges, or None.

    ``None`` means 60 bins per axis over the central 99% sample range.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.ndim != 2 or samples.shape[1] not in (1, 2):
        raise ValueError("histograms support 1 or 2 dimensions")
    ndim = samples.shape[1]
    if bins is None or np.ndim(bins) == 0:
        bins = [bins] * ndim
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

    Keeps rows with |sample[idx] - value| <= window for every conditioned
    index, then histograms the remaining coordinate(s).  Requires at least
    100 surviving rows.
    """
    samples = np.asarray(samples, dtype=float)
    cond_indices = [int(i) for i in cond_indices]
    cond_values = np.asarray(cond_values, dtype=float).reshape(len(cond_indices))
    if window <= 0:
        raise ValueError("window must be positive")
    mask = np.ones(samples.shape[0], dtype=bool)
    for i, val in zip(cond_indices, cond_values):
        mask &= np.abs(samples[:, i] - val) <= window
    kept = samples[mask]
    if kept.shape[0] < 100:
        raise InsufficientSamplesError(
            f"insufficient conditioned sample: {kept.shape[0]} rows inside "
            f"the window (need at least 100)")
    free = [i for i in range(samples.shape[1]) if i not in cond_indices]
    return make_histogram(kept[:, free], bins=bins)
