"""Brute-force references that the tests check the package against.

A theta sum by exhaustive enumeration, which shares no code with the
certified sums, and a trapezoid marginal of the RTBM joint, which shares
none with the closed-form marginal.
"""

import numpy as np
from scipy.special import logsumexp

from rtbm.density import log_pdf_many
from rtbm.errors import RtbmError
from rtbm.model import RtbmParams
from rtbm.theta import Lattice

_REFERENCE_POINT_CAP = 10**8


class GridError(RtbmError):
    """A quadrature or evaluation grid is unusable (e.g. heavy edge mass)."""


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


def quadrature_marginal(params: RtbmParams, m: int, d, grid,
                        edge_tol=1e-10) -> float:
    """Trapezoid estimate of log P(d), marginalizing the leading m coords.

    ``grid`` is a sequence of (lo, hi, nodes) per free dimension, m <= 2.
    Fails loudly when the integrand carries more than ``edge_tol`` of the
    integral on the grid boundary (grid too small).
    """
    if not 0 < m < params.n_v:
        raise ValueError(f"m must be in (0, {params.n_v}), got {m}")
    if m > 2:
        raise ValueError("quadrature oracle supports m <= 2 only")
    grid = list(grid)
    if len(grid) != m:
        raise ValueError(f"need {m} grid specs, got {len(grid)}")
    axes, log_weights = [], []
    for lo, hi, nodes in grid:
        if nodes < 101:
            raise ValueError("at least 101 nodes per dimension")
        if not lo < hi:
            raise ValueError("grid lo must be below hi")
        x = np.linspace(lo, hi, int(nodes))
        w = np.full(int(nodes), x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(x)
        log_weights.append(np.log(w))

    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([g.ravel() for g in mesh], axis=1)
    lw = log_weights[0]
    if m == 2:
        lw = (log_weights[0][:, None] + log_weights[1][None, :]).ravel()
    d = np.asarray(d, dtype=float).reshape(params.n_v - m)
    pts = np.hstack([ys, np.broadcast_to(d, (ys.shape[0], d.shape[0]))])
    chunk = 1 << 17  # bound the theta batch width on dense 2D grids
    logf = np.concatenate([
        log_pdf_many(params, pts[i:i + chunk])
        for i in range(0, pts.shape[0], chunk)])
    log_integral = float(logsumexp(logf + lw))

    shape = tuple(len(a) for a in axes)
    boundary = np.zeros(shape, dtype=bool)
    for axis in range(m):
        index = [slice(None)] * m
        index[axis] = 0
        boundary[tuple(index)] = True
        index[axis] = -1
        boundary[tuple(index)] = True
    log_edge = float(logsumexp((logf + lw)[boundary.ravel()]))
    if log_edge > np.log(edge_tol) + log_integral:
        raise GridError(
            f"grid edge mass {np.exp(log_edge - log_integral):.3g} of the "
            f"integral exceeds {edge_tol:g}; enlarge the grid")
    return log_integral
