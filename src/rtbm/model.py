"""RTBM parameter records: validity, model files.

An RTBM over ``n_v`` continuous visible units and ``n_h`` lattice-valued
hidden units is the quintuple (T, Q, W, bv, bh) plus a lattice convention.
T and Q must be symmetric positive definite, and so must the Schur-type
matrix Q - W^T T^{-1} W, which normalizes the visible density.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import NotPositiveDefiniteError, RtbmError
from .theta import Lattice, _kernel, spd_cholesky

SYMMETRY_ATOL = 1e-10
SCHUR = "Q - W^T T^-1 W"


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _cho_solve(chol, b):
    """A^-1 b from the lower Cholesky factor of A, through LAPACK directly
    (scipy's la.cho_solve wrapper costs about 10x the solve)."""
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _finite(a, name):
    """``a`` (new) frozen in place; NotPositiveDefiniteError naming ``name`` if it overflowed."""
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError(f"{name} is not finite (overflow)")
    a.setflags(write=False)
    return a


def _chol_t(t):
    """The lower Cholesky factor of T, a new array frozen in place;
    NotPositiveDefiniteError if T is not PD."""
    chol = spd_cholesky(t, "T")
    chol.setflags(write=False)
    return chol


def _tinv(chol_t, b):
    """T^-1 b, a new array frozen in place, from the lower Cholesky factor of T."""
    x = _cho_solve(chol_t, b)
    x.setflags(write=False)
    return x


def _schur(q, w, tinv_w):
    """Q - W^T T^-1 W, frozen; NotPositiveDefiniteError if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(q - w.T @ tinv_w, SCHUR)


def _check_finite(**arrays):
    """ValueError naming the first of ``arrays`` with a NaN or infinite entry."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class RtbmParams:
    """Parameters of one RTBM. Immutable after construction.

    The factorization of T and the Schur quantities derived from it are
    computed on first use and kept on the instance; the fields are frozen
    arrays, so a kept value cannot go stale.
    """

    t: np.ndarray
    q: np.ndarray
    w: np.ndarray
    bv: np.ndarray
    bh: np.ndarray
    lattice: Lattice = Lattice.FULL

    def __post_init__(self):
        t = _freeze(np.atleast_2d(self.t))
        q = _freeze(np.atleast_2d(self.q))
        n_v, n_h = t.shape[0], q.shape[0]
        for name, a, size, shape in (("W", self.w, n_v * n_h, "n_v x n_h"),
                                     ("bv", self.bv, n_v, "n_v"), ("bh", self.bh, n_h, "n_h")):
            if np.size(a) != size:
                raise ValueError(f"{name} has {np.size(a)} entries, expected {size} "
                                 f"({shape} with n_v={n_v}, n_h={n_h})")
        w = _freeze(np.asarray(self.w, dtype=float).reshape(n_v, n_h))
        bv = _freeze(np.asarray(self.bv, dtype=float).reshape(n_v))
        bh = _freeze(np.asarray(self.bh, dtype=float).reshape(n_h))
        if t.shape != (n_v, n_v) or q.shape != (n_h, n_h):
            raise ValueError("t and q must be square")
        _check_finite(t=t, q=q, w=w, bv=bv, bh=bh)
        self._keep(self.lattice, t=t, q=q, w=w, bv=bv, bh=bh)

    def _keep(self, lattice, **arrays):
        """Keep ``arrays``, frozen, as the fields of these names."""
        for a in arrays.values():
            a.setflags(write=False)
        vars(self).update(arrays, lattice=Lattice(lattice))

    @classmethod
    def _of_private(cls, lattice, derived=(), **arrays):
        """The model of float arrays of its shapes that the caller has checked as
        finite, frozen in place, not copied: new ones that nothing else references,
        or another model's frozen fields (a child shares its parent's Q).

        ``derived`` maps names of cached properties (``chol_t``, ``memo``, ...)
        to values already computed from these same arrays, which the model
        takes as its own instead of computing them."""
        params = cls.__new__(cls)
        params._keep(lattice, **arrays)
        vars(params).update(derived)
        return params

    @property
    def n_v(self) -> int:
        return self.t.shape[0]

    @property
    def n_h(self) -> int:
        return self.q.shape[0]

    @cached_property
    def chol_t(self) -> np.ndarray:
        """Lower Cholesky factor of T; NotPositiveDefiniteError if T is not PD."""
        return _chol_t(self.t)

    @cached_property
    def tinv_w(self) -> np.ndarray:
        """T^-1 W."""
        return _tinv(self.chol_t, self.w)

    @cached_property
    def tinv_bv(self) -> np.ndarray:
        """T^-1 bv."""
        return _tinv(self.chol_t, self.bv)

    @cached_property
    def schur(self) -> np.ndarray:
        """S = Q - W^T T^-1 W: the normalizer's theta matrix, whose symmetric
        part the theta kernel sums.

        NotPositiveDefiniteError if it overflows.
        """
        return _schur(self.q, self.w, self.tinv_w)

    @cached_property
    def z_schur(self) -> np.ndarray:
        """bh - W^T T^-1 bv: the normalizer's theta argument.

        NotPositiveDefiniteError, naming the Schur matrix, if it overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self.bh - self.w.T @ self.tinv_bv,
                           f"bh - W^T T^-1 bv (the theta argument over {SCHUR})")

    @cached_property
    def memo(self) -> dict:
        """Values derived from this model and kept on it, each built on first
        use: ``density``'s log normalizer, its constants (1/2 log det T, the
        log-density's 1/2 log det T - n_v/2 log 2pi and 1/2 bv^T T^-1 bv),
        the plan of each set of free coordinates it has been conditioned to
        (the arrays its children share) and the child of its last
        conditioning request (with that request's key); the report of
        :func:`validate`; and ``sampling``'s draw table (the inverse-CDF cdf,
        the K component means and, past 32 states, the bucket index of
        cdf)."""
        return {}


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    value: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def _failed_eigenvalue(factor):
    """None if ``factor()`` factors its matrix, else that matrix's smallest eigenvalue."""
    try:
        factor()
    except NotPositiveDefiniteError as exc:
        return exc.min_eigenvalue
    return None


def validate(params: RtbmParams) -> ValidationReport:
    """Report every failed rule of symmetry and the three positive-definiteness
    conditions, and keep the report in ``params.memo``; nothing is thrown.

    T is factored by :func:`spd_cholesky`, Q and the Schur matrix
    Q - W^T T^{-1} W by preparing the theta kernels every later sum over
    them reuses (at n_h >= 21 with a shared point bound past the work cap,
    so that no shared offset is enumerated).  The Schur
    condition needs T to factor, and is skipped (T reported invalid) if it
    does not; a Schur matrix or normalizer argument that overflows fails it.
    """
    bad = []
    for name, a in (("T", params.t), ("Q", params.q)):
        asym = float(np.abs(a - a.T).max())
        if asym > SYMMETRY_ATOL:
            bad.append(Violation(f"{name.lower()}-asymmetric",
                                 f"{name} asymmetry {asym:.3g} exceeds {SYMMETRY_ATOL}",
                                 asym))
    lam_s = None
    lam_t = _failed_eigenvalue(lambda: params.chol_t)
    if lam_t is None:
        try:
            schur = params.schur                # raises if it overflows
            lam_s = _failed_eigenvalue(lambda: _kernel(schur, params.lattice))
            params.z_schur                      # raises if it overflows
        except NotPositiveDefiniteError as exc:  # either of them overflowed
            bad.append(Violation("schur-not-positive-definite", str(exc)))
    lam_q = _failed_eigenvalue(lambda: _kernel(params.q, params.lattice))
    for rule, name, lam in (("t", "T", lam_t), ("q", "Q", lam_q),
                            ("schur", SCHUR, lam_s)):
        if lam is not None:
            bad.append(Violation(
                f"{rule}-not-positive-definite",
                f"{name} not positive definite (min eigenvalue ~ {lam:.6g})", lam))
    report = params.memo["report"] = ValidationReport(tuple(bad))
    return report


def to_dict(params: RtbmParams) -> dict:
    return {
        "nv": params.n_v,
        "nh": params.n_h,
        "lattice": params.lattice.value,
        "T": params.t.tolist(),
        "Q": params.q.tolist(),
        "W": params.w.tolist(),
        "bv": params.bv.tolist(),
        "bh": params.bh.tolist(),
    }


def from_dict(doc: dict) -> RtbmParams:
    """Model from its file form; ValueError names a missing or ill-typed field."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("nv", "nh", "T", "Q", "W", "bv", "bh"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    arrays = {}
    for key in ("T", "Q", "W", "bv", "bh"):
        try:
            arrays[key.lower()] = np.array(doc[key], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"field {key!r} is not a numeric array") from None
    params = RtbmParams(**arrays, lattice=Lattice(doc.get("lattice", "full")))
    if params.n_v != doc["nv"] or params.n_h != doc["nh"]:
        raise ValueError("declared nv/nh disagree with matrix shapes")
    return params


def write_atomic(path, write):
    """Create ``path`` through ``write(fh)`` on a temporary file, then rename it.

    Readers never see a partial file, and a failed write leaves no file.
    The temporary file is created with mode 0o666 less the umask, the mode
    ``open(path, "w")`` gives a new file (``tempfile.mkstemp`` would give
    0o600 whatever the umask).
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, doc):
    """Write ``doc`` as indented JSON, atomically.

    Python's repr-based JSON floats round-trip at full binary precision.
    """
    def write(fh):
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    write_atomic(path, write)


def save_model(params: RtbmParams, path):
    """Write a model file atomically."""
    write_json(path, to_dict(params))


def load_model(path) -> RtbmParams:
    """Read a model file; a malformed one raises RtbmError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except ValueError as exc:       # JSON and UTF-8 decoding errors among them
        raise RtbmError(f"model {path}: {exc}") from None
