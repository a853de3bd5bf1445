"""Covariance matrix adaptation evolution strategy, (mu/mu_w, lambda) form.

Standard weighted-recombination CMA-ES with cumulative step-size
adaptation and rank-1 plus rank-mu covariance updates, following the
widely published default tuning.  Selection is purely rank-based, so the
objective may return +inf for infeasible candidates.  Deterministic for a
fixed seed: a single PCG64 stream, drawn in the calling process.

The lambda candidates of a generation are all scored before any is ranked,
so they are scored on several processes: the caller and ``n - 1`` forked
workers take the candidates ``i::n`` for i = 0 .. n - 1, and their values
are gathered back in population order.  Every result is therefore the same
for any ``n``; see ``_process_count`` for how it is chosen.

A run stops on the first of: the evaluation budget (``"budget"``); the
step size below SIGMA_STOP (``"sigma"``); the covariance condition (ratio
of largest to smallest axis length) above COND_STOP (``"condition"``); or
no improvement of the best value by more than STALL_TOL over
STALL_EVALS_PER_DIM * dim evaluations (``"stall"``).  The result names the
reason in ``stop``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

SIGMA0 = 0.3
SIGMA_STOP = 1e-12
COND_STOP = 1e7
STALL_TOL = 1e-10
STALL_EVALS_PER_DIM = 50


@dataclass
class CmaResult:
    x_best: np.ndarray
    f_best: float
    evals: int
    trace: list = field(default_factory=list)  # (evals, best-so-far) per generation
    stop: str = "budget"   # why the run ended: budget, sigma, condition or stall


def _process_count(lam):
    """Processes that score a generation, the caller included.

    One per CPU this process may run on, at most ``lam``.  One where forking
    is unavailable (no ``os.fork`` or ``os.sched_getaffinity``), or unsafe:
    another Python thread may hold a lock, say the theta kernel cache's,
    that a forked worker would then wait on forever.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), lam)


def _pickled_error(exc):
    """``exc`` pickled as a failed reply; a RuntimeError naming its type and
    message if it does not pickle."""
    try:
        return pickle.dumps((False, exc))
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _serve(objective, jobs, replies, index, count):
    """A worker's loop: score candidates ``index::count`` of each generation
    read from ``jobs`` and write their values, or the error they raised, to
    ``replies``, until ``jobs`` closes (EOFError)."""
    while True:
        xs = pickle.load(jobs)
        try:
            reply = pickle.dumps((True, [float(objective(x)) for x in xs[index::count]]))
        except Exception as exc:
            reply = _pickled_error(exc)
        replies.write(reply)
        replies.flush()


def _worker_cpus(count):
    """The CPU each of ``count`` workers is bound to: the CPUs this process
    may run on other than the one it runs on, in turn; None where those
    cannot be read.

    Left free, a worker woken through its pipe may be placed on the busy
    caller's CPU (a pipe's wake-up says that the writer is about to sleep,
    and the caller is not) and kept there for the whole run.  On a 2-vCPU
    host that made a fit slower than in one process.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [None] * count
    try:
        with open("/proc/self/stat", "rb") as f:    # field 39: the CPU it last ran on
            current = int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        current = None
    cpus = sorted(os.sched_getaffinity(0) - {current})
    return [cpus[k % len(cpus)] if cpus else None for k in range(count)]


def _fork_worker(objective, index, count, cpu, workers):
    """Fork the worker of candidates ``index::count``, bound to ``cpu`` unless
    it is None; (pid, jobs, replies) for the caller, ``workers`` being those
    forked before it.

    The worker leaves through ``os._exit`` however its loop ends: when its
    jobs pipe closes (the caller finished or died), on an error, or on
    KeyboardInterrupt.  So it runs no atexit handler, prints no traceback
    and flushes no stream inherited from the caller.
    """
    job_r, job_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (job_r, job_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        try:
            if cpu is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, {cpu})
            os.close(job_w)
            os.close(reply_r)
            for _, jobs, replies in workers:    # so each pipe closes with the caller
                os.close(jobs.fileno())
                os.close(replies.fileno())
            _serve(objective, os.fdopen(job_r, "rb"), os.fdopen(reply_w, "wb"),
                   index, count)
        finally:
            os._exit(0)
    os.close(job_r)
    os.close(reply_w)
    return pid, os.fdopen(job_w, "wb"), os.fdopen(reply_r, "rb")


@contextlib.contextmanager
def _scorer(objective, count):
    """A function that scores a generation's candidates on ``count`` processes.

    Forks the ``count - 1`` workers once, each bound to a CPU of its own (see
    ``_worker_cpus``), after flushing the standard streams; on the way out,
    normal or not, closes their pipes and reaps them.  An error raised in a
    worker's share is raised in the caller.
    """
    workers = []
    try:
        if count > 1:
            sys.stdout.flush()
            sys.stderr.flush()
        for index, cpu in enumerate(_worker_cpus(count - 1), 1):
            workers.append(_fork_worker(objective, index, count, cpu, workers))

        def score(xs):
            job = pickle.dumps(xs)
            for _, jobs, _ in workers:
                jobs.write(job)
                jobs.flush()
            fs = np.empty(len(xs))
            fs[::count] = [float(objective(x)) for x in xs[::count]]
            for index, (pid, _, replies) in enumerate(workers, 1):
                try:
                    ok, values = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"CMA-ES worker process {pid} exited "
                                       "without scoring its candidates") from None
                if not ok:
                    raise values
                fs[index::count] = values
            return fs

        yield score
    finally:
        for _, jobs, replies in workers:
            with contextlib.suppress(OSError):  # a worker that died broke its pipe
                jobs.close()
            replies.close()
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def minimize(objective, x0, *, max_evals: int, seed) -> CmaResult:
    """Minimize a total function on R^dim from the nonempty vector ``x0``.

    The initial step size is SIGMA0.  Stops as the module docstring says.
    Returns the best evaluated point, never the distribution mean.  Each
    generation is scored on ``_process_count(lambda)`` processes, with the
    same result for any count; every worker is reaped before this returns
    or raises.
    """
    mean = np.array(x0, dtype=float)
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError(f"x0 must be a nonempty vector, got shape {mean.shape}")
    dim = mean.size
    rng = np.random.default_rng(seed)
    lam = 4 + int(3 * math.log(dim))
    mu = lam // 2
    weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_eff = 1.0 / np.square(weights).sum()

    c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1,
               2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim ** 2))

    sigma = SIGMA0
    cov = np.eye(dim)
    p_sigma = np.zeros(dim)
    p_c = np.zeros(dim)
    eig_vecs = np.eye(dim)
    eig_sqrt = np.ones(dim)

    x_best = mean.copy()
    f_best = math.inf
    evals = 0
    gen = 0
    trace = []
    stall_gens = max(1, math.ceil(STALL_EVALS_PER_DIM * dim / lam))
    last_improved = 0
    stop = "budget"

    with _scorer(objective, _process_count(lam)) as score:
        while evals < max_evals:
            gen += 1
            z = rng.standard_normal((lam, dim))
            y = (z * eig_sqrt) @ eig_vecs.T
            xs = mean + sigma * y
            fs = score(xs)
            evals += lam

            order = np.argsort(fs, kind="stable")
            if fs[order[0]] < f_best - STALL_TOL:
                last_improved = gen
            if fs[order[0]] < f_best:
                f_best = float(fs[order[0]])
                x_best = xs[order[0]].copy()
            trace.append((evals, f_best))

            y_w = weights @ y[order[:mu]]
            mean = mean + sigma * y_w

            inv_sqrt_y = eig_vecs @ ((eig_vecs.T @ y_w) / eig_sqrt)
            p_sigma = (1.0 - c_sigma) * p_sigma \
                + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * inv_sqrt_y
            norm_ps = float(np.linalg.norm(p_sigma))
            h_sigma = norm_ps / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * gen)) \
                < (1.4 + 2.0 / (dim + 1.0)) * chi_n
            p_c = (1.0 - c_c) * p_c
            if h_sigma:
                p_c = p_c + math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

            rank_mu = (y[order[:mu]].T * weights) @ y[order[:mu]]
            cov = ((1.0 - c_1 - c_mu) * cov
                   + c_1 * (np.outer(p_c, p_c)
                            + (0.0 if h_sigma else c_c * (2.0 - c_c)) * cov)
                   + c_mu * rank_mu)
            cov = 0.5 * (cov + cov.T)
            sigma *= math.exp((c_sigma / d_sigma) * (norm_ps / chi_n - 1.0))

            eig_vals, eig_vecs = np.linalg.eigh(cov)
            eig_vals = np.maximum(eig_vals, 1e-30 * max(eig_vals.max(), 1e-300))
            eig_sqrt = np.sqrt(eig_vals)

            if sigma < SIGMA_STOP:
                stop = "sigma"
            elif eig_sqrt.max() / eig_sqrt.min() > COND_STOP:
                stop = "condition"
            elif gen - last_improved >= stall_gens:
                stop = "stall"
            else:
                continue
            break

    return CmaResult(x_best=x_best, f_best=f_best, evals=evals, trace=trace, stop=stop)
