"""Scoring batches of items on one process per CPU.

The caller and ``n - 1`` workers, forked once by :func:`scorer`, claim the
items of each batch one at a time from one claim pipe, and their values
are gathered back by index, so every result is the same for any ``n`` and
any share each process takes.  Each worker talks to the caller over one
``multiprocessing.connection`` pipe and is bound to a CPU other than the
caller's: left free, a worker woken through its pipe may be placed on the
busy caller's CPU (the wake-up says that the writer is about to sleep, and
the caller is not) and kept there for the whole run, which on a 2-vCPU
host made a fit slower than in one process.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from multiprocessing.connection import Pipe

import numpy as np


def _process_count(most):
    """Processes that score a batch, the caller included.

    One per CPU this process may run on, at most ``most``.  One where forking
    is unavailable (no ``os.fork`` or ``os.sched_getaffinity``), or unsafe:
    another Python thread may hold a lock, say the theta kernel cache's,
    that a forked worker would then wait on forever.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), most)


def _claims(fd, count):
    """The indices below ``count`` read as 4-byte tickets from the claim pipe
    ``fd``, up to the first that is not or the pipe's end, which comes only
    after the caller has closed its connections or died."""
    while len(ticket := os.read(fd, 4)) == 4:
        index = int.from_bytes(ticket, sys.byteorder)
        if index >= count:
            return
        yield index


def _serve(func, conn, claims):
    """A worker's loop: score the items it claims from the pipe ``claims`` of
    each batch received on ``conn`` and send back their (index, value) pairs,
    or the error one raised (a RuntimeError naming its type and message if
    it does not pickle), until the caller's end closes (EOFError, or an
    OSError on sending)."""
    while True:
        items = conn.recv()
        try:
            conn.send((True, [(i, float(func(items[i]))) for i in _claims(claims, len(items))]))
        except Exception as exc:
            try:
                conn.send((False, exc))
            except Exception:
                conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _worker_cpus(count):
    """The CPU each of ``count`` workers is bound to: the CPUs this process
    may run on other than the one it runs on, in turn; None where those
    cannot be read."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * count
    try:
        with open("/proc/self/stat", "rb") as f:    # field 39: the CPU it last ran on
            current = int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        current = None
    cpus = sorted(os.sched_getaffinity(0) - {current})
    return [cpus[k % len(cpus)] if cpus else None for k in range(count)]


def _fork_worker(func, claims, cpu, workers):
    """Fork a worker claiming items from the pipe ``claims`` (read, write),
    bound to ``cpu`` unless it is None; (pid, connection) for the caller,
    ``workers`` being those forked before it.

    The worker closes the claim pipe's write end and its siblings'
    connections, so both its pipes close with the caller, and leaves through
    ``os._exit`` however its loop ends: when the caller's end of either
    pipe closes (the caller finished or died), on an error, or on
    KeyboardInterrupt.  So it runs no atexit handler, prints no traceback
    and flushes no stream inherited from the caller.
    """
    conn, child = Pipe()
    try:
        pid = os.fork()
    except OSError:
        conn.close()
        child.close()
        raise
    if pid == 0:
        try:
            if cpu is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, {cpu})
            os.close(claims[1])
            conn.close()
            for _, sibling in workers:
                sibling.close()
            _serve(func, child, claims[0])
        finally:
            os._exit(0)
    child.close()
    return pid, conn


@contextlib.contextmanager
def scorer(func, most):
    """A function that scores a batch of items by ``func`` on
    ``_process_count(most)`` processes and returns their values in order.

    Forks the workers once, each bound to a CPU of its own (see
    ``_worker_cpus``), after flushing the standard streams; on the way out,
    normal or not, closes their connections and the claim pipe and reaps
    them.  An error raised in a worker is raised in the caller, and like
    one raised in the caller it ends the scorer's use.
    """
    count = _process_count(most)
    workers = []
    claims = os.pipe() if count > 1 else None
    try:
        if count > 1:
            sys.stdout.flush()
            sys.stderr.flush()
        for cpu in _worker_cpus(count - 1):
            workers.append(_fork_worker(func, claims, cpu, workers))

        def score(items):
            if not workers:
                return np.array([float(func(x)) for x in items])
            for _, conn in workers:
                conn.send(items)
            # one ticket per item, then one past the last index per process
            os.write(claims[1], np.arange(len(items) + count, dtype=np.uint32).tobytes())
            values = np.empty(len(items))
            for i in _claims(claims[0], len(items)):
                values[i] = float(func(items[i]))
            for pid, conn in workers:
                try:
                    ok, scored = conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(f"worker process {pid} exited "
                                       "without scoring its candidates") from None
                if not ok:
                    raise scored
                for i, value in scored:
                    values[i] = value
            return values

        yield score
    finally:
        for _, conn in workers:
            conn.close()
        for fd in claims or ():
            os.close(fd)
        for pid, _ in workers:
            os.waitpid(pid, 0)
