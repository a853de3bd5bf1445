"""The process pool that scores a fit's candidates: every CPU used, errors
carried back to the caller, and no process left behind."""

import collections
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import rtbm
import rtbm.pool
from test_cma import assert_same_run, force_processes, run_spiky, spiky

HOST_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def logging_pids(objective, path):
    """``objective``, appending the pid of the process that scores each call to ``path``."""
    def logged(x):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return objective(x)
    return logged


def pids_in(path):
    return {int(line) for line in path.read_text().split()}


def waiting_pids(objective, path, count):
    """``objective``, logging the pid of each call to ``path``; each process's
    first call waits until ``count`` processes have logged one.

    Processes claim candidates on demand, so a fast one may take a whole
    generation.  While a process waits, the others claim the rest, so in a
    generation of at least ``count`` candidates every process scores one,
    whatever the timing.
    """
    waited = []         # each forked worker keeps its own copy
    def logged(x):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        if not waited:
            deadline = time.monotonic() + 60
            while len(pids_in(path)) < count:
                if time.monotonic() > deadline:
                    raise AssertionError(f"fewer than {count} processes scored in 60 s")
                time.sleep(0.001)
            waited.append(True)
        return objective(x)
    return logged


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def alive(pid):
    """Whether ``pid`` runs: not gone and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            return f.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except FileNotFoundError:
        return False


class TestPool:
    @pytest.mark.skipif(HOST_CPUS < 2, reason="one CPU: a generation is scored serially")
    def test_every_cpu_scores_and_every_worker_is_reaped(self, tmp_path):
        log = tmp_path / "cpus"

        def logging_cpus(x):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {','.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
            return spiky(x)
        lam = 4 + int(3 * math.log(6))
        count = rtbm.pool._process_count(lam)
        assert count == min(HOST_CPUS, lam)
        run_spiky(waiting_pids(logging_cpus, tmp_path / "pids", count), max_evals=100)
        cpus = dict(line.split(" ", 1) for line in log.read_text().splitlines())
        caller = str(os.getpid())
        assert caller in cpus
        assert len(cpus) == min(HOST_CPUS, lam)
        del cpus[caller]
        # each worker is bound to one CPU, and no two workers to the same one
        assert all("," not in c for c in cpus.values())
        assert len(set(cpus.values())) == len(cpus)
        for pid in cpus:
            assert_reaped(int(pid))

    def test_a_worker_error_reaches_the_caller(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 2)
        caller = os.getpid()

        def failing(x):
            if os.getpid() != caller:
                raise ValueError("no value in the worker's share")
            return spiky(x)
        log = tmp_path / "pids"
        with pytest.raises(ValueError, match="^no value in the worker's share$") as err:
            run_spiky(waiting_pids(failing, log, 2))
        assert type(err.value) is ValueError
        (worker,) = pids_in(log) - {caller}
        assert_reaped(worker)

    def test_an_error_that_does_not_pickle_is_named(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 2)
        caller = os.getpid()

        class Unpicklable(Exception):
            pass                    # defined in a function: pickle cannot find it

        def failing(x):
            if os.getpid() != caller:
                raise Unpicklable("local failure")
            return spiky(x)
        with pytest.raises(RuntimeError, match="^Unpicklable: local failure$"):
            run_spiky(waiting_pids(failing, tmp_path / "pids", 2))

    def test_a_worker_that_dies_is_an_error(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 2)
        caller = os.getpid()

        def dying(x):
            if os.getpid() != caller:
                os._exit(3)
            return spiky(x)
        log = tmp_path / "pids"
        with pytest.raises(RuntimeError, match="exited without scoring its candidates"):
            run_spiky(waiting_pids(dying, log, 2))
        (worker,) = pids_in(log) - {caller}
        assert_reaped(worker)

    def test_an_error_in_the_callers_share_stops_the_workers(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 3)
        caller = os.getpid()

        def failing(x):
            if os.getpid() == caller:
                raise KeyError("caller")
            return spiky(x)
        log = tmp_path / "pids"
        # the caller raises on its first candidate, once both workers have
        # taken one of theirs
        with pytest.raises(KeyError):
            run_spiky(waiting_pids(failing, log, 3))
        workers = pids_in(log) - {caller}
        assert len(workers) == 2
        for pid in workers:
            assert_reaped(pid)

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("slow", ["caller", "workers"])
    def test_a_skewed_split_changes_nothing(self, monkeypatch, tmp_path, count, slow):
        # a slow caller leaves the workers most candidates, and slow workers
        # leave them to the caller; either way each candidate of each
        # generation is scored once, and the run is the serial one
        def logging_candidates(path, sleep_in=None):
            def logged(x):
                with open(path, "a") as f:
                    f.write(f"{os.getpid()} {x.tobytes().hex()}\n")
                if sleep_in is not None and (os.getpid() == caller) == (sleep_in == "caller"):
                    time.sleep(0.001)
                return spiky(x)
            return logged

        def scored(path):
            return [line.split() for line in path.read_text().splitlines()]
        caller = os.getpid()
        force_processes(monkeypatch, 1)
        serial = run_spiky(logging_candidates(tmp_path / "serial"), max_evals=300)
        monkeypatch.undo()
        force_processes(monkeypatch, count)
        split = run_spiky(logging_candidates(tmp_path / "split", slow), max_evals=300)
        assert_same_run(split, serial)
        candidates = [x for _, x in scored(tmp_path / "serial")]
        assert len(candidates) == serial.evals == len(set(candidates))
        shares = scored(tmp_path / "split")
        assert collections.Counter(x for _, x in shares) == collections.Counter(candidates)
        assert len({pid for pid, _ in shares}) <= count

    def test_nothing_is_forked_while_another_thread_runs(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 1)
        serial = run_spiky()
        monkeypatch.undo()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert rtbm.pool._process_count(12) == 1
            log = tmp_path / "pids"
            run = run_spiky(logging_pids(spiky, log))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pids_in(log) == {os.getpid()}
        assert_same_run(run, serial)

    def test_workers_leave_when_the_caller_is_killed(self, tmp_path):
        log = tmp_path / "pids"
        script = f"""
import os, time
import numpy as np
import rtbm.pool
from rtbm.cma import minimize
rtbm.pool._process_count = lambda most: min(3, most)
caller = os.getpid()

def sphere(x):
    with open({str(log)!r}, "a") as f:
        f.write(f"{{os.getpid()}}\\n")
    if os.getpid() == caller:
        time.sleep(0.05)
    return float(x @ x)
minimize(sphere, np.ones(6), max_evals=10**6, seed=0)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(rtbm.__file__).parents[1]))
        caller = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = set()
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and caller.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
                if log.exists():
                    workers = pids_in(log) - {caller.pid}
            assert len(workers) == 2
        finally:
            caller.kill()
            caller.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [pid for pid in workers if alive(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left
