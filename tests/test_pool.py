"""The process pool that scores a fit's candidates: every CPU used, errors
carried back to the caller, and no process left behind."""

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
        assert rtbm.pool._process_count(lam) == min(HOST_CPUS, lam)
        run_spiky(logging_cpus, max_evals=100)
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
            run_spiky(logging_pids(failing, log))
        assert type(err.value) is ValueError
        (worker,) = pids_in(log) - {caller}
        assert_reaped(worker)

    def test_an_error_that_does_not_pickle_is_named(self, monkeypatch):
        force_processes(monkeypatch, 2)
        caller = os.getpid()

        class Unpicklable(Exception):
            pass                    # defined in a function: pickle cannot find it

        def failing(x):
            if os.getpid() != caller:
                raise Unpicklable("local failure")
            return spiky(x)
        with pytest.raises(RuntimeError, match="^Unpicklable: local failure$"):
            run_spiky(failing)

    def test_a_worker_that_dies_is_an_error(self, monkeypatch, tmp_path):
        force_processes(monkeypatch, 2)
        caller = os.getpid()

        def dying(x):
            if os.getpid() != caller:
                os._exit(3)
            return spiky(x)
        log = tmp_path / "pids"
        with pytest.raises(RuntimeError, match="exited without scoring its candidates"):
            run_spiky(logging_pids(dying, log))
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
        with pytest.raises(KeyError):
            run_spiky(logging_pids(failing, log))
        workers = pids_in(log) - {caller}
        assert len(workers) == 2
        for pid in workers:
            assert_reaped(pid)

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
