"""CMA-ES generations scored on several processes: the same results as on
one, and no process left behind."""

import math
import os
import threading

import numpy as np
import pytest

import rtbm.cma
from rtbm.cma import minimize
from rtbm.fit import FitConfig, fit_density
from rtbm.theta import Lattice

HOST_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def spiky(x):
    """Rosenbrock's function, +inf on a half-space: ties and infinities to rank."""
    if x[0] > 0.8:
        return math.inf
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def force_processes(monkeypatch, count):
    monkeypatch.setattr(rtbm.cma, "_process_count", lambda lam: min(count, lam))


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


def assert_same_run(a, b):
    assert np.array_equal(a.x_best, b.x_best)
    assert (a.f_best, a.trace, a.evals, a.stop) == (b.f_best, b.trace, b.evals, b.stop)


def run_spiky(objective=spiky, max_evals=1500):
    return minimize(objective, -np.ones(6), max_evals=max_evals, seed=4)


class TestSplitEvaluation:
    @pytest.mark.parametrize("count", [2, 3, 10, "host"])
    def test_minimize_does_not_depend_on_the_process_count(self, monkeypatch, count):
        force_processes(monkeypatch, 1)
        serial = run_spiky()
        monkeypatch.undo()
        if count != "host":
            force_processes(monkeypatch, count)
        assert_same_run(run_spiky(), serial)

    @pytest.mark.parametrize("n_h, lattice", [(1, Lattice.FULL), (2, Lattice.FULL),
                                              (1, Lattice.NONNEG), (2, Lattice.NONNEG)])
    def test_fit_does_not_depend_on_the_process_count(self, monkeypatch, n_h, lattice):
        data = np.random.default_rng(12).standard_normal((300, 2))
        config = FitConfig(n_h=n_h, restarts=2, max_evals=120, seed=3, lattice=lattice)
        force_processes(monkeypatch, 1)
        serial = fit_density(data, config)
        monkeypatch.undo()
        split = fit_density(data, config)
        assert (split.nll, split.trace, split.evals) == (serial.nll, serial.trace, serial.evals)
        for name in ("t", "q", "w", "bv", "bh"):
            np.testing.assert_array_equal(getattr(split.params, name),
                                          getattr(serial.params, name))

    @pytest.mark.skipif(HOST_CPUS < 2, reason="one CPU: a generation is scored serially")
    def test_every_cpu_scores_and_every_worker_is_reaped(self, tmp_path):
        log = tmp_path / "cpus"

        def logging_cpus(x):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {','.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
            return spiky(x)
        lam = 4 + int(3 * math.log(6))
        assert rtbm.cma._process_count(lam) == min(HOST_CPUS, lam)
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
            assert rtbm.cma._process_count(12) == 1
            log = tmp_path / "pids"
            run = run_spiky(logging_pids(spiky, log))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pids_in(log) == {os.getpid()}
        assert_same_run(run, serial)
