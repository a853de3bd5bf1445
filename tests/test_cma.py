"""CMA-ES generations scored on several processes: the same results as on
one."""

import math

import numpy as np
import pytest

import rtbm.pool
from rtbm.cma import minimize
from rtbm.fit import FitConfig, fit_density
from rtbm.theta import Lattice


def spiky(x):
    """Rosenbrock's function, +inf on a half-space: ties and infinities to rank."""
    if x[0] > 0.8:
        return math.inf
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def force_processes(monkeypatch, count):
    monkeypatch.setattr(rtbm.pool, "_process_count", lambda lam: min(count, lam))


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
