#!/usr/bin/env python3
"""Benchmark of fitting and conditional inference in the rtbm package.

Run from the repository root:

    python3 bench/run.py --workload infer --seed 1 --seconds 15 --trace 0

Workloads (bench/README.md says why each exists):

  fit-t-nh2  the README pipeline through ``rtbm.cli.run_command``, in-process
  fit-t-nh3  ``fit_density`` with n_h=3 on 1000 rows, then queries
  infer      conditional queries, child grids and draws on three fixed models

A run sets up, repeats whole rounds of the workload for --seconds, then
checks the outputs against ``mixture_oracle`` (which does not use rtbm).
While the rounds run, a timer interrupts them every REF_PERIOD_S seconds to
time a fixed reference computation (``Reference``); the end-to-end round
metric is a round's time, less those interruptions, over the reference's
time during it, which follows the program's cost and not the shared
machine's changing speed.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 the calls into each layer are
wrapped in spans (``tracing``) and the line holds the per-layer metrics.
The line before it holds the run's metadata, which is also written with
the spans under bench/out/.
"""

from __future__ import annotations

import os

# The BLAS pool is fixed before numpy loads: on two cores the default pool
# made the n_h=3 fit slower and less steady.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fixtures  # noqa: E402
from mixture_oracle import (Mixture, gaussian_mle_nll_per_point,  # noqa: E402
                            student_t_conditional_pdf)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3          # set-up runs whose median is setup_s (this one + probes)
REF_PERIOD_S = 0.2         # interval of the reference timer, untraced runs only
LOG_TOL = 1e-9             # program vs oracle, log-densities and NLL
INTEGRAL_TOL = 1e-4        # trapezoid integral of a child density
MSE_BOUND = 1e-3           # conditional MSE against the Student-t conditional
MOMENT_SE = 5.0            # draws vs mixture moments, in standard errors

# The paper's Student-t experiment (scripts/student_t_benchmark.py defaults).
T_MU, T_SIGMA, T_NU = (0.0, 0.0), ((2.0, -1.0), (-1.0, 4.0)), 6.0
T_DATA_SEED, T_FIT_SEED = 20260809, 7
X1_VALUES = (-2.0, 0.0, 1.0)


class RoundFailed(Exception):
    """An operation of the round failed; the rest of the round is skipped."""


class Recorder:
    """Times the operations of the timed region, grouped by kind."""

    def __init__(self, program, reference=None):
        self.program = program
        self.reference = reference
        self.ops = {"query": [], "grid": [], "draws": [], "fit": [], "other": []}
        self.ok_in_round = 0

    def paused_s(self):
        """Time the reference has taken so far; it is not the operations' time."""
        return self.reference.total_s if self.reference else 0.0

    def op(self, kind, func, size=1):
        start, paused = time.perf_counter(), self.paused_s()
        try:
            result = func()
        except self.program.RtbmError as exc:
            print(f"operation failed: {kind}: {exc}", file=sys.stderr)
            raise RoundFailed from exc
        duration = time.perf_counter() - start - (self.paused_s() - paused)
        self.ops[kind].append((duration, size))
        self.ok_in_round += 1
        return result

    def durations(self, kind):
        return [duration for duration, _ in self.ops[kind]]

    def rate(self, kind):
        """Work done per second of operation time, over the whole run."""
        return sum(size for _, size in self.ops[kind]) / sum(self.durations(kind))


class Reference:
    """A fixed computation, timed during the rounds, that tracks the machine's speed.

    On a shared host the speed of the same code changes by up to a half
    between phases that last from under a second to minutes, and a
    second process does not see the same phases. So the reference runs in
    the benchmark's own thread, from a SIGALRM timer that interrupts the
    program every ``period`` seconds (Python runs the handler between two
    bytecodes of the program). ``samples`` holds the duration of each
    timing and ``total_s`` their sum, which the caller subtracts from the
    time of what was interrupted.

    The work mixes the two kinds the program does: small-batch numpy calls
    with Python overhead (three 8-point joint and conditional oracle
    densities on TFIT and on CONSTRUCTED_3D) and array work over a large
    lattice box (the joint density of CONSTRUCTED_2D, n_h=4, at one
    point). It calls no rtbm code and its inputs do not depend on the run
    seed; it takes about 20 ms on a 2.0 GHz Xeon.
    """

    SMALL, WIDE = ("TFIT", "CONSTRUCTED_3D"), "CONSTRUCTED_2D"

    def __init__(self):
        rng = np.random.default_rng(0)
        models = {name: Mixture.from_dict(values) for name, values in fixtures.MODELS}
        self.small = [(models[n], models[n].sample(10, rng)) for n in self.SMALL]
        self.wide = (models[self.WIDE], models[self.WIDE].sample(1, rng))
        self.samples = []
        self.total_s = 0.0
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        for mixture, pts in self.small:
            rest = list(range(1, mixture.n_v))
            for i in range(3):
                mixture.log_density(pts[i:i + 8])
                mixture.log_conditional(pts[i:i + 8, :1], [0], pts[i, rest], rest)
        self.wide[0].log_density(self.wide[1])
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.total_s += duration

    def start(self, period):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        """Stop the timer and restore the previous handler; calling it again does nothing."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def import_program():
    """Import the package under test from the checkout's src/ directory."""
    sys.path.insert(0, str(ROOT / "src"))
    import rtbm  # noqa: F401
    import rtbm.cli  # noqa: F401
    import rtbm.cma  # noqa: F401
    import rtbm.density  # noqa: F401
    import rtbm.fit  # noqa: F401
    import rtbm.sampling  # noqa: F401
    return rtbm, sys.modules


def warm_theta(program, h):
    """Walk every theta shell up to the radius cap for dimension h.

    A tolerance that cannot be met makes the kernel enumerate all shells
    before it raises, which fills its lazily built shell tables the way a
    long fit does.
    """
    try:
        program.log_theta_many(np.zeros((1, h)), 1e-4 * np.eye(h))
    except program.ThetaTruncationError:
        pass


def student_t_rows(count, seed):
    """Student-t rows by the Gaussian scale-mixture construction."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.array(T_SIGMA))
    z = rng.standard_normal((count, 2))
    u = rng.chisquare(T_NU, count)
    return np.array(T_MU) + (z @ chol.T) * np.sqrt(T_NU / u)[:, None]


def check_valid(doc, label):
    t, q, w = (np.asarray(doc[k], dtype=float) for k in ("t", "q", "w"))
    schur = q - w.T @ np.linalg.solve(t, w)
    failures = []
    for name, mat in (("T", t), ("Q", q), ("Q - W^T T^-1 W", schur)):
        lam = np.linalg.eigvalsh(0.5 * (mat + mat.T))[0]
        if not lam > 0:
            failures.append(f"{label}: {name} not positive definite (min eigenvalue {lam:.3g})")
    return failures


def check_close(label, program_values, oracle_values, tol=LOG_TOL):
    diff = np.abs(np.asarray(program_values) - np.asarray(oracle_values))
    scale = np.maximum(1.0, np.abs(np.asarray(oracle_values)))
    worst = float((diff / scale).max())
    return [] if worst <= tol else [f"{label}: differs from the oracle by {worst:.3g}"]


def check_integral(label, axes, density):
    """Trapezoid integral over a grid; density is flattened in 'ij' order."""
    values = np.asarray(density).reshape([len(a) for a in axes])
    for axis in reversed(axes):
        values = np.trapezoid(values, axis, axis=-1)
    return [] if abs(values - 1.0) <= INTEGRAL_TOL else [
        f"{label}: grid integral {float(values):.8f}, not 1 within {INTEGRAL_TOL}"]


def check_draws(label, draws, mixture):
    mean, cov = mixture.moments()
    n = draws.shape[0]
    dev = draws - draws.mean(axis=0)
    failures = []
    for i in range(mixture.n_v):
        z = (draws[:, i].mean() - mean[i]) / np.sqrt(cov[i, i] / n)
        if abs(z) > MOMENT_SE:
            failures.append(f"{label}: mean[{i}] off by {z:.2f} standard errors")
        for j in range(i + 1):
            prod = dev[:, i] * dev[:, j]
            z = (prod.mean() - cov[i, j]) / (prod.std() / np.sqrt(n))
            if abs(z) > MOMENT_SE:
                failures.append(f"{label}: cov[{i},{j}] off by {z:.2f} standard errors")
    return failures


def trapezoid_axes(mean, cov, nodes, width=10.0):
    sd = np.sqrt(np.diag(np.atleast_2d(cov)))
    return [np.linspace(m - width * s, m + width * s, k)
            for m, s, k in zip(np.atleast_1d(mean), sd, nodes)]


def mesh(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class FitTNh2:
    """The README pipeline, run in-process through rtbm.cli.run_command.

    A round: student sample (5000 rows), fit (n_h=2, 1 restart, 1000
    evaluations), then for each x1 a query (conditional + density at the
    training x2), the analytic conditional and the MSE; a child grid; 100k
    draws. The training set and fit seed are fixed; the run seed drives the
    draw seeds.
    """

    ROWS, RESTARTS, MAX_EVALS = 5000, 1, 1000
    GRID = "-20:20:4001"
    DRAWS = 100_000

    def __init__(self, program, modules, seed, work_dir):
        self.program, self.cli = program, modules["rtbm.cli"]
        self.work = work_dir
        self.draw_seeds = np.random.SeedSequence([seed, 2]).generate_state(64).tolist()
        self.ops_per_round = 2 + 3 * 3 + 2
        self.details = {"data_seed": T_DATA_SEED, "fit_seed": T_FIT_SEED}
        self.nll_rounds = []

    def path(self, name):
        return str(self.work / name)

    def _student(self):
        mu = ",".join(repr(v) for v in T_MU)
        sigma = ",".join(repr(v) for row in T_SIGMA for v in row)
        return ["--mu", mu, "--sigma", sigma, "--nu", repr(T_NU)]

    def _run(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cli.run_command(list(argv))
        if code != 0:
            raise self.program.RtbmError(f"rtbm {' '.join(argv)} -> exit {code}: {err.getvalue()}")
        return code

    def pipeline(self, rec, rows, max_evals, draws, draw_seed, grid):
        run, p = self._run, self.path
        rec.op("other", lambda: run("student", "sample", *self._student(), "--count", str(rows),
                                    "--seed", str(T_DATA_SEED), "--out", p("data.csv")))
        rec.op("fit", lambda: run("fit", "--data", p("data.csv"), "--nh", "2",
                                  "--seed", str(T_FIT_SEED), "--restarts", str(self.RESTARTS),
                                  "--max-evals", str(max_evals), "--out", p("model.json")))
        for x1 in X1_VALUES:
            tag = f"{x1:g}"
            rec.op("query", lambda: (
                run("conditional", "--model", p("model.json"), "--on", f"0={x1!r}",
                    "--out", p(f"child{tag}.json")),
                run("density", "--model", p(f"child{tag}.json"), "--points-csv", p("data.csv"),
                    "--points-cols", "1", "--out", p(f"cand{tag}.csv"))))
            rec.op("other", lambda: run("student", "conditional", *self._student(),
                                        "--on", f"0={x1!r}", "--points-csv", p("data.csv"),
                                        "--points-cols", "1", "--out", p(f"ref{tag}.csv")))
            rec.op("other", lambda: run("mse", "--ref", p(f"ref{tag}.csv"),
                                        "--cand", p(f"cand{tag}.csv")))
        rec.op("grid", lambda: run("density", "--model", p("child0.json"), "--grid", grid,
                                   "--out", p("grid.csv")), size=int(grid.rsplit(":", 1)[1]))
        rec.op("draws", lambda: run("sample", "--model", p("model.json"), "--count", str(draws),
                                    "--seed", str(draw_seed), "--out", p("samples.csv")),
               size=draws)

    def warm_up(self):
        warm_theta(self.program, 2)
        self.pipeline(Recorder(self.program), 200, 24, 1000, 0, "-5:5:11")

    def run_round(self, k, rec):
        seed = self.draw_seeds[k % len(self.draw_seeds)]
        self.pipeline(rec, self.ROWS, self.MAX_EVALS, self.DRAWS, seed, self.GRID)
        with open(self.path("model.json.meta.json"), encoding="utf-8") as fh:
            self.nll_rounds.append(json.load(fh)["nll"])
        self.details["nll_per_point"] = self.nll_rounds[-1] / self.ROWS

    def check(self):
        with open(self.path("model.json"), encoding="utf-8") as fh:
            doc = {k.lower(): v for k, v in json.load(fh).items()}
        failures = check_valid(doc, "fitted model")
        if failures:
            return failures
        mixture = Mixture.from_dict(doc)
        data = np.loadtxt(self.path("data.csv"), delimiter=",", ndmin=2)
        oracle_nll = -float(mixture.log_density(data).sum())
        failures += check_close("fit NLL", self.nll_rounds[-1], oracle_nll)
        if len(set(self.nll_rounds)) != 1:
            failures.append(f"fit NLL differs between identical rounds: {self.nll_rounds}")
        gauss = gaussian_mle_nll_per_point(data)
        nll_per_point = self.details["nll_per_point"]
        if not nll_per_point < gauss:
            failures.append(f"NLL per point {nll_per_point:.5f} not below "
                            f"the Gaussian MLE's {gauss:.5f}")
        self.details.update(gaussian_nll_per_point=gauss, mse={})
        for x1 in X1_VALUES:
            cand = np.loadtxt(self.path(f"cand{x1:g}.csv"), delimiter=",", ndmin=2)
            ref = student_t_conditional_pdf(T_MU, T_SIGMA, T_NU, x1, data[:, 1])
            mse = float(np.mean((cand[:, 1] - ref) ** 2))
            self.details["mse"][f"{x1:g}"] = mse
            if not mse <= MSE_BOUND:
                failures.append(f"conditional MSE at x1={x1:g} is {mse:.3g} > {MSE_BOUND}")
            sub = cand[::50]
            failures += check_close(f"child log-density at x1={x1:g}", sub[:, 2],
                                    mixture.log_conditional(sub[:, :1], [1], [x1], [0]))
        grid = np.loadtxt(self.path("grid.csv"), delimiter=",", ndmin=2)
        failures += check_integral("child grid at x1=0", [grid[:, 0]], grid[:, 1])
        draws = np.loadtxt(self.path("samples.csv"), delimiter=",", ndmin=2)
        failures += check_draws("draws", draws, mixture)
        return failures


class FitTNh3:
    """fit_density with n_h=3 on 1000 Student-t rows, then queries.

    A round: one fit (1 restart, 300 evaluations), then for each x1 a
    query (condition_on + log_pdf_many at the training x2), the child at
    x1=0 on a grid, 100k draws. The training set and fit seed are fixed;
    the run seed drives the draw seeds.
    """

    ROWS, MAX_EVALS = 1000, 300
    GRID = np.linspace(-30.0, 30.0, 3001)
    DRAWS = 100_000

    def __init__(self, program, modules, seed, work_dir):
        self.program = program
        self.density, self.fit, self.sampling = (
            modules["rtbm.density"], modules["rtbm.fit"], modules["rtbm.sampling"])
        self.data = student_t_rows(self.ROWS, T_DATA_SEED)
        self.config = program.FitConfig(n_h=3, restarts=1, max_evals=self.MAX_EVALS,
                                        seed=T_FIT_SEED)
        self.draw_seeds = np.random.SeedSequence([seed, 3]).generate_state(64).tolist()
        self.ops_per_round = 1 + 3 + 2
        self.details = {"data_seed": T_DATA_SEED, "fit_seed": T_FIT_SEED}
        self.results = []
        self.outputs = {}

    def _round(self, rec, data, config, grid, draws, draw_seed):
        d, s = self.density, self.sampling
        result = rec.op("fit", lambda: self.fit.fit_density(data, config))
        for x1 in X1_VALUES:
            self.outputs[x1] = rec.op("query", lambda: d.log_pdf_many(
                d.condition_on(result.params, [0], [x1])[0], data[:, 1:]))
        self.outputs["grid"] = rec.op("grid", lambda: d.log_pdf_many(
            d.condition_on(result.params, [0], [0.0])[0], grid[:, None]), size=len(grid))
        self.outputs["draws"] = rec.op("draws", lambda: s.sample_visible(
            result.params, draws, draw_seed), size=draws)
        return result

    def warm_up(self):
        warm_theta(self.program, 3)
        config = self.program.FitConfig(n_h=3, restarts=1, max_evals=24, seed=T_FIT_SEED)
        self._round(Recorder(self.program), self.data[:100], config, self.GRID[::100], 1000, 0)

    def run_round(self, k, rec):
        seed = self.draw_seeds[k % len(self.draw_seeds)]
        self.results.append(self._round(rec, self.data, self.config, self.GRID, self.DRAWS, seed))
        self.details["nll_per_point"] = self.results[-1].nll / self.ROWS

    def check(self):
        params = self.results[-1].params
        doc = {"t": params.t, "q": params.q, "w": params.w, "bv": params.bv, "bh": params.bh}
        failures = check_valid(doc, "fitted model")
        if failures:
            return failures
        mixture = Mixture.from_dict(doc)
        failures += check_close("fit NLL", self.results[-1].nll,
                                -float(mixture.log_density(self.data).sum()))
        if len({r.nll for r in self.results}) != 1:
            failures.append("fit NLL differs between identical rounds")
        for x1 in X1_VALUES:
            pts = self.data[::25, 1:]
            failures += check_close(f"child log-density at x1={x1:g}", self.outputs[x1][::25],
                                    mixture.log_conditional(pts, [1], [x1], [0]))
        failures += check_integral("child grid at x1=0", [self.GRID], np.exp(self.outputs["grid"]))
        failures += check_draws("draws", self.outputs["draws"], mixture)
        return failures


class Infer:
    """Closed loop, one caller, round-robin over the three fixture models.

    A round: QUERIES_PER_MODEL queries per model (condition_on a value
    drawn from the model, log_pdf_many of the child on BATCH points drawn
    from the model, log_marginal of the conditioning values, log_pdf of the
    drawn point), then the 1-D child grid of CONSTRUCTED_2D and the 2-D
    child grid of CONSTRUCTED_3D, then 100k draws from each model.
    """

    QUERIES_PER_MODEL, POOL, BATCH = 8, 96, 8
    GRID_NODES = {"CONSTRUCTED_2D": (401,), "CONSTRUCTED_3D": (121, 121)}
    DRAWS = 100_000
    CHECK_EVERY = 4            # pool entries checked against the oracle: one in CHECK_EVERY

    def __init__(self, program, modules, seed, work_dir):
        self.program = program
        self.density, self.sampling = modules["rtbm.density"], modules["rtbm.sampling"]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.models = []
        for name, values in fixtures.MODELS:
            mixture = Mixture.from_dict(values)
            params = program.RtbmParams(**values)
            points = mixture.sample(self.POOL, rng)
            batches = mixture.sample(self.POOL * self.BATCH, rng).reshape(self.POOL, self.BATCH, -1)
            queries = []
            for i in range(self.POOL):
                n_fixed = 1 if mixture.n_v == 2 else 1 + i % 2
                fixed = list(range(mixture.n_v - n_fixed, mixture.n_v))
                free = list(range(mixture.n_v - n_fixed))
                queries.append((fixed, free, points[i], batches[i][:, free]))
            self.models.append((name, params, mixture, queries))
        self.grids = []
        for name, params, mixture, _ in self.models:
            if name in self.GRID_NODES:
                fixed = [mixture.n_v - 1]
                d = mixture.sample(1, rng)[0, fixed]
                mean, cov = mixture.conditional_moments(fixed, d)
                axes = trapezoid_axes(mean, cov, self.GRID_NODES[name])
                self.grids.append((name, params, fixed, d, axes, mesh(axes)))
        self.draw_seeds = rng.integers(0, 2**32, size=64).tolist()
        self.ops_per_round = 3 * self.QUERIES_PER_MODEL + len(self.grids) + 3
        self.details = {}
        self.checked = {}          # (model index, pool index) -> (query, outputs)
        self.grid_outputs = {}
        self.draw_outputs = {}

    def query(self, params, fixed, free, point, batch):
        d = self.density
        child, _ = d.condition_on(params, fixed, point[fixed])
        child_logp = d.log_pdf_many(child, batch)
        marginal = d.log_marginal(params, len(free), point[fixed])
        joint = d.log_pdf(params, point)
        return child_logp, marginal, joint

    def _round(self, k, rec, queries_per_model, draws):
        for j in range(queries_per_model):
            for m, (name, params, _, queries) in enumerate(self.models):
                i = (k * queries_per_model + j) % self.POOL
                out = rec.op("query", lambda: self.query(params, *queries[i]))
                if i % self.CHECK_EVERY == 0:
                    self.checked.setdefault((m, i), (queries[i], out))
        for name, params, fixed, d, axes, pts in self.grids:
            self.grid_outputs[name] = rec.op("grid", lambda: self.density.log_pdf_many(
                self.density.condition_on(params, fixed, d)[0], pts), size=len(pts))
        for name, params, _, _ in self.models:
            seed = self.draw_seeds[k % len(self.draw_seeds)]
            out = rec.op("draws", lambda: self.sampling.sample_visible(params, draws, seed),
                         size=draws)
            self.draw_outputs.setdefault(name, out)

    def warm_up(self):
        self._round(0, Recorder(self.program), 1, 1000)
        self.checked.clear()
        self.grid_outputs.clear()
        self.draw_outputs.clear()

    def run_round(self, k, rec):
        self._round(k, rec, self.QUERIES_PER_MODEL, self.DRAWS)

    def check(self):
        failures = []
        for (m, _), ((fixed, free, point, batch), (child_logp, marginal, joint)) in self.checked.items():
            name, _, mixture, _ = self.models[m]
            failures += check_close(f"{name} child", child_logp,
                                    mixture.log_conditional(batch, free, point[fixed], fixed))
            failures += check_close(f"{name} marginal", [marginal],
                                    mixture.log_density(point[fixed][None, :], fixed))
            failures += check_close(f"{name} joint", [joint], mixture.log_density(point[None, :]))
        for name, _, _, _, axes, _ in self.grids:
            failures += check_integral(f"{name} child grid", axes,
                                       np.exp(self.grid_outputs[name]))
        for name, _, mixture, _ in self.models:
            failures += check_draws(f"{name} draws", self.draw_outputs[name], mixture)
        return failures


WORKLOADS = {"fit-t-nh2": FitTNh2, "fit-t-nh3": FitTNh3, "infer": Infer}


def setup(name, seed, work_dir):
    """Import the program, make the inputs and warm up; returns the set-up time too."""
    program, modules = import_program()
    workload = WORKLOADS[name](program, modules, seed, work_dir)
    workload.warm_up()
    return program, modules, workload, time.perf_counter() - _PROCESS_START


def probe_setup(name, seed):
    """Set-up time of a fresh process running the same set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, and print the set-up time")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rtbm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'rtbm'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    reference = None
    try:
        program, modules, workload, setup_s = setup(args.workload, args.seed, work_dir)
        if args.setup_probe:
            print(f"{setup_s!r}")
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(modules)
        # The traced run keeps the reference out, so that no span holds its time.
        reference = None if tracer else Reference()
        rec = Recorder(program, reference)
        rounds, round_refs, attempted, failed = [], [], 0, 0
        if reference:
            reference.sample()
            reference.start(REF_PERIOD_S)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rec.ok_in_round = 0
            n_samples = len(reference.samples) if reference else 0
            round_start, paused = time.perf_counter(), rec.paused_s()
            try:
                workload.run_round(len(rounds), rec)
            except RoundFailed:
                pass
            rounds.append(time.perf_counter() - round_start - (rec.paused_s() - paused))
            if reference:
                # The reference timings taken during the round, else the last one before it.
                during = reference.samples[n_samples:] or reference.samples[-1:]
                round_refs.append(statistics.mean(during))
            attempted += workload.ops_per_round
            failed += workload.ops_per_round - rec.ok_in_round
        if reference:
            reference.stop()
        if tracer:
            tracer.remove()
        per_ref = [r / ref for r, ref in zip(rounds, round_refs)]

        import oracle_selftest
        failures = oracle_selftest.run_all()
        if failed == 0:
            failures += workload.check()
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)

        setups = [setup_s]
        operations = {
            "density.queries_per_s": rec.rate("query"),
            "density.query_p50_ms": 1e3 * statistics.median(rec.durations("query")),
            "density.grid_points_per_s": rec.rate("grid"),
            "sampling.draws_per_s": rec.rate("draws"),
        }
        if args.trace:
            values = tracer.layer_metrics()
            values.update(operations)
            values["fit.nll_per_point"] = workload.details.get("nll_per_point", 0.0)
            values["traced.round_s"] = statistics.median(rounds)
        else:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
            values = {"setup_s": statistics.median(setups),
                      "round_per_ref": statistics.median(per_ref)}
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": git_revision(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "src_lines": src_line_count(), "rounds": len(rounds), "round_s": rounds,
            "round_ref_s": round_refs, "round_per_ref": per_ref,
            "ref_samples": len(reference.samples) if reference else 0,
            "setups_s": setups, "queries": len(rec.ops["query"]),
            "fit_s": rec.durations("fit"), "draw_seeds": workload.draw_seeds[:len(rounds)],
            "check_failures": failures, **workload.details, **operations,
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(
            {"meta": meta, "metrics": values, "ops": rec.ops}) + "\n", encoding="utf-8")
        if tracer:
            tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        print(json.dumps({"meta": meta}))
        missing = [m["name"] for m in metric_specs if m["name"] not in values]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        print(json.dumps({
            "correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metric_specs}}))
        return 0
    finally:
        if reference:
            reference.stop()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
