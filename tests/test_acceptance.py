"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two fitting
criteria (06, 10) take a few minutes each; everything else is fast.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la
from scipy.special import logsumexp

from conftest import random_spd
from references import log_theta_reference, quadrature_marginal
from rtbm.cli import run_command
from rtbm.cma import minimize
from rtbm.density import condition_on, log_marginal, log_pdf, log_pdf_many
from rtbm.fit import FitConfig, fit_density
from rtbm.model import RtbmParams, load_model, save_model, validate
from rtbm.oracle import (StudentTParams, conditional_logpdf, sample_student,
                         student_conditional)
from rtbm.sampling import (empirical_conditional, hidden_distribution,
                           sample_visible)
from rtbm.theta import Lattice, log_theta_many

T_BENCH = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]], nu=6.0)


def report(num, name, ok, detail):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def fixtures(tfit_params, constructed_2d_params, constructed_3d_params):
    return {"tfit": tfit_params, "2d": constructed_2d_params,
            "3d": constructed_3d_params}


# redeclare the conftest fixtures at module scope so the expensive criteria
# can share them
@pytest.fixture(scope="module")
def tfit_params():
    from conftest import TFIT
    return RtbmParams(**TFIT)


@pytest.fixture(scope="module")
def constructed_2d_params():
    from conftest import CONSTRUCTED_2D
    return RtbmParams(**CONSTRUCTED_2D)


@pytest.fixture(scope="module")
def constructed_3d_params():
    from conftest import CONSTRUCTED_3D
    return RtbmParams(**CONSTRUCTED_3D)


def test_criterion_01_theta_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for case in range(200):
        h = case % 3 + 1
        lattice = Lattice.FULL if case % 2 == 0 else Lattice.NONNEG
        omega = random_spd(rng, h, 0.5, 50.0)
        z = rng.uniform(-5.0, 5.0, h)
        got = log_theta_many(z[None, :], omega, lattice=lattice)[0]
        radius = int(np.ceil(np.abs(np.linalg.solve(omega, z)).max())) + 25
        ref = log_theta_reference(z, omega, lattice=lattice, radius=radius)
        worst = max(worst, abs(got - ref))
    elapsed = time.time() - start
    report(1, "theta-oracle-equivalence", worst <= 1e-10 and elapsed <= 60.0,
           f"worst |diff| {worst:.3g}, {elapsed:.1f}s over 200 cases")


def test_criterion_02_gaussian_reduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    points = 0
    while points < 1000:
        n_v = int(rng.integers(1, 4))
        a = rng.standard_normal((n_v, n_v))
        t = a @ a.T + n_v * np.eye(n_v)
        bv = rng.standard_normal(n_v)
        p = RtbmParams(t=t, q=random_spd(rng, 2, 5, 20),
                       w=np.zeros((n_v, 2)), bv=bv, bh=rng.standard_normal(2))
        vs = rng.standard_normal((100, n_v)) * 2.0
        mu = -np.linalg.solve(t, bv)
        _, logdet = np.linalg.slogdet(t)
        dev = vs - mu
        ref = (0.5 * logdet - 0.5 * n_v * np.log(2 * np.pi)
               - 0.5 * np.einsum("bi,ij,bj->b", dev, t, dev))
        worst = max(worst, np.abs(log_pdf_many(p, vs) - ref).max())
        points += 100
    report(2, "gaussian-reduction", worst <= 1e-12,
           f"worst |diff| {worst:.3g} over {points} points")


def test_criterion_03_product_rule(fixtures):
    grids = {
        "tfit": (1, np.linspace(-4, 4, 10), np.linspace(-3, 3, 5)[:, None]),
        "2d": (1, np.linspace(-1.5, 2.5, 10), np.linspace(0.3, 3.0, 5)[:, None]),
        "3d": (2,
               np.stack(np.meshgrid(np.linspace(-5, 1, 5),
                                    np.linspace(-1.5, 0.8, 5),
                                    indexing="ij"), -1).reshape(-1, 2),
               np.array([[-0.4], [-0.8]])),
    }
    worst = 0.0
    total = 0
    for name, (m, ys, ds) in grids.items():
        params = fixtures[name]
        ys = np.atleast_2d(ys if ys.ndim > 1 else ys[:, None])
        for d in ds:
            child = condition_on(params, range(m, params.n_v), d)[0]
            marg = log_marginal(params, m, d)
            for y in ys:
                joint = log_pdf(params, np.concatenate([y, d]))
                worst = max(worst, abs(joint - log_pdf(child, y) - marg))
                total += 1
    report(3, "product-rule", worst <= 1e-9,
           f"worst |diff| {worst:.3g} over {total} grid points")


def test_criterion_04_marginal_vs_quadrature(fixtures):
    start = time.time()
    cases = [
        ("tfit", 1, [-2.0], [(-30.0, 30.0, 20001)]),
        ("tfit", 1, [1.0], [(-30.0, 30.0, 20001)]),
        ("2d", 1, [2.0], [(-4.0, 5.0, 20001)]),
        ("2d", 1, [0.4], [(-4.0, 5.0, 20001)]),
        ("3d", 1, [-0.5, -0.5], [(-9.0, 4.0, 20001)]),
        ("3d", 2, [-0.6], [(-9.0, 4.0, 1301), (-3.0, 2.0, 501)]),
    ]
    worst = 0.0
    for name, m, d, grid in cases:
        quad = quadrature_marginal(fixtures[name], m, d, grid)
        closed = log_marginal(fixtures[name], m, d)
        worst = max(worst, abs(np.expm1(closed - quad)))
    elapsed = time.time() - start
    report(4, "marginal-vs-quadrature", worst <= 1e-6 and elapsed <= 120.0,
           f"worst rel diff {worst:.3g}, {elapsed:.1f}s")


def test_criterion_05_child_normalization(fixtures):
    worst = 0.0
    # 1D children
    for name, idx, val, lo, hi in (("tfit", 0, -2.0, -25.0, 25.0),
                                   ("2d", 1, 2.0, -3.0, 4.0)):
        child, _ = condition_on(fixtures[name], [idx], [val])
        xs = np.linspace(lo, hi, 20001)
        total = np.trapezoid(np.exp(log_pdf_many(child, xs[:, None])), xs)
        worst = max(worst, abs(total - 1.0))
    # 2D child of the three-dimensional fixture
    child = condition_on(fixtures["3d"], [2], [-0.6])[0]
    xs = np.linspace(-9.0, 4.0, 1301)
    ys = np.linspace(-3.0, 2.0, 501)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
    vals = np.exp(log_pdf_many(child, grid)).reshape(xs.size, ys.size)
    total = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    worst = max(worst, abs(total - 1.0))
    report(5, "child-normalization", worst <= 1e-4,
           f"worst |integral - 1| {worst:.3g}")


@pytest.fixture(scope="module")
def student_fit():
    data = sample_student(T_BENCH, 5000, seed=20260809)
    config = FitConfig(n_h=2, restarts=5, max_evals=6000, seed=7)
    start = time.time()
    result = fit_density(data, config)
    return data, result, time.time() - start


@pytest.mark.slow
def test_criterion_06_student_t_experiment(student_fit):
    data, result, elapsed = student_fit
    assert validate(result.params).valid
    mses = {}
    for x1 in (-2.0, 0.0, 1.0):
        ct = student_conditional(T_BENCH, [0], [x1])
        ref = np.exp(conditional_logpdf(ct, data[:, 1][:, None]))
        child, _ = condition_on(result.params, [0], [x1])
        cand = np.exp(log_pdf_many(child, data[:, 1][:, None]))
        mses[x1] = float(np.mean((ref - cand) ** 2))
    ok = all(v <= 1e-3 for v in mses.values()) and elapsed <= 1800.0
    detail = ", ".join(f"mse(x1={k})={v:.3g}" for k, v in mses.items())
    report(6, "student-t-experiment",
           ok, detail + f"; nll={result.nll:.1f} (recorded, non-binding), "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_sampler_fidelity(tfit_params):
    samples = sample_visible(tfit_params, 50000, seed=7)
    # ~550 rows survive the window; 32 bins keeps the histogram honest
    hist = empirical_conditional(samples, [0], [-2.0], window=0.05, bins=32)
    child, _ = condition_on(tfit_params, [0], [-2.0])
    ref = np.exp(log_pdf_many(child, hist.centers[0][:, None]))
    mse = float(np.mean((hist.density - ref) ** 2))
    report(7, "sampler-fidelity", mse <= 1e-3,
           f"mse {mse:.3g} over {hist.counts.sum()} in-window samples")


def test_criterion_08_mixture_equivalence(fixtures):
    worst = 0.0
    for name, params in fixtures.items():
        hd = hidden_distribution(params)
        chol = la.cholesky(params.t, lower=True)
        means = la.cho_solve((chol, True),
                             params.w @ hd.points.T - params.bv[:, None]).T
        logdet = 2 * np.log(np.diag(chol)).sum()
        vs = sample_visible(params, 100, seed=808)
        dev = vs[:, None, :] - means[None, :, :]
        quad = np.einsum("bki,ij,bkj->bk", dev, params.t, dev)
        comp = (0.5 * logdet - 0.5 * params.n_v * np.log(2 * np.pi)
                - 0.5 * quad)
        mixture = logsumexp(comp + hd.log_weights[None, :], axis=1)
        rel = np.abs(np.expm1(mixture - log_pdf_many(params, vs))).max()
        worst = max(worst, rel)
    report(8, "mixture-equivalence", worst <= 1e-9,
           f"worst rel diff {worst:.3g} at 100 points per fixture")


def test_criterion_09_cma_es_sanity():
    sphere = lambda x: float(x @ x)
    res_a = minimize(sphere, 0.5 * np.ones(10),
                     max_evals=10000, seed=1)
    res_b = minimize(sphere, 0.5 * np.ones(10),
                     max_evals=10000, seed=1)

    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    res_r = minimize(rosen, np.zeros(2), max_evals=20000,
                     seed=2)
    ok = (res_a.f_best <= 1e-10 and res_a.evals <= 10000
          and res_r.f_best <= 1e-6 and res_r.evals <= 20000
          and res_a.trace == res_b.trace)
    report(9, "cma-es-sanity", ok,
           f"sphere {res_a.f_best:.2g} in {res_a.evals} evals, "
           f"rosenbrock {res_r.f_best:.2g} in {res_r.evals} evals, "
           f"deterministic={res_a.trace == res_b.trace}")


@pytest.mark.slow
def test_criterion_10_cli_pipeline(tmp_path):
    def cli(*args):
        code = run_command([str(a) for a in args])
        assert code == 0, f"command {args} exited {code}"

    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    cli("student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4",
        "--nu", "6", "--count", "5000", "--seed", "1", "--out", data)
    start = time.time()
    cli("fit", "--data", data, "--nh", "2", "--seed", "11",
        "--restarts", "5", "--max-evals", "6000", "--out", model)
    elapsed = time.time() - start

    # model files must be value-stable across a read/write cycle
    params = load_model(model)
    resaved = tmp_path / "resaved.json"
    save_model(params, resaved)
    again = load_model(resaved)
    stable = all(np.array_equal(getattr(params, n), getattr(again, n))
                 for n in ("t", "q", "w", "bv", "bh"))

    mses = {}
    for x1 in ("-2", "0", "1"):
        child = tmp_path / f"child{x1}.json"
        cand = tmp_path / f"cand{x1}.csv"
        ref = tmp_path / f"ref{x1}.csv"
        cli("conditional", "--model", model, "--on", f"0={x1}", "--out", child)
        cli("density", "--model", child, "--points-csv", data,
            "--points-cols", "1", "--out", cand)
        cli("student", "conditional", "--mu", "0,0", "--sigma", "2,-1,-1,4",
            "--nu", "6", "--on", f"0={x1}", "--points-csv", data,
            "--points-cols", "1", "--out", ref)
        ref_vals = np.loadtxt(ref, delimiter=",")[:, 1]
        cand_vals = np.loadtxt(cand, delimiter=",")[:, 1]
        mses[x1] = float(np.mean((ref_vals - cand_vals) ** 2))

    ok = stable and all(v <= 1e-3 for v in mses.values())
    detail = ", ".join(f"mse(x1={k})={v:.3g}" for k, v in mses.items())
    report(10, "cli-pipeline", ok,
           detail + f"; files value-stable={stable}, fit {elapsed:.0f}s")
