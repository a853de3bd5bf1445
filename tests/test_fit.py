import math
import warnings

import numpy as np
import pytest

import rtbm.cma
import rtbm.density
import rtbm.fit
import rtbm.model
import rtbm.theta
from rtbm.cma import minimize
from rtbm.errors import FitError, NotPositiveDefiniteError
from rtbm.fit import (FitConfig, decode, fit_density, free_parameter_count,
                      make_objective, negative_log_likelihood)
from rtbm.model import RtbmParams, validate
from rtbm.oracle import StudentTParams, sample_student
from rtbm.theta import Lattice


class TestNegativeLogLikelihood:
    def test_standard_normal_point(self):
        p = RtbmParams(t=np.eye(2), q=np.eye(2), w=np.zeros((2, 2)),
                       bv=np.zeros(2), bh=np.zeros(2))
        assert negative_log_likelihood(p, [[0.0, 0.0]]) == pytest.approx(
            math.log(2 * math.pi), abs=1e-12)

    def test_additivity(self, tfit_params):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 2))
        b = rng.standard_normal((25, 2))
        joint = negative_log_likelihood(tfit_params, np.vstack([a, b]))
        split = (negative_log_likelihood(tfit_params, a)
                 + negative_log_likelihood(tfit_params, b))
        assert joint == pytest.approx(split, rel=1e-14)

    def test_recorded_loss_on_fresh_draw(self, tfit_params):
        # informational: the fixture's total natural-log NLL on 5000 fresh
        # t-distribution samples lands near the differential-entropy scale
        # (~2.1e4), not near 1.3e4
        tp = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]],
                            nu=6.0)
        data = sample_student(tp, 5000, seed=404)
        nll = negative_log_likelihood(tfit_params, data)
        assert math.isfinite(nll)
        print(f"fixture nll on 5000 fresh t samples: {nll:.1f}")
        assert 1.5e4 < nll < 3.0e4

    @pytest.mark.parametrize("fields", [
        dict(t=[[1.0]], w=[[1e200]], bv=[0.0]),            # Schur matrix overflows
        dict(t=[[1e-200]], w=[[1e-110]], bv=[1e200]),      # its argument overflows
    ])
    def test_overflowing_normalizer_scores_inf(self, fields):
        p = RtbmParams(q=[[1.0]], bh=[0.0], **fields)
        assert negative_log_likelihood(p, [[0.5], [-1.0]]) == math.inf

    def test_overflowing_numerator_scores_inf(self):
        # valid (Schur matrix 9e300), but W^T v + bh overflows at the data row
        p = RtbmParams(t=[[1.0]], q=[[1e301]], w=[[1e150]], bv=[0.0], bh=[0.0])
        assert negative_log_likelihood(p, [[1e200]]) == math.inf

    def test_far_row_scores_inf_without_warning(self):
        # u^T T u / 2 and log theta(W^T v + bh | Q) both overflow to +inf
        p = RtbmParams(t=[[1.0]], q=[[1.0]], w=[[0.5]], bv=[0.0], bh=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert negative_log_likelihood(p, [[1e200]]) == math.inf

    def test_dimension_mismatch(self, tfit_params):
        with pytest.raises(ValueError, match="width"):
            negative_log_likelihood(tfit_params, np.zeros((5, 3)))

    def test_nan_data_raises_before_an_overflowing_normalizer(self):
        # the child's normalizer is +inf, which alone would score +inf
        p = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[0.5], [0.5]], bv=[0.0, 0.0],
                       bh=[0.0])
        child, _ = rtbm.density.condition_on(p, [1], [1e200])
        assert negative_log_likelihood(child, [[0.0]]) == math.inf
        with pytest.raises(ValueError, match=r"NaN or infinite values in 1 row\(s\)"):
            negative_log_likelihood(child, [[0.0], [math.nan]])

    def test_no_rows_raises(self, tfit_params):
        with pytest.raises(ValueError, match="^data must be nonempty$"):
            negative_log_likelihood(tfit_params, np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_raises(self, tfit_params, bad):
        data = np.zeros((4, 2))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            negative_log_likelihood(tfit_params, data)


class TestFitConfig:
    @pytest.mark.parametrize("settings, message", [
        ({"n_h": 1.5}, "^n_h 1.5 is not an integer$"),
        ({"restarts": 1.5}, "^restarts 1.5 is not an integer$"),
        ({"max_evals": 20.5}, "^max_evals 20.5 is not an integer$"),
        ({"seed": 1.5}, "^seed 1.5 is not an integer$"),
        ({"n_h": 0}, "^n_h must be at least 1, got 0$"),
        ({"restarts": 0}, "^restarts must be at least 1, got 0$"),
        ({"max_evals": -3}, "^max_evals must be at least 1, got -3$"),
        ({"seed": -1}, "^seed must be at least 0, got -1$"),
    ], ids=["n_h-float", "restarts-float", "max_evals-float", "seed-float",
            "n_h-zero", "restarts-zero", "max_evals-negative", "seed-negative"])
    def test_bad_setting_is_named(self, settings, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(**{"n_h": 1, **settings})

    def test_numpy_integers_become_ints(self):
        config = FitConfig(n_h=np.int64(2), restarts=np.int32(3), seed=np.uint8(4))
        assert (config.n_h, config.restarts, config.seed) == (2, 3, 4)
        assert type(config.n_h) is int and type(config.seed) is int

    def test_lattice_is_converted_and_checked(self):
        assert FitConfig(n_h=1, lattice="nonneg").lattice is Lattice.NONNEG
        # refused on construction, not by the first objective call of a fit
        with pytest.raises(ValueError, match="^lattice must be one of full, nonneg, "
                                             "got 'bogus'$"):
            FitConfig(n_h=1, lattice="bogus")


class TestEncodeDecode:
    def test_vector_length(self):
        assert free_parameter_count(2, 2) == 14
        assert free_parameter_count(3, 1) == 3 + 6 + 1 + 3 + 1

    def test_zero_vector_gives_identity_model(self):
        p = decode(np.zeros(14), 2, 2)
        np.testing.assert_array_equal(p.t, np.eye(2))
        np.testing.assert_array_equal(p.q, np.eye(2))
        np.testing.assert_array_equal(p.w, np.zeros((2, 2)))
        np.testing.assert_array_equal(p.bv, np.zeros(2))
        np.testing.assert_array_equal(p.bh, np.zeros(2))

    def test_decode_always_pd(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = decode(rng.normal(0, 2, 14), 2, 2)
            assert np.linalg.eigvalsh(p.t)[0] > 0
            assert np.linalg.eigvalsh(p.q)[0] > 0

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            decode(np.zeros(13), 2, 2)

    @pytest.mark.parametrize("index, name", [(0, "T"), (1, "Q")])
    def test_overflowing_factor_is_a_typed_error(self, index, name):
        x = np.zeros(5)
        x[index] = 400.0            # exp(400)^2 overflows
        with pytest.raises(NotPositiveDefiniteError, match=f"^{name} is not finite"):
            decode(x, 1, 1)

    @pytest.mark.parametrize("index, name", [(2, "w"), (3, "bv"), (4, "bh")])
    def test_non_finite_weight_or_bias_is_named(self, index, name):
        x = np.zeros(5)
        x[index] = math.inf
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            decode(x, 1, 1)


class TestMinimize:
    def test_sphere(self):
        res = minimize(lambda x: float(x @ x), 0.5 * np.ones(10),
                       max_evals=10000, seed=1)
        assert res.f_best <= 1e-10
        assert res.evals <= 10000

    def test_rosenbrock(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        res = minimize(rosen, np.zeros(2), max_evals=20000,
                       seed=2)
        assert res.f_best <= 1e-6

    def test_seed_reproducibility(self):
        runs = [minimize(lambda x: float(x @ x), np.ones(5),
                         max_evals=2000, seed=9) for _ in range(2)]
        assert runs[0].trace == runs[1].trace
        assert np.array_equal(runs[0].x_best, runs[1].x_best)

    def test_trace_monotone(self):
        res = minimize(lambda x: float(x @ x), np.ones(5),
                       max_evals=2000, seed=3)
        best = [f for _, f in res.trace]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_handles_infinite_objective(self):
        def spiky(x):
            return math.inf if x[0] > 0 else float(x @ x)
        res = minimize(spiky, -np.ones(3), max_evals=3000, seed=4)
        assert math.isfinite(res.f_best)

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            minimize(lambda x: 0.0, np.zeros(0), max_evals=10, seed=0)

    def test_stop_reason_budget(self):
        res = minimize(lambda x: float(x @ x), np.ones(4), max_evals=40, seed=5)
        assert res.stop == "budget"
        assert res.evals >= 40

    def test_stop_reason_stall_on_constant_objective(self):
        # the first generation improves on +inf; none does after it
        res = minimize(lambda x: 1.0, np.zeros(3), max_evals=100000, seed=6)
        lam = 4 + int(3 * math.log(3))
        stall_gens = math.ceil(rtbm.cma.STALL_EVALS_PER_DIM * 3 / lam)
        assert res.stop == "stall"
        assert res.evals == (stall_gens + 1) * lam
        assert res.f_best == 1.0

    def test_stop_reason_sigma(self):
        res = minimize(lambda x: 1e60 * float(x @ x), np.ones(2), max_evals=100000, seed=1)
        assert res.stop == "sigma"
        assert res.evals < 100000

    def test_stop_reason_condition(self):
        # only x[0] matters, so the covariance stretches along x[1]
        res = minimize(lambda x: 1e60 * float(x[0] ** 2), np.ones(2), max_evals=100000,
                       seed=1)
        assert res.stop == "condition"
        assert res.evals < 100000

    def test_stop_reason_stall_on_infinite_objective(self):
        # +inf never improves on the starting +inf, so the run stops after
        # stall_gens generations
        res = minimize(lambda x: math.inf, np.zeros(3), max_evals=100000, seed=7)
        lam = 4 + int(3 * math.log(3))
        stall_gens = math.ceil(rtbm.cma.STALL_EVALS_PER_DIM * 3 / lam)
        assert res.stop == "stall"
        assert res.evals == stall_gens * lam
        assert res.f_best == math.inf


class TestObjective:
    def _count_wide_sums(self, monkeypatch):
        rows = []
        inner = rtbm.density._log_theta_rows

        def counting(z, *args, **kwargs):
            rows.append(z.shape[1])     # coordinate rows (h, B)
            return inner(z, *args, **kwargs)
        monkeypatch.setattr(rtbm.density, "_log_theta_rows", counting)
        monkeypatch.setattr(rtbm.model, "_log_theta_rows", counting)
        return rows

    def test_infeasible_candidate_scores_inf_without_wide_sum(self, monkeypatch):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((100, 2))
        objective = make_objective(data, 2, "full")
        # T = Q = I and W = 3 I: the Schur matrix I - W^T W = -8 I
        x = np.zeros(14)
        x[6:10] = [3.0, 0.0, 0.0, 3.0]
        assert not validate(decode(x, 2, 2)).valid
        rows = self._count_wide_sums(monkeypatch)
        assert objective(x) == math.inf
        assert rows == [1]          # the normalizer's batch-1 sum only

    def test_infeasible_candidate_computes_no_eigenvalue(self, monkeypatch):
        # the error the Schur matrix raises is discarded, so its eigenvalue,
        # quoted only in its message, is never computed
        data = np.random.default_rng(11).standard_normal((100, 2))
        objective = make_objective(data, 2, "full")
        x = np.zeros(14)
        x[6:10] = [3.0, 0.0, 0.0, 3.0]      # the Schur matrix I - W^T W = -8 I
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        real = rtbm.theta.la.eigvalsh
        monkeypatch.setattr(rtbm.theta.la, "eigvalsh", counting)
        assert objective(x) == math.inf
        assert calls == []
        with pytest.raises(NotPositiveDefiniteError) as err:
            rtbm.theta.log_theta_many(np.zeros((1, 2)), -8.0 * np.eye(2))
        assert str(err.value) == "omega is not positive definite (min eigenvalue ~ -8)"
        assert err.value.min_eigenvalue == -8.0
        assert len(calls) == 1

    def test_overflowing_candidate_scores_inf(self):
        objective = make_objective(np.zeros((5, 1)), 1, "full")
        assert objective(np.array([400.0, 0.0, 0.0, 0.0, 0.0])) == math.inf

    @pytest.mark.parametrize("index", range(5), ids=["L_T", "L_Q", "w", "bv", "bh"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_scores_inf(self, index, bad):
        objective = make_objective(np.zeros((5, 1)), 1, "full")
        x = np.zeros(5)
        x[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective(x) == math.inf

    def test_feasible_candidate_scores_its_nll(self, monkeypatch):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((100, 2))
        objective = make_objective(data, 2, "full")
        x = rng.normal(0.0, 0.3, 14)
        rows = self._count_wide_sums(monkeypatch)
        value = objective(x)
        assert math.isfinite(value)
        assert value == negative_log_likelihood(decode(x, 2, 2), data)
        assert rows[:2] == [1, 100]


class TestFitDensity:
    def test_fitted_model_is_validated_once(self, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params)
            return validate(params)
        monkeypatch.setattr(rtbm.fit, "validate", counted)
        monkeypatch.setattr(rtbm.density, "validate", counted)
        data = sample_student(StudentTParams(mu=[0.0, 0.0], sigma=np.eye(2), nu=6.0), 200, 1)
        params = fit_density(data, FitConfig(n_h=1, restarts=1, max_evals=60, seed=11)).params
        rtbm.density.condition_on(params, [0], [-2.0])
        rtbm.density.log_marginal(params, 1, [0.5])
        assert calls == [params]

    @pytest.mark.slow
    def test_recovers_1d_gaussian_entropy(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((5000, 1))
        res = fit_density(data, FitConfig(n_h=1, restarts=2, max_evals=2500,
                                          seed=11))
        assert validate(res.params).valid
        per_point = res.nll / 5000
        entropy = 0.5 * math.log(2 * math.pi * math.e)
        assert per_point == pytest.approx(entropy, rel=0.02)
        assert res.nll == pytest.approx(
            negative_log_likelihood(res.params, data), abs=1e-9)

    @pytest.mark.slow
    def test_restart_selection_and_determinism(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((400, 1)) * 0.7 + 0.2
        cfg = FitConfig(n_h=1, restarts=3, max_evals=400, seed=21)
        a = fit_density(data, cfg)
        b = fit_density(data, cfg)
        assert a.nll == b.nll
        assert np.array_equal(a.params.t, b.params.t)
        best = [f for _, f in a.trace]
        assert all(y <= x for x, y in zip(best, best[1:]))

    def test_orthant_lattice_fit(self):
        data = np.random.default_rng(12).standard_normal((300, 2))
        cfg = FitConfig(n_h=1, restarts=1, max_evals=200, seed=3,
                        lattice=Lattice.NONNEG)
        res = fit_density(data, cfg)
        assert res.params.lattice is Lattice.NONNEG
        assert validate(res.params).valid
        assert res.nll == negative_log_likelihood(res.params, data)
        again = fit_density(data, cfg)
        assert again.nll == res.nll and again.evals == res.evals
        for name in ("t", "q", "w", "bv", "bh"):
            np.testing.assert_array_equal(getattr(again.params, name),
                                          getattr(res.params, name))

    def test_empty_data(self):
        with pytest.raises(Exception):
            fit_density(np.zeros((0, 2)), FitConfig(n_h=1))

    def test_no_finite_restart_is_a_plain_error(self, monkeypatch):
        # every candidate scores +inf: the NLL the objective calls
        monkeypatch.setattr(rtbm.fit, "_negative_log_likelihood",
                            lambda *args: math.inf)
        data = np.random.default_rng(0).standard_normal((50, 1))
        with pytest.raises(FitError, match="no restart found a model whose "
                           "likelihood could be evaluated: f_best=inf"):
            fit_density(data, FitConfig(n_h=1, restarts=2, max_evals=8))

    def test_error_names_why_each_restart_ended(self, monkeypatch):
        # every candidate scores +inf: the NLL the objective calls
        monkeypatch.setattr(rtbm.fit, "_negative_log_likelihood",
                            lambda *args: math.inf)
        data = np.random.default_rng(0).standard_normal((50, 1))
        with pytest.raises(FitError) as caught:
            fit_density(data, FitConfig(n_h=1, restarts=2, max_evals=8))
        assert str(caught.value).count("stop=budget") == 2
        with pytest.raises(FitError) as caught:
            fit_density(data, FitConfig(n_h=1, restarts=2, max_evals=100000))
        assert str(caught.value).count("stop=stall") == 2

    def test_non_finite_data_is_rejected_up_front(self):
        data = np.random.default_rng(0).standard_normal((50, 2))
        data[[7, 30], 0] = [math.nan, -math.inf]
        with pytest.raises(FitError, match="2 row.*first at index 7"):
            fit_density(data, FitConfig(n_h=1, restarts=1, max_evals=8))
