import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONSTRUCTED_2D, CONSTRUCTED_3D, TFIT, random_valid_params
from references import log_theta_reference, quadrature_marginal
from rtbm.density import as_points, condition_on, log_marginal, log_pdf, log_pdf_many
from rtbm.errors import FitError, InsufficientSamplesError, RtbmError
from rtbm.fit import FitConfig, fit_density, negative_log_likelihood
from rtbm.model import SCHUR, RtbmParams, validate
from rtbm.oracle import StudentTParams, student_logpdf
from rtbm.sampling import (empirical_conditional, hidden_distribution, make_histogram,
                           sample_visible)
from rtbm.theta import Lattice


def gaussian_logpdf(t, bv, vs):
    """Independent multivariate-normal oracle with precision t, mean -t^-1 bv."""
    mu = -np.linalg.solve(t, bv)
    _, logdet_t = np.linalg.slogdet(t)
    dev = vs - mu
    quad = np.einsum("bi,ij,bj->b", dev, t, dev)
    return 0.5 * logdet_t - 0.5 * t.shape[0] * np.log(2 * np.pi) - 0.5 * quad


class TestLogPdf:
    def test_gaussian_reduction_at_origin(self):
        p = RtbmParams(t=np.eye(2), q=[[3.0, 0.2], [0.2, 2.0]],
                       w=np.zeros((2, 2)), bv=np.zeros(2), bh=[1.0, -2.0])
        assert log_pdf(p, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi),
                                                       abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_gaussian_reduction_random(self, seed, n_v):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n_v, n_v))
        t = a @ a.T + n_v * np.eye(n_v)
        bv = rng.standard_normal(n_v)
        p = RtbmParams(t=t, q=[[5.0]], w=np.zeros((n_v, 1)), bv=bv, bh=[0.7])
        vs = rng.standard_normal((30, n_v)) * 2
        np.testing.assert_allclose(log_pdf_many(p, vs),
                                   gaussian_logpdf(t, bv, vs),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n_v", [7, 8, 12, 20])
    def test_gaussian_reduction_wide(self, n_v):
        # on both sides of the width where the half-quadratic changes summation
        rng = np.random.default_rng(n_v)
        a = rng.standard_normal((n_v, n_v))
        t = a @ a.T + n_v * np.eye(n_v)
        bv = rng.standard_normal(n_v)
        p = RtbmParams(t=t, q=[[5.0]], w=np.zeros((n_v, 1)), bv=bv, bh=[0.7])
        vs = rng.standard_normal((300, n_v)) * 2
        # log P reaches about -1400 here, so the bound is relative
        np.testing.assert_allclose(log_pdf_many(p, vs), gaussian_logpdf(t, bv, vs),
                                   atol=1e-12, rtol=1e-14)

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("model", ["tfit", "constructed_2d", "constructed_3d",
                                       "random_nv3_nh1", "random_nv3_nh2",
                                       "random_nv8_nh1", "random_nv8_nh2"])
    def test_point_does_not_depend_on_its_batch(self, model, lattice):
        # Each row equals log_pdf of that point and the reversed batch's row,
        # bit for bit.  CONSTRUCTED_3D and n_h = 1 have a one-column W, which
        # an einsum would sum in another order for a single-row batch.
        fixtures = {"tfit": TFIT, "constructed_2d": CONSTRUCTED_2D,
                    "constructed_3d": CONSTRUCTED_3D}
        if model in fixtures:
            params = RtbmParams(**fixtures[model], lattice=lattice)
        else:
            n_v, n_h = (int(part[2:]) for part in model.split("_")[1:])
            params = random_valid_params(np.random.default_rng(n_v + 10 * n_h), n_v, n_h,
                                         lattice)
        vs = np.random.default_rng(2026).normal(0.0, 2.0, (300, params.n_v))
        batch = log_pdf_many(params, vs)
        assert np.isfinite(batch).all()
        np.testing.assert_array_equal(batch, [log_pdf(params, v) for v in vs])
        np.testing.assert_array_equal(batch[::-1], log_pdf_many(params, vs[::-1]))

    def test_value_against_reference_theta(self, tfit_params):
        # independent path: assemble the density from brute-force theta sums
        v = np.array([0.0, 0.0])
        t, q, w = tfit_params.t, tfit_params.q, tfit_params.w
        bh = tfit_params.bh
        num = log_theta_reference(bh + w.T @ v, q, radius=10)
        den = log_theta_reference(bh, q - w.T @ np.linalg.solve(t, w), radius=10)
        _, logdet = np.linalg.slogdet(t)
        expected = 0.5 * logdet - math.log(2 * math.pi) + num - den
        assert log_pdf(tfit_params, v) == pytest.approx(expected, abs=1e-10)

    def test_normalizes(self, tfit_params):
        xs = np.linspace(-12, 12, 601)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        total = np.exp(log_pdf_many(tfit_params, grid)).sum() * (xs[1] - xs[0])**2
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_dimension_check(self, tfit_params):
        with pytest.raises(ValueError, match="width"):
            log_pdf_many(tfit_params, np.zeros((3, 3)))

    def test_overflowing_numerator_is_a_typed_error(self):
        # a valid model (Schur matrix 9e300) whose theta argument W^T v + bh
        # overflows at the second point
        p = RtbmParams(t=[[1.0]], q=[[1e301]], w=[[1e150]], bv=[0.0], bh=[0.0])
        assert validate(p).valid
        with pytest.raises(RtbmError, match=r"W\^T v \+ bh is not finite .* "
                           r"1 point\(s\), first at index 1"):
            log_pdf_many(p, [[0.0], [1e200]])

    def test_far_point_is_minus_inf_without_warning(self):
        # u^T T u / 2 overflows to +inf at v = 1e200; W = 0 keeps theta finite
        p = RtbmParams(t=[[1.0]], q=[[1.0]], w=[[0.0]], bv=[0.0], bh=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = log_pdf_many(p, [[0.0], [1e200]])
        assert logp[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)
        assert logp[1] == -math.inf

    def test_far_point_with_overflowing_theta_is_minus_inf_without_warning(self):
        # at v = 1e200 u^T T u / 2 and log theta(W^T v + bh | Q) are both +inf
        p = RtbmParams(t=[[1.0]], q=[[1.0]], w=[[0.5]], bv=[0.0], bh=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = log_pdf_many(p, [[1.0], [1e200], [-1e200]])
        assert logp[0] == log_pdf(p, [1.0])
        assert logp[1] == logp[2] == -math.inf

    def test_far_point_with_two_hidden_units_is_finite_without_warning(self):
        # at v = 1e19 the theta argument W^T v is near 1e19, where the
        # rounded maximizer of the h = 2 sum is off by far more than 1/2
        p = RtbmParams(t=[[1.0]], q=[[19.0, 4.0], [4.0, 17.0]], w=[[1.0, 0.5]],
                       bv=[0.0], bh=[0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = log_pdf_many(p, [[1.0], [1e19], [-3e19]])
        assert np.isfinite(logp).all()
        assert logp[0] == log_pdf(p, [1.0])
        # log theta(z | Q) ~ z^T Q^-1 z / 2, with w^T Q^-1 w = 17.75 / 307
        assert logp[1] == pytest.approx(-0.5e38 * (1.0 - 17.75 / 307.0), rel=1e-9)

    def test_overflowing_shift_is_minus_inf_without_warning(self):
        # at v = 1.7e308 the shift u = v + T^-1 bv overflows to inf, and the
        # factor's zeros would turn u^T T u into NaN; at v = -T^-1 bv, u = 0
        p = RtbmParams(t=[[1.0, 0.5], [0.5, 1.0]], q=[[1.0]], w=np.zeros((2, 1)),
                       bv=[1e308, 0.0], bh=[0.0])
        near = -p.tinv_bv
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = log_pdf_many(p, [[1.7e308, 1.7e308], near])
        assert logp[0] == -math.inf
        assert logp[1] == log_pdf_many(p, [near])[0]
        assert logp[1] == pytest.approx(
            0.5 * math.log(0.75) - math.log(2 * math.pi), abs=1e-14)

    def test_overflowing_normalizer_is_a_named_error(self):
        # conditioning on d = 1e200 gives the child bh = 5e199, whose
        # normalizer log theta(bh - W^T T^-1 bv | Schur) is +inf
        from rtbm.fit import negative_log_likelihood

        p = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[0.5], [0.5]], bv=[0.0, 0.0],
                       bh=[0.0])
        child, _ = condition_on(p, [1], [1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RtbmError, match=r"normalizer log theta\(bh - W\^T T\^-1 bv"):
                log_pdf_many(child, [[0.0]])
            assert negative_log_likelihood(child, [[0.0]]) == math.inf


class TestLogMarginal:
    def test_gaussian_block_marginal(self):
        # W = 0: P(d) is the Gaussian marginal with the trailing block of T^-1
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3))
        t = a @ a.T + 3 * np.eye(3)
        bv = rng.standard_normal(3)
        p = RtbmParams(t=t, q=[[6.0]], w=np.zeros((3, 1)), bv=bv, bh=[0.0])
        cov = np.linalg.inv(t)
        mu = -np.linalg.solve(t, bv)
        for m in (1, 2):
            d = rng.standard_normal(3 - m)
            sub = cov[m:, m:]
            dev = d - mu[m:]
            _, logdet = np.linalg.slogdet(sub)
            expected = (-0.5 * (3 - m) * np.log(2 * np.pi) - 0.5 * logdet
                        - 0.5 * dev @ np.linalg.solve(sub, dev))
            assert log_marginal(p, m, d) == pytest.approx(expected, abs=1e-12)

    def test_tfit_against_quadrature(self, tfit_params):
        for d in (-2.0, 0.5):
            quad = quadrature_marginal(tfit_params, 1, [d], [(-30.0, 30.0, 20001)])
            closed = log_marginal(tfit_params, 1, [d])
            assert abs(np.expm1(closed - quad)) <= 1e-8

    def test_3d_against_2d_quadrature(self, constructed_3d_params):
        d = -0.4
        quad = quadrature_marginal(constructed_3d_params, 2, [d],
                                   [(-9.0, 4.0, 1301), (-3.0, 2.0, 501)])
        closed = log_marginal(constructed_3d_params, 2, [d])
        assert abs(np.expm1(closed - quad)) <= 1e-6

    def test_far_value_is_minus_inf_without_warning(self):
        # d^T T_dd d overflows and the child's normalizer is +inf at d = 1e200
        p = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[0.5], [0.5]], bv=[0.0, 0.0],
                       bh=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_marginal(p, 1, [1e200]) == -math.inf
            assert math.isfinite(log_marginal(p, 1, [1.0]))

    def test_non_finite_value_is_named_without_warning(self):
        # with T = I the conditioned block enters the child's bv through a
        # zero matrix product, where inf * 0 would warn
        p = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[0.5], [0.5]], bv=[0.0, 0.0],
                       bh=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^conditioning value at index 1 is not finite$"):
                log_marginal(p, 1, [math.inf])

    def test_non_integer_m_is_named(self, tfit_params):
        with pytest.raises(ValueError, match="^m 1.0 is not an integer$"):
            log_marginal(tfit_params, 1.0, [0.5])

    def test_rejects_empty_free_block(self, tfit_params):
        with pytest.raises(ValueError):
            log_marginal(tfit_params, 2, [])
        with pytest.raises(ValueError):
            log_marginal(tfit_params, 0, [0.0, 0.0])


class TestCondition:
    def test_decoupled_blocks_ignore_d(self):
        # T1 = 0 and W1 = 0 make the child independent of the conditioned value
        t = np.diag([1.0, 2.0])
        w = np.array([[0.5, -0.3], [0.0, 0.0]])
        p = RtbmParams(t=t, q=np.eye(2) * 8, w=w, bv=[0.1, -0.2], bh=[0.3, 0.4])
        c1 = condition_on(p, [1], [3.0])[0]
        c2 = condition_on(p, [1], [-11.0])[0]
        for name in ("t", "q", "w", "bv", "bh"):
            np.testing.assert_array_equal(getattr(c1, name), getattr(c2, name))

    def test_reparameterization_values(self, tfit_params):
        # conditioning on the leading coordinate at -2: child values follow
        # from the block arithmetic of the swapped model
        child, free = condition_on(tfit_params, [0], [-2.0])
        assert free == [1]
        np.testing.assert_allclose(child.t, [[0.30]], rtol=0)
        np.testing.assert_array_equal(child.w, tfit_params.w[[1], :])
        np.testing.assert_allclose(child.bv, [0.18 * -2.0], rtol=0)
        np.testing.assert_allclose(
            child.bh, tfit_params.bh + tfit_params.w[0] * -2.0, rtol=0)
        np.testing.assert_allclose(child.bh, [10.44, 15.36], atol=1e-12)

    def test_child_passes_validation(self, constructed_2d_params):
        child = condition_on(constructed_2d_params, [1], [2.0])[0]
        assert validate(child).valid

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_chained_conditioning(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, 4, 2)
        d_tail = rng.uniform(-1.5, 1.5, 1)
        d_mid = rng.uniform(-1.5, 1.5, 1)
        two_step = condition_on(condition_on(p, [3], d_tail)[0], [2], d_mid)[0]
        one_step = condition_on(p, [2, 3], np.concatenate([d_mid, d_tail]))[0]
        ys = rng.standard_normal((10, 2))
        np.testing.assert_allclose(log_pdf_many(two_step, ys),
                                   log_pdf_many(one_step, ys), atol=1e-10,
                                   rtol=0)

    @pytest.mark.parametrize("fixture", ["tfit_params", "constructed_2d_params",
                                         "constructed_3d_params"])
    def test_condition_on_matches_permuted_parent(self, fixture, request):
        # the child is built from the parent's arrays by index, bit for bit
        # as conditioning the relabelled parent on its trailing block
        params = request.getfixturevalue(fixture)
        rng = np.random.default_rng(params.n_v)
        for indices in ([0], [params.n_v - 1], list(range(params.n_v - 1, 0, -1))):
            values = rng.standard_normal(len(indices))
            free = [i for i in range(params.n_v) if i not in indices]
            child, got_free = condition_on(params, indices, values)
            order = free + indices
            moved = RtbmParams(t=params.t[np.ix_(order, order)], q=params.q,
                               w=params.w[order], bv=params.bv[order], bh=params.bh,
                               lattice=params.lattice)
            expected = condition_on(moved, range(len(free), params.n_v), values)[0]
            assert got_free == free
            for name in ("t", "q", "w", "bv", "bh"):
                np.testing.assert_array_equal(getattr(child, name), getattr(expected, name))
            assert child.lattice is expected.lattice

    def test_non_finite_value_is_named_without_warning(self, tfit_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^conditioning value at index 0 is not finite$"):
                condition_on(tfit_params, [0], [math.nan])

    def test_m_bounds(self, tfit_params):
        with pytest.raises(ValueError, match="every coordinate"):
            condition_on(tfit_params, [1, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            condition_on(tfit_params, [0, 5], [1.0, 2.0])

    def test_float_index_is_named_not_truncated(self, tfit_params):
        with pytest.raises(ValueError, match=r"^conditioned index 0\.7 is not an integer$"):
            condition_on(tfit_params, [0.7], [1.0])
        # numpy integers are indices
        child, free = condition_on(tfit_params, np.array([0]), [1.0])
        assert free == [1]
        np.testing.assert_array_equal(child.t, condition_on(tfit_params, [0], [1.0])[0].t)

    def test_value_count_mismatch_names_both_counts(self, tfit_params):
        with pytest.raises(ValueError, match=r"^2 conditioning values for 1 indices$"):
            condition_on(tfit_params, [0], [1.0, 2.0])


class TestProductRule:
    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_models(self, lattice, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, 3, 2, lattice)
        m = int(rng.integers(1, 3))
        d = rng.uniform(-2, 2, 3 - m)
        child = condition_on(p, range(m, p.n_v), d)[0]
        marg = log_marginal(p, m, d)
        for _ in range(5):
            y = rng.uniform(-3, 3, m)
            joint = log_pdf(p, np.concatenate([y, d]))
            assert joint == pytest.approx(log_pdf(child, y) + marg, abs=1e-9)

    def test_child_integrates_to_one(self, tfit_params):
        child, _ = condition_on(tfit_params, [0], [-2.0])
        xs = np.linspace(-25, 25, 10001)
        total = np.trapezoid(np.exp(log_pdf_many(child, xs[:, None])), xs)
        assert total == pytest.approx(1.0, abs=1e-4)


# the models, requests and values the kept-child test interleaves
KEPT_MODELS = {f"{name}/{lattice.value}": (fields, lattice)
               for name, fields in (("tfit", TFIT), ("constructed_2d", CONSTRUCTED_2D),
                                    ("constructed_3d", CONSTRUCTED_3D))
               for lattice in Lattice}
KEPT_REQUESTS = {2: [[1], [0]], 3: [[1, 2], [2, 1], [2], [0]]}
KEPT_VALUES = [0.3, 0.0, -0.0, 1.5]


def assert_same_bits(got, expected):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestPreparedModel:
    """T is factored and the normalizer summed once per model instance."""

    def count_calls(self, monkeypatch):
        import rtbm.density
        import rtbm.model
        calls = {"cholesky": 0, "theta": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rtbm.model, "spd_cholesky",
                            counted("cholesky", rtbm.model.spd_cholesky))
        theta = counted("theta", rtbm.density._log_theta_rows)
        monkeypatch.setattr(rtbm.density, "_log_theta_rows", theta)
        monkeypatch.setattr(rtbm.model, "_log_theta_rows", theta)
        return calls

    def test_second_call_factors_nothing(self, tfit_params, monkeypatch):
        calls = self.count_calls(monkeypatch)
        vs = np.array([[0.3, -1.2], [2.0, 0.5]])
        first = log_pdf_many(tfit_params, vs)
        assert calls == {"cholesky": 1, "theta": 2}
        second = log_pdf_many(tfit_params, vs)
        assert calls == {"cholesky": 1, "theta": 3}
        np.testing.assert_array_equal(first, second)

    def test_normalizer_kept_per_model(self, tfit_params, monkeypatch):
        calls = self.count_calls(monkeypatch)
        log_marginal(tfit_params, 1, [0.4])
        log_marginal(tfit_params, 1, [0.4])
        log_pdf(tfit_params, [0.1, 0.4])
        # one normalizer of the parent, one of the child the two calls share,
        # one numerator
        assert calls["theta"] == 3

    def test_one_request_builds_one_child(self, tfit_params, monkeypatch):
        import rtbm.density
        log_pdf(tfit_params, [0.1, 0.4])        # the parent's normalizer
        calls = self.count_calls(monkeypatch)
        built = []
        real = RtbmParams._of_private

        def counted(lattice, **fields):
            built.append(fields)
            return real(lattice, **fields)

        monkeypatch.setattr(rtbm.density.RtbmParams, "_of_private", staticmethod(counted))
        child, _ = condition_on(tfit_params, [1], [0.4])
        assert condition_on(tfit_params, [1], [0.4])[0] is child
        first = log_marginal(tfit_params, 1, [0.4])
        assert log_marginal(tfit_params, 1, np.array([0.4])) == first
        # one child, and one theta call: its normalizer
        assert len(built) == 1 and calls["theta"] == 1
        assert condition_on(tfit_params, [1], [0.4])[0] is child
        # a different request replaces the kept child
        assert condition_on(tfit_params, [1], [0.5])[0] is not child
        assert condition_on(tfit_params, [1], [0.4])[0] is not child
        assert len(built) == 3

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(KEPT_MODELS)), st.integers(0, 3),
                              st.sampled_from(KEPT_VALUES), st.sampled_from(KEPT_VALUES),
                              st.booleans()), min_size=1, max_size=8))
    @example([("constructed_3d/full", 0, 0.3, -0.0, False),
              ("constructed_3d/full", 1, 0.3, -0.0, False),
              ("constructed_3d/full", 0, 0.3, 0.0, True),
              ("constructed_3d/full", 0, 0.3, -0.0, True),
              ("tfit/nonneg", 0, -0.0, 0.0, True), ("tfit/nonneg", 0, 0.0, 0.0, False),
              ("tfit/nonneg", 0, 1.5, 0.0, True)])
    def test_kept_child_is_a_fresh_child(self, requests):
        # requests interleaved on used models give, bit for bit, what fresh
        # models give: the same child density, marginal and draws
        used = {key: RtbmParams(**fields, lattice=lattice)
                for key, (fields, lattice) in KEPT_MODELS.items()}
        for key, which, a, b, marginal in requests:
            fields, lattice = KEPT_MODELS[key]
            params = used[key]
            indices = KEPT_REQUESTS[params.n_v][which % len(KEPT_REQUESTS[params.n_v])]
            values = [a, b][:len(indices)]
            fresh = RtbmParams(**fields, lattice=lattice)
            m = params.n_v - len(indices)
            if marginal and indices == list(range(m, params.n_v)):
                assert_same_bits(log_marginal(params, m, values), log_marginal(fresh, m, values))
                continue
            child, free = condition_on(params, indices, values)
            expected, _ = condition_on(fresh, indices, values)
            ys = np.random.default_rng(len(free)).normal(0.0, 2.0, (16, len(free)))
            assert_same_bits(log_pdf_many(child, ys), log_pdf_many(expected, ys))
            assert_same_bits(sample_visible(child, 500, 3), sample_visible(expected, 500, 3))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(KEPT_MODELS)), st.integers(0, 3),
                              st.sampled_from(KEPT_VALUES), st.sampled_from(KEPT_VALUES)),
                    min_size=2, max_size=10))
    @example([("constructed_3d/full", 0, 0.3, 1.5), ("constructed_3d/full", 1, 1.5, 0.3),
              ("constructed_3d/full", 0, -0.0, 0.3), ("constructed_3d/nonneg", 1, 0.0, 1.5),
              ("constructed_3d/nonneg", 0, 0.3, 0.0), ("tfit/nonneg", 0, 1.5, 0.0),
              ("tfit/nonneg", 0, 0.3, 0.0)])
    def test_planned_child_is_a_fresh_child(self, requests):
        # children of used models, whose free sets are planned, interleaving
        # values and both orders of a fixed pair, give bit for bit what the
        # children of fresh models give, and what a model built from the
        # child's own fields derives
        used = {key: RtbmParams(**fields, lattice=lattice)
                for key, (fields, lattice) in KEPT_MODELS.items()}
        for key, which, a, b in requests:
            fields, lattice = KEPT_MODELS[key]
            params = used[key]
            indices = KEPT_REQUESTS[params.n_v][which % len(KEPT_REQUESTS[params.n_v])]
            values = [a, b][:len(indices)]
            fresh = RtbmParams(**fields, lattice=lattice)
            child, free = condition_on(params, indices, values)
            expected, _ = condition_on(fresh, indices, values)
            own = RtbmParams(t=child.t, q=child.q, w=child.w, bv=child.bv, bh=child.bh,
                             lattice=lattice)
            for name in ("t", "w", "bv", "bh", "chol_t", "tinv_w", "schur", "tinv_bv",
                         "z_schur", "half_logdet_t", "half_bv_tinv_bv", "log_normalizer"):
                assert_same_bits(getattr(child, name), getattr(expected, name))
                assert_same_bits(getattr(child, name), getattr(own, name))
            assert validate(child) == validate(expected) == validate(own)
            assert validate(child).valid
            ys = np.random.default_rng(len(free)).normal(0.0, 2.0, (16, len(free)))
            assert_same_bits(log_pdf_many(child, ys), log_pdf_many(expected, ys))
            assert_same_bits(log_pdf_many(child, ys), log_pdf_many(own, ys))
            assert_same_bits(sample_visible(child, 500, 3), sample_visible(expected, 500, 3))
            m = params.n_v - len(indices)
            if indices == list(range(m, params.n_v)):
                assert_same_bits(log_marginal(params, m, values), log_marginal(fresh, m, values))

    def test_one_free_set_is_planned_once(self, monkeypatch):
        # 24 values on one pattern: T_yy is factored, and the child's Schur
        # matrix formed, once; every child shares the plan's arrays
        import rtbm.model
        params = RtbmParams(**CONSTRUCTED_3D)
        log_pdf(params, [0.1, 0.2, 0.3])        # the parent's own factors
        factored, formed = [], []
        real_cholesky, real_finite = rtbm.model.spd_cholesky, rtbm.model._finite

        def cholesky(a, name):
            factored.append(name)
            return real_cholesky(a, name)

        def finite(a, name):
            formed.append(name)
            return real_finite(a, name)

        monkeypatch.setattr(rtbm.model, "spd_cholesky", cholesky)
        monkeypatch.setattr(rtbm.model, "_finite", finite)
        ys = np.random.default_rng(3).normal(0.0, 1.0, (5, 2))
        children = []
        for x in np.linspace(-2.0, 2.0, 24):
            child, _ = condition_on(params, [2], [x])
            log_pdf_many(child, ys)
            log_marginal(params, 2, [x])
            sample_visible(child, 10, 0)
            children.append(child)
        assert factored == ["T"]
        assert formed.count(SCHUR) == 1
        for name in ("t", "w", "chol_t", "tinv_w", "schur"):
            assert all(getattr(c, name) is getattr(children[0], name) for c in children)

    @pytest.mark.parametrize("key", sorted(KEPT_MODELS))
    def test_memo_keeps_only_what_requests_key(self, key):
        # what a model derives from its own arrays is a property; its memo
        # holds only the plans, the last child, the report and the draw table
        fields, lattice = KEPT_MODELS[key]
        params = RtbmParams(**fields, lattice=lattice)
        rng = np.random.default_rng(5)
        log_pdf_many(params, rng.standard_normal((8, params.n_v)))
        child, _ = condition_on(params, [params.n_v - 1], [0.3])
        log_pdf_many(child, rng.standard_normal((8, child.n_v)))
        log_marginal(params, params.n_v - 1, [0.3])
        validate(params)
        sample_visible(params, 10, 0)
        sample_visible(child, 10, 0)
        for model in (params, child):
            assert set(model.memo) <= {"plans", "child", "report", "draw_table"}

    def test_conditioning_validates_the_parent_once(self, tfit_params, monkeypatch):
        import rtbm.density
        reports = []

        def counted(params):
            reports.append(params)
            return validate(params)

        monkeypatch.setattr(rtbm.density, "validate", counted)
        for x in np.linspace(-2.0, 2.0, 8):
            condition_on(tfit_params, [0], [x])
            log_marginal(tfit_params, 1, [x])
        assert reports == [tfit_params]

    def test_invalid_parent_raises(self):
        from rtbm.errors import RtbmError
        # T is asymmetric in the block that conditioning drops, so the child
        # alone would pass validation
        p = RtbmParams(t=[[2.0, 0.3], [0.2, 1.0]], q=[[9.0]], w=[[0.5], [0.1]],
                       bv=[0.0, 0.0], bh=[0.0])
        for _ in range(2):
            with pytest.raises(RtbmError, match="invalid model: T asymmetry"):
                condition_on(p, [1], [0.5])
            with pytest.raises(RtbmError, match="invalid model"):
                condition_on(p, [0], [0.5])
            with pytest.raises(RtbmError, match="invalid model"):
                log_marginal(p, 1, [0.5])

    def test_overflowing_parent_is_an_invalid_model(self):
        from rtbm.errors import RtbmError
        p = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[1e200], [0.0]], bv=[0.0, 0.0],
                       bh=[0.0])
        with pytest.raises(RtbmError, match=r"invalid model: Q - W\^T T\^-1 W is not finite"):
            condition_on(p, [1], [0.5])

    @pytest.mark.parametrize("call", [
        lambda p: log_pdf_many(p, np.zeros((3, 2))), lambda p: log_pdf(p, [0.0, 0.0]),
        lambda p: sample_visible(p, 5, 1), hidden_distribution],
        ids=["log_pdf_many", "log_pdf", "sample_visible", "hidden_distribution"])
    def test_schur_matrix_not_positive_definite_is_named(self, call):
        from rtbm.errors import NotPositiveDefiniteError
        # T = Q = I and W = 3 I: the Schur matrix I - W^T W = -8 I
        p = RtbmParams(t=np.eye(2), q=np.eye(2), w=3.0 * np.eye(2), bv=np.zeros(2),
                       bh=np.zeros(2))
        with pytest.raises(NotPositiveDefiniteError) as err:
            call(p)
        assert str(err.value) == ("Q - W^T T^-1 W is not positive definite "
                                  "(min eigenvalue ~ -8)")
        assert pickle.loads(pickle.dumps(err.value)).min_eigenvalue == -8.0

    def test_overflowing_child_bias_is_named(self):
        # T_dy d = 1e300 * 1e10 overflows the child's bv; its T, W and Q are finite
        p = RtbmParams(t=[[1e10, 1e10], [1e10, 2e10]], q=[[1.0]], w=[[0.0], [0.0]],
                       bv=[0.0, 0.0], bh=[0.0])
        with pytest.raises(ValueError, match="^bv contains non-finite entries$"):
            condition_on(p, [1], [1e300])

    def test_invalid_t_still_reported_after_failed_density(self):
        from rtbm.errors import NotPositiveDefiniteError
        p = RtbmParams(t=[[-1.0]], q=[[1.0]], w=[[0.0]], bv=[0.0], bh=[0.0])
        before = validate(p).violations
        assert [v.rule for v in before] == ["t-not-positive-definite"]
        with pytest.raises(NotPositiveDefiniteError):
            log_pdf_many(p, [[0.0]])
        assert validate(p).violations == before


TP = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]], nu=6.0)
ROWS = np.random.default_rng(20).standard_normal((300, 2))
NAN_ROW_300 = np.vstack([ROWS, [[math.nan, 0.0]]])
SHAPE_3D = r"^points must be a vector or rows, got shape \(2, 2, 2\)$"


def nan_rows(count, first):
    return rf"^points have NaN or infinite values in {count} row\(s\), first at index {first}$"


class TestAsPoints:
    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda p: log_pdf_many(p, np.zeros((2, 2, 2))), ValueError, SHAPE_3D,
                     id="log_pdf_many-3d"),
        pytest.param(lambda p: negative_log_likelihood(p, np.zeros((2, 2, 2))), ValueError,
                     SHAPE_3D, id="negative_log_likelihood-3d"),
        pytest.param(lambda p: log_pdf(p, [[0.0, 1.0], [1.0, 2.0]]), ValueError,
                     r"^a point must be a vector, got shape \(2, 2\)$",
                     id="log_pdf-rows"),
        pytest.param(lambda p: log_pdf(p, 0.0), ValueError,
                     r"^a point must be a vector, got shape \(\)$", id="log_pdf-scalar"),
        pytest.param(lambda p: log_pdf_many(p, [[math.nan, 0.0]]), ValueError,
                     nan_rows(1, 0), id="log_pdf_many-nan"),
        pytest.param(lambda p: student_logpdf(TP, np.zeros((2, 2, 2))), ValueError, SHAPE_3D,
                     id="student_logpdf-3d"),
        pytest.param(lambda p: student_logpdf(TP, [math.nan, 0.0]), ValueError,
                     nan_rows(1, 0), id="student_logpdf-nan"),
        pytest.param(lambda p: fit_density(np.random.default_rng(0).normal(size=(50, 2, 2)),
                                           FitConfig(n_h=1, restarts=1, max_evals=8)),
                     FitError, r"^training data: points must be a vector or rows, "
                     r"got shape \(50, 2, 2\)$", id="fit_density-3d"),
        # a vector is one point: here one 300-wide sample
        pytest.param(lambda p: empirical_conditional(np.zeros(300), [0], [0.0]),
                     InsufficientSamplesError, "^insufficient conditioned sample: 1 rows",
                     id="empirical_conditional-vector"),
        pytest.param(lambda p: empirical_conditional(NAN_ROW_300, [0], [0.0]), ValueError,
                     nan_rows(1, 300), id="empirical_conditional-nan"),
        pytest.param(lambda p: make_histogram(NAN_ROW_300), ValueError, nan_rows(1, 300),
                     id="make_histogram-nan"),
        pytest.param(lambda p: make_histogram(np.zeros((0, 1))), ValueError,
                     "^no samples to histogram$", id="make_histogram-empty"),
    ])
    def test_malformed_points_are_named(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                call(RtbmParams(**TFIT))

    def test_rows_and_a_vector(self):
        rows = as_points([[1, 2], [3, 4]])
        assert rows.dtype == float and rows.shape == (2, 2)
        np.testing.assert_array_equal(as_points([1.5, -2.0], 2), [[1.5, -2.0]])
        with pytest.raises(ValueError, match=r"^points have width 2, expected 3$"):
            as_points(rows, 3)
        with pytest.raises(ValueError, match=nan_rows(2, 1)):
            as_points([[0.0, 1.0], [math.inf, 0.0], [0.0, -math.nan]])
