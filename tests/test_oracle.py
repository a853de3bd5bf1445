import math

import numpy as np
import pytest

from references import GridError, quadrature_marginal
from rtbm.errors import NotPositiveDefiniteError
from rtbm.density import log_marginal
from rtbm.model import RtbmParams
from rtbm.oracle import (StudentTParams, conditional_logpdf, sample_student,
                         student_conditional, student_logpdf)

T_BENCH = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]], nu=6.0)


class TestStudentLogpdf:
    def test_value_at_center(self):
        # direct evaluation: Gamma(4) / (Gamma(3) * 6 pi * sqrt(7))
        expected = math.gamma(4.0) / (math.gamma(3.0) * 6.0 * math.pi * math.sqrt(7.0))
        got = student_logpdf(T_BENCH, [0.0, 0.0])
        assert math.exp(got) == pytest.approx(expected, rel=1e-12)
        assert math.exp(got) == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(7.0)),
                                              rel=1e-12)
        assert math.exp(got) == pytest.approx(0.0601549, abs=1e-6)

    def test_central_symmetry(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-6, 6, (50, 2))
        np.testing.assert_array_equal(student_logpdf(T_BENCH, xs),
                                      student_logpdf(T_BENCH, -xs))

    def test_normalizes(self):
        xs = np.linspace(-40, 40, 1501)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = np.exp(student_logpdf(T_BENCH, grid))
        total = vals.sum() * (xs[1] - xs[0]) ** 2
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_not_pd_scale(self):
        with pytest.raises(NotPositiveDefiniteError):
            student_logpdf(StudentTParams(mu=[0.0], sigma=[[-1.0]], nu=3.0), [0.0])


class TestStudentConditional:
    def test_at_zero(self):
        ct = student_conditional(T_BENCH, [0], [0.0])
        assert ct.loc == pytest.approx([0.0])
        # Sigma_22|1 = 4 - (-1)(1/2)(-1) = 3.5, scaled by 6/7
        np.testing.assert_allclose(ct.scale, [[3.0]], atol=1e-12)
        assert ct.df == pytest.approx(7.0)

    def test_at_minus_two(self):
        ct = student_conditional(T_BENCH, [0], [-2.0])
        assert ct.loc == pytest.approx([1.0])
        np.testing.assert_allclose(ct.scale, [[4.0]], atol=1e-12)  # (6+2)/7 * 3.5
        assert ct.df == pytest.approx(7.0)

    def test_conditional_normalizes(self):
        ct = student_conditional(T_BENCH, [0], [-2.0])
        xs = np.linspace(-200, 200, 400001)
        vals = np.exp(conditional_logpdf(ct, xs[:, None]))
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)

    def test_matches_joint_over_marginal(self):
        # self-consistency: conditional == joint / marginal for Student-t
        marg = StudentTParams(mu=[0.0], sigma=[[2.0]], nu=6.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x1 = float(rng.uniform(-4, 4))
            x2 = float(rng.uniform(-6, 6))
            ratio = student_logpdf(T_BENCH, [x1, x2]) - student_logpdf(marg, [x1])
            ct = student_conditional(T_BENCH, [0], [x1])
            direct = conditional_logpdf(ct, [x2])
            assert abs(np.expm1(direct - ratio)) <= 1e-10

    def test_p1_bounds(self):
        with pytest.raises(ValueError, match="distinct"):
            student_conditional(T_BENCH, [0, 0], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            student_conditional(T_BENCH, [2], [0.0])
        with pytest.raises(ValueError, match="every coordinate"):
            student_conditional(T_BENCH, [1, 0], [0.0, 0.0])

    def test_non_finite_value_is_named(self):
        with pytest.raises(ValueError,
                           match="^conditioning value at index 0 is not finite$"):
            student_conditional(T_BENCH, [0], [math.nan])

    @pytest.mark.parametrize("indices", [[2], [1], [2, 0], [0, 2]])
    def test_any_index_set_is_joint_over_marginal(self, indices):
        # log p(x) - log p(x_indices), with the marginal t built from the
        # sub-blocks of mu and Sigma; the free coordinates keep their order
        tp = StudentTParams(mu=[0.5, -1.0, 2.0],
                            sigma=[[2.0, 0.3, -0.6], [0.3, 1.5, 0.4],
                                   [-0.6, 0.4, 3.0]], nu=4.5)
        marg = StudentTParams(mu=tp.mu[indices],
                              sigma=tp.sigma[np.ix_(indices, indices)], nu=tp.nu)
        free = [i for i in range(3) if i not in indices]
        rng = np.random.default_rng(len(indices) * 10 + indices[0])
        for x in rng.uniform(-4, 4, (20, 3)):
            ct = student_conditional(tp, indices, x[indices])
            ratio = student_logpdf(tp, x) - student_logpdf(marg, x[indices])
            assert conditional_logpdf(ct, x[free]) == pytest.approx(ratio, abs=1e-10)


class TestQuadratureMarginal:
    def test_gaussian_case(self):
        # W = 0: marginal must equal the closed-form Gaussian marginal
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2))
        t = a @ a.T + 2 * np.eye(2)
        bv = rng.standard_normal(2)
        p = RtbmParams(t=t, q=[[4.0]], w=np.zeros((2, 1)), bv=bv, bh=[0.0])
        mu = -np.linalg.solve(t, bv)
        cov = np.linalg.inv(t)
        d = 0.7
        expected = (-0.5 * math.log(2 * math.pi * cov[1, 1])
                    - 0.5 * (d - mu[1]) ** 2 / cov[1, 1])
        got = quadrature_marginal(p, 1, [d], [(-40.0, 40.0, 8001)])
        assert got == pytest.approx(expected, abs=1e-8)

    def test_matches_closed_form(self, tfit_params):
        got = quadrature_marginal(tfit_params, 1, [0.0], [(-30.0, 30.0, 20001)])
        assert got == pytest.approx(log_marginal(tfit_params, 1, [0.0]), abs=1e-8)

    def test_edge_mass_guard(self, tfit_params):
        with pytest.raises(GridError, match="edge"):
            quadrature_marginal(tfit_params, 1, [0.0], [(-1.0, 1.0, 101)])

    def test_node_minimum(self, tfit_params):
        with pytest.raises(ValueError, match="101"):
            quadrature_marginal(tfit_params, 1, [0.0], [(-30.0, 30.0, 50)])


class TestSampleStudent:
    def test_mean_within_clt_bound(self):
        s = sample_student(T_BENCH, 100000, seed=12)
        # covariance of a t is nu/(nu-2) Sigma
        cov = 1.5 * np.asarray(T_BENCH.sigma)
        se = np.sqrt(np.diag(cov) / 100000)
        assert np.all(np.abs(s.mean(axis=0) - T_BENCH.mu) <= 4 * se)

    def test_covariance_identity(self):
        s = sample_student(T_BENCH, 100000, seed=13)
        cov = np.cov(s.T)
        np.testing.assert_allclose(cov, 1.5 * np.asarray(T_BENCH.sigma), rtol=0.05)

    def test_seed_determinism(self):
        a = sample_student(T_BENCH, 500, seed=21)
        b = sample_student(T_BENCH, 500, seed=21)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_student(T_BENCH, 500, seed=22))

    def test_count_guard(self):
        with pytest.raises(ValueError):
            sample_student(T_BENCH, 0, seed=1)

    def test_count_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^count 2\.5 is not an integer$"):
            sample_student(T_BENCH, 2.5, 1)
        np.testing.assert_array_equal(sample_student(T_BENCH, np.int64(3), 1),
                                      sample_student(T_BENCH, 3, 1))

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_is_named(self, seed):
        with pytest.raises(ValueError, match=r"^seed -?\d+ is negative"):
            sample_student(T_BENCH, 3, seed)
