import numpy as np
import pytest

from conftest import (CONSTRUCTED_2D, CONSTRUCTED_2D_BAD_Q,
                      CONSTRUCTED_3D, TFIT)
from rtbm.density import condition_on, log_pdf_many
from rtbm.errors import NotPositiveDefiniteError
from rtbm.model import (RtbmParams, from_dict, load_model, save_model, to_dict,
                        validate)
from rtbm.theta import Lattice


class TestValidate:
    def test_tfit_fixture_is_valid(self, tfit_params):
        report = validate(tfit_params)
        assert report.valid
        assert report.violations == ()

    def test_negative_t_rejected(self):
        p = RtbmParams(t=[[-1.0]], q=[[1.0]], w=[[0.0]], bv=[0.0], bh=[0.0])
        report = validate(p)
        assert not report.valid
        assert [v.rule for v in report.violations] == ["t-not-positive-definite"]
        assert report.violations[0].value == pytest.approx(-1.0)

    def test_indefinite_2d_q_rejected(self):
        p = RtbmParams(t=CONSTRUCTED_2D["t"], q=CONSTRUCTED_2D_BAD_Q,
                       w=CONSTRUCTED_2D["w"], bv=CONSTRUCTED_2D["bv"],
                       bh=CONSTRUCTED_2D["bh"])
        rules = [v.rule for v in validate(p).violations]
        assert "q-not-positive-definite" in rules

    def test_corrected_2d_q_still_fails_schur(self):
        # sign-flipping the bad diagonal entry fixes Q but not the Schur matrix
        q = np.array(CONSTRUCTED_2D_BAD_Q)
        q[3, 3] = 5.54
        p = RtbmParams(t=CONSTRUCTED_2D["t"], q=q, w=CONSTRUCTED_2D["w"],
                       bv=CONSTRUCTED_2D["bv"], bh=CONSTRUCTED_2D["bh"])
        rules = [v.rule for v in validate(p).violations]
        assert rules == ["schur-not-positive-definite"]

    def test_substituted_2d_fixture_is_valid(self, constructed_2d_params):
        assert validate(constructed_2d_params).valid

    def test_3d_fixture_is_valid(self, constructed_3d_params):
        assert validate(constructed_3d_params).valid

    def test_overflowing_schur_matrix_is_a_violation(self):
        # W^T T^-1 W = 1e400 overflows to inf
        p = RtbmParams(t=[[1.0]], q=[[1.0]], w=[[1e200]], bv=[0.0], bh=[0.0])
        report = validate(p)
        assert [v.rule for v in report.violations] == ["schur-not-positive-definite"]
        assert str(report) == "Q - W^T T^-1 W is not finite (overflow)"

    def test_overflowing_schur_argument_is_a_violation(self):
        # the Schur matrix is 1 - 1e-20, but T^-1 bv = 1e400 overflows
        p = RtbmParams(t=[[1e-200]], q=[[1.0]], w=[[1e-110]], bv=[1e200], bh=[0.0])
        report = validate(p)
        assert [v.rule for v in report.violations] == ["schur-not-positive-definite"]
        assert "bh - W^T T^-1 bv" in str(report)
        assert "Q - W^T T^-1 W" in str(report)
        with pytest.raises(NotPositiveDefiniteError, match="not finite"):
            p.z_schur

    def test_matrices_past_half_the_double_range_are_judged(self):
        # their entries pass DBL_MAX / 2, so (a + a^T) / 2 would overflow
        assert validate(RtbmParams(t=[[1.7e308]], q=[[1.7e308]], w=[[1.0]],
                                   bv=[0.0], bh=[0.0])).valid
        # the Schur matrix is finite, with entries of -1.69e308
        p = RtbmParams(t=[[1.0]], q=np.eye(2), w=[[1.3e154, 1.3e154]], bv=[0.0],
                       bh=[0.0, 0.0])
        report = validate(p)
        assert [v.rule for v in report.violations] == ["schur-not-positive-definite"]

    def test_asymmetry_reported(self):
        t = np.array([[1.0, 1e-6], [0.0, 1.0]])
        p = RtbmParams(t=t, q=[[1.0]], w=[[0.0], [0.0]], bv=[0.0, 0.0], bh=[0.0])
        rules = [v.rule for v in validate(p).violations]
        assert "t-asymmetric" in rules


class TestBlockSplit:
    """The split at m leading free coordinates, as :func:`condition_on` takes
    it when the trailing block is conditioned: the child keeps T0 and W0, and
    shifts bv0 by T1^T d and bh by W1^T d."""

    def test_tfit_split(self, tfit_params):
        child = condition_on(tfit_params, [1], [2.0])[0]
        np.testing.assert_allclose(child.t, [[0.56]], rtol=0)
        np.testing.assert_allclose(child.w, [[-1.11, 1.02]], rtol=0)
        np.testing.assert_allclose(child.bv, [0.0 + 0.18 * 2.0], rtol=0)
        np.testing.assert_allclose(
            child.bh, tfit_params.bh + 2.0 * np.array([-0.66, 0.60]), rtol=0)

    def test_3d_split_at_two(self, constructed_3d_params):
        p = constructed_3d_params
        child = condition_on(p, [2], [-0.5])[0]
        np.testing.assert_array_equal(child.t, p.t[:2, :2])
        np.testing.assert_array_equal(child.w, p.w[:2])
        np.testing.assert_allclose(child.bv, p.bv[:2] - 0.5 * np.array([-6.76, -2.56]),
                                   rtol=0)
        np.testing.assert_allclose(child.bh, p.bh - 0.5 * 2.09, rtol=0)

    def test_out_of_range(self, tfit_params):
        with pytest.raises(ValueError, match="every coordinate"):
            condition_on(tfit_params, [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            condition_on(tfit_params, [2], [1.0])


class TestSerialization:
    @pytest.mark.parametrize("fixture", [TFIT, CONSTRUCTED_2D, CONSTRUCTED_3D])
    def test_round_trip_bit_exact(self, fixture, tmp_path):
        params = RtbmParams(**fixture)
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        for name in ("t", "q", "w", "bv", "bh"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        assert loaded.lattice == params.lattice

    def test_awkward_floats_survive(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.array([[np.pi * 1e-7]])
        p = RtbmParams(t=t, q=[[1.0 / 3.0]], w=[[rng.standard_normal()]],
                       bv=[1e300 * 1e-280], bh=[-0.1 + 0.2],
                       lattice=Lattice.NONNEG)
        save_model(p, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(loaded.t, p.t)
        assert np.array_equal(loaded.bv, p.bv)
        assert loaded.lattice is Lattice.NONNEG

    def test_dict_shape_check(self):
        doc = to_dict(RtbmParams(**TFIT))
        doc["nv"] = 3
        with pytest.raises(ValueError):
            from_dict(doc)


class TestConstruction:
    def test_arrays_are_frozen(self, tfit_params):
        with pytest.raises(ValueError):
            tfit_params.t[0, 0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            RtbmParams(t=[[np.nan]], q=[[1.0]], w=[[0.0]], bv=[0.0], bh=[0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RtbmParams(t=np.eye(2), q=np.eye(2), w=np.zeros((3, 2)),
                       bv=np.zeros(2), bh=np.zeros(2))


def test_star_import_resolves_every_export():
    # a name left in __all__ after its definition moved fails the import
    import rtbm
    namespace = {}
    exec("from rtbm import *", namespace)
    assert set(rtbm.__all__) <= namespace.keys()
