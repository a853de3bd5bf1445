import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from rtbm.errors import NotPositiveDefiniteError, ThetaTruncationError
from rtbm.theta import (Lattice, ThetaQuery, log_theta, log_theta_many,
                        log_theta_reference)


def direct_1d_sum(omega, z, lattice, radius):
    """Plain-Python oracle: sum exp(-omega n^2 / 2 + z n) over n."""
    lo = 0 if lattice is Lattice.NONNEG else -radius
    return math.log(math.fsum(
        math.exp(-0.5 * omega * n * n + z * n) for n in range(lo, radius + 1)))


class TestKnownValues:
    def test_full_lattice_scalar(self):
        expected = direct_1d_sum(2.0, 0.0, Lattice.FULL, 6)
        assert expected == pytest.approx(0.572468, abs=1e-6)
        got = log_theta(ThetaQuery(z=np.array([0.0]), omega=np.array([[2.0]])))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nonneg_lattice_scalar(self):
        expected = direct_1d_sum(2.0, 0.0, Lattice.NONNEG, 6)
        assert expected == pytest.approx(0.326652, abs=1e-6)
        got = log_theta(ThetaQuery(z=np.array([0.0]), omega=np.array([[2.0]]),
                                   lattice=Lattice.NONNEG))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_reference_nearest_neighbors(self):
        # for Omega = 50 I, four nearest neighbors dominate everything else
        direct = math.fsum(
            math.exp(-25.0 * (i * i + j * j))
            for i in range(-3, 4) for j in range(-3, 4))
        got = log_theta_reference([0.0, 0.0], 50.0 * np.eye(2), radius=3)
        assert got == pytest.approx(math.log(direct), abs=1e-15)
        assert got == pytest.approx(4 * math.exp(-25.0), rel=1e-6)

    def test_reference_radius_zero(self):
        assert log_theta_reference([3.0], [[2.0]], radius=0) == 0.0

    def test_reference_cap(self):
        with pytest.raises(ValueError, match="cap"):
            log_theta_reference(np.zeros(4), np.eye(4), radius=60)


class TestAgainstReference:
    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    def test_randomized(self, lattice):
        rng = np.random.default_rng(101)
        for _ in range(50):
            h = int(rng.integers(1, 4))
            omega = random_spd(rng, h)
            z = rng.uniform(-5, 5, h)
            got = log_theta(ThetaQuery(z=z, omega=omega, lattice=lattice))
            radius = int(np.ceil(np.abs(np.linalg.solve(omega, z)).max())) + 25
            ref = log_theta_reference(z, omega, lattice=lattice, radius=radius)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        omega = random_spd(rng, 2)
        zs = rng.uniform(-8, 8, (40, 2))
        batch = log_theta_many(zs, omega)
        singles = [log_theta(ThetaQuery(z=z, omega=omega)) for z in zs]
        np.testing.assert_array_equal(batch, singles)

    def test_large_arguments_are_anchored(self):
        # exponents of order 1e5 must not overflow
        omega = np.array([[3.0, 0.7], [0.7, 5.0]])
        z = np.array([800.0, -500.0])
        radius = int(np.ceil(np.abs(np.linalg.solve(omega, z)).max())) + 30
        ref = log_theta_reference(z, omega, radius=radius)
        got = log_theta(ThetaQuery(z=z, omega=omega))
        assert np.isfinite(got)
        assert got == pytest.approx(ref, abs=1e-10)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=3),
           st.integers(0, 2**31 - 1))
    def test_full_lattice_symmetry(self, z, seed):
        z = np.array(z)
        omega = random_spd(np.random.default_rng(seed), z.shape[0])
        plus = log_theta(ThetaQuery(z=z, omega=omega))
        minus = log_theta(ThetaQuery(z=-z, omega=omega))
        assert plus == pytest.approx(minus, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_eps_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_spd(rng, 2)
        z = rng.uniform(-5, 5, 2)
        loose = log_theta(ThetaQuery(z=z, omega=omega, eps=1e-5))
        tight = log_theta(ThetaQuery(z=z, omega=omega, eps=1e-13))
        assert abs(loose - tight) <= 1e-5 + 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_exceeds_largest_single_term(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_spd(rng, 2)
        z = rng.uniform(-5, 5, 2)
        total = log_theta(ThetaQuery(z=z, omega=omega))
        best = np.rint(np.linalg.solve(omega, z))
        largest = -0.5 * best @ omega @ best + best @ z
        assert total >= largest - 1e-12


class TestErrors:
    def test_indefinite_omega(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            log_theta_many(np.zeros((1, 1)), np.array([[-1.0]]))
        assert err.value.min_eigenvalue == pytest.approx(-1.0)

    def test_truncation_cap_is_loud(self):
        # a nearly singular omega needs about 1.6e7 points, over the work cap
        omega = np.array([[1e-12]])
        with pytest.raises(ThetaTruncationError, match="not converged.*work cap"):
            log_theta_many(np.array([[4e-12]]), omega)

    def test_query_validation(self):
        with pytest.raises(ValueError, match="eps"):
            ThetaQuery(z=np.zeros(1), omega=np.eye(1), eps=0.5)
        with pytest.raises(ValueError, match="symmetric"):
            ThetaQuery(z=np.zeros(2), omega=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_query_rejects_nan_eps(self):
        with pytest.raises(ValueError, match="eps"):
            ThetaQuery(z=np.zeros(1), omega=np.eye(1), eps=math.nan)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, 5.0, 2e-3, math.inf])
    def test_out_of_range_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 0.001\]"):
            log_theta_many(np.zeros((1, 2)), np.eye(2), eps=eps)

    def test_largest_eps_accepted(self):
        loose = log_theta_many(np.zeros((1, 1)), np.eye(1), eps=1e-3)[0]
        assert loose == pytest.approx(direct_1d_sum(1.0, 0.0, Lattice.FULL, 12), abs=1e-3)


def spd_with_eigenvalues(rng, eigs):
    basis = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))[0]
    a = (basis * np.asarray(eigs, dtype=float)) @ basis.T
    return 0.5 * (a + a.T)


def reference_radius(z, omega, lam_min):
    """Max-norm radius past which the reference omits under 1e-15 of the sum."""
    nhat = np.abs(np.linalg.solve(omega, z)).max()
    return int(np.ceil(nhat + np.sqrt(2.0 * 40.0 / lam_min))) + 1


class TestEllipsoidKernel:
    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("eigs", [
        [0.2], [7.0],
        [0.2, 200.0], [0.25, 9.0, 250.0], [0.3, 3.0, 30.0, 300.0],
        [1e4, 1e4, 2e4],   # stiff: the radius solve leaves the representable range
    ], ids=lambda e: f"h{len(e)}-ratio{max(e) / min(e):g}")
    def test_anisotropic_against_reference(self, eigs, lattice):
        rng = np.random.default_rng(len(eigs) * 31 + int(min(eigs) * 10))
        omega = spd_with_eigenvalues(rng, eigs)
        for _ in range(3):
            z = omega @ rng.uniform(-4, 4, len(eigs))
            got = log_theta(ThetaQuery(z=z, omega=omega, lattice=lattice))
            radius = reference_radius(z, omega, min(eigs))
            ref = log_theta_reference(z, omega, lattice=lattice, radius=radius)
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_thin_ellipsoid_against_reference(self, rotated, lattice):
        # long along one axis and stiff along the other: a wide half-width
        # but few points, so it is summed, not refused
        rng = np.random.default_rng(12)
        omega = (spd_with_eigenvalues(rng, [0.03, 1e3]) if rotated
                 else np.diag([0.02, 1e4]))
        lam_min = np.linalg.eigvalsh(omega)[0]
        for _ in range(3):
            z = omega @ rng.uniform(-4, 4, 2)
            got = log_theta(ThetaQuery(z=z, omega=omega, lattice=lattice))
            ref = log_theta_reference(z, omega, lattice=lattice,
                                      radius=reference_radius(z, omega, lam_min))
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("nhat", [[-6.3, 4.2], [-3.6, -2.2, 5.1], [-4.4, 1.7, -0.8, 2.9]])
    def test_nonneg_maximizer_outside_orthant(self, nhat):
        rng = np.random.default_rng(len(nhat))
        h = len(nhat)
        omega = spd_with_eigenvalues(rng, np.linspace(0.5, 6.0, h))
        z = omega @ np.array(nhat)
        got = log_theta(ThetaQuery(z=z, omega=omega, lattice=Lattice.NONNEG))
        ref = log_theta_reference(z, omega, lattice=Lattice.NONNEG, radius=30)
        assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))
        # the orthant sum is far below the unconstrained one
        assert got < log_theta(ThetaQuery(z=z, omega=omega)) - 1.0

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("h", [3, 4])
    def test_batch_matches_single_far_apart(self, h, lattice):
        rng = np.random.default_rng(40 + h)
        omega = random_spd(rng, h, 0.5, 20.0)
        # on the orthant lattice some maximizers lie just outside it
        targets = rng.uniform(-40 if lattice is Lattice.FULL else -4, 40, (25, h))
        zs = targets @ omega + rng.uniform(-1, 1, (25, h))
        batch = log_theta_many(zs, omega, lattice=lattice)
        singles = [log_theta(ThetaQuery(z=z, omega=omega, lattice=lattice)) for z in zs]
        np.testing.assert_array_equal(batch, singles)
        reversed_batch = log_theta_many(zs[::-1], omega, lattice=lattice)
        np.testing.assert_array_equal(batch[::-1], reversed_batch)

    def test_unreachable_tolerance_raises_before_enumerating(self, monkeypatch):
        import rtbm.theta as theta

        def no_enumeration(*args):
            raise AssertionError("lattice points were enumerated")

        monkeypatch.setattr(theta, "_ellipsoid_points", no_enumeration)
        with pytest.raises(ThetaTruncationError,
                           match=r"up to [0-9.e+]+ lattice points, above the work cap"):
            log_theta_many(np.zeros((1, 3)), 1e-4 * np.eye(3))

    def test_over_budget_point_set_raises_without_allocating(self):
        import tracemalloc

        # the ellipsoid holds about 2e7 points
        omega = 0.05 * np.eye(4)
        tracemalloc.start()
        try:
            with pytest.raises(ThetaTruncationError, match="work cap"):
                log_theta_many(np.zeros((1, 4)), omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
