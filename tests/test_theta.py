import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from references import log_theta_reference
from rtbm.errors import NotPositiveDefiniteError, ThetaTruncationError
from rtbm.theta import Lattice, log_theta_many


def direct_1d_sum(omega, z, lattice, radius):
    """Plain-Python oracle: sum exp(-omega n^2 / 2 + z n) over n."""
    lo = 0 if lattice is Lattice.NONNEG else -radius
    return math.log(math.fsum(
        math.exp(-0.5 * omega * n * n + z * n) for n in range(lo, radius + 1)))


class TestKnownValues:
    def test_full_lattice_scalar(self):
        expected = direct_1d_sum(2.0, 0.0, Lattice.FULL, 6)
        assert expected == pytest.approx(0.572468, abs=1e-6)
        got = log_theta_many(np.array([[0.0]]), np.array([[2.0]]))[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nonneg_lattice_scalar(self):
        expected = direct_1d_sum(2.0, 0.0, Lattice.NONNEG, 6)
        assert expected == pytest.approx(0.326652, abs=1e-6)
        got = log_theta_many(np.array([[0.0]]), np.array([[2.0]]),
                             lattice=Lattice.NONNEG)[0]
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
            got = log_theta_many(z[None, :], omega, lattice=lattice)[0]
            radius = int(np.ceil(np.abs(np.linalg.solve(omega, z)).max())) + 25
            ref = log_theta_reference(z, omega, lattice=lattice, radius=radius)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        omega = random_spd(rng, 2)
        zs = rng.uniform(-8, 8, (40, 2))
        batch = log_theta_many(zs, omega)
        singles = [log_theta_many(z[None, :], omega)[0] for z in zs]
        np.testing.assert_array_equal(batch, singles)

    def test_large_arguments_are_anchored(self):
        # exponents of order 1e5 must not overflow
        omega = np.array([[3.0, 0.7], [0.7, 5.0]])
        z = np.array([800.0, -500.0])
        radius = int(np.ceil(np.abs(np.linalg.solve(omega, z)).max())) + 30
        ref = log_theta_reference(z, omega, radius=radius)
        got = log_theta_many(z[None, :], omega)[0]
        assert np.isfinite(got)
        assert got == pytest.approx(ref, abs=1e-10)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=3),
           st.integers(0, 2**31 - 1))
    def test_full_lattice_symmetry(self, z, seed):
        z = np.array(z)
        omega = random_spd(np.random.default_rng(seed), z.shape[0])
        plus = log_theta_many(z[None, :], omega)[0]
        minus = log_theta_many(-z[None, :], omega)[0]
        assert plus == pytest.approx(minus, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_eps_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_spd(rng, 2)
        z = rng.uniform(-5, 5, 2)
        loose = log_theta_many(z[None, :], omega, eps=1e-5)[0]
        tight = log_theta_many(z[None, :], omega, eps=1e-13)[0]
        assert abs(loose - tight) <= 1e-5 + 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_exceeds_largest_single_term(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_spd(rng, 2)
        z = rng.uniform(-5, 5, 2)
        total = log_theta_many(z[None, :], omega)[0]
        best = np.rint(np.linalg.solve(omega, z))
        largest = -0.5 * best @ omega @ best + best @ z
        assert total >= largest - 1e-12


class TestErrors:
    def test_indefinite_omega(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            log_theta_many(np.zeros((1, 1)), np.array([[-1.0]]))
        assert err.value.min_eigenvalue == pytest.approx(-1.0)

    def test_truncation_cap_is_loud(self):
        # a nearly singular omega needs about 1.2e11 points, over the work cap,
        # and its stiff axis leaves the dual sum uncertified
        omega = np.diag([1e-6, 1e-6, 1e4])
        with pytest.raises(ThetaTruncationError, match="not converged.*work cap"):
            log_theta_many(np.array([[4e-6, 0.0, 0.0]]), omega)

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
            got = log_theta_many(z[None, :], omega, lattice=lattice)[0]
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
            got = log_theta_many(z[None, :], omega, lattice=lattice)[0]
            ref = log_theta_reference(z, omega, lattice=lattice,
                                      radius=reference_radius(z, omega, lam_min))
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("nhat", [[-6.3, 4.2], [-3.6, -2.2, 5.1], [-4.4, 1.7, -0.8, 2.9]])
    def test_nonneg_maximizer_outside_orthant(self, nhat):
        rng = np.random.default_rng(len(nhat))
        h = len(nhat)
        omega = spd_with_eigenvalues(rng, np.linspace(0.5, 6.0, h))
        z = omega @ np.array(nhat)
        got = log_theta_many(z[None, :], omega, lattice=Lattice.NONNEG)[0]
        ref = log_theta_reference(z, omega, lattice=Lattice.NONNEG, radius=30)
        assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))
        # the orthant sum is far below the unconstrained one
        assert got < log_theta_many(z[None, :], omega)[0] - 1.0

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("h", [3, 4])
    def test_batch_matches_single_far_apart(self, h, lattice):
        rng = np.random.default_rng(40 + h)
        omega = random_spd(rng, h, 0.5, 20.0)
        # on the orthant lattice some maximizers lie just outside it
        targets = rng.uniform(-40 if lattice is Lattice.FULL else -4, 40, (25, h))
        zs = targets @ omega + rng.uniform(-1, 1, (25, h))
        batch = log_theta_many(zs, omega, lattice=lattice)
        singles = [log_theta_many(z[None, :], omega, lattice=lattice)[0] for z in zs]
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
            log_theta_many(np.zeros((1, 3)), np.diag([1e-6, 1e-6, 1e4]))

    def test_over_budget_point_set_raises_without_allocating(self):
        import tracemalloc

        # the ellipsoid holds up to 8e6 points, and the last axis leaves the
        # dual sum uncertified
        omega = np.diag([0.05, 0.05, 0.05, 40.0])
        tracemalloc.start()
        try:
            with pytest.raises(ThetaTruncationError, match="work cap"):
                log_theta_many(np.zeros((1, 4)), omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestKernelCache:
    """Prepared kernels are shared across calls and change no result."""

    @staticmethod
    def held():
        import rtbm.theta as theta
        return len(theta._KERNELS), sum(k.points for k in theta._KERNELS.values())

    def test_cold_and_warm_results_identical(self):
        import rtbm.theta as theta

        rng = np.random.default_rng(77)
        omega = random_spd(rng, 3, 0.5, 20.0)
        targets = rng.uniform(-3, 6, (30, 3))
        # on the orthant lattice some rows, batch-1 ones among them, are clipped
        assert (np.rint(targets[:4]) < 0).any(axis=1).sum() >= 2
        zs = targets @ omega
        calls = []
        for lattice in (Lattice.FULL, Lattice.NONNEG):
            for eps in (1e-3, 1e-12):
                calls.append(lambda lattice=lattice, eps=eps: log_theta_many(
                    zs, omega, lattice=lattice, eps=eps))
                calls += [lambda z=z, lattice=lattice, eps=eps: log_theta_many(
                    z[None, :], omega, lattice=lattice, eps=eps, collect_terms=True)
                    for z in zs[:4]]
        cold = []
        for call in calls:
            theta._KERNELS.clear()
            cold.append(call())
        warm = [call() for call in calls]
        assert self.held()[0] == 4
        np.testing.assert_equal(warm, cold)

    def test_cache_is_bounded(self):
        import rtbm.theta as theta

        rng = np.random.default_rng(3)
        omegas = [random_spd(rng, 2) for _ in range(100)]
        log_theta_many(np.zeros((1, 2)), omegas[0])
        first = next(iter(theta._KERNELS.values()))
        for omega in omegas[1:]:
            log_theta_many(rng.standard_normal((2, 2)), omega)
            log_theta_many(np.zeros((1, 2)), omegas[0])   # a hit: the most recently used
        assert any(k is first for k in theta._KERNELS.values())
        # points are kept from a matrix's second use on, and kernels whose
        # calls raise on the work cap enumerate nothing
        assert self.held() == (theta._KERNEL_CAP, first.points)
        for scale in np.geomspace(1e-6, 1e-5, 40):
            with pytest.raises(ThetaTruncationError):
                log_theta_many(np.zeros((1, 3)), scale * np.diag([1.0, 1.0, 1e10]))
        assert self.held() == (theta._KERNEL_CAP, 0)
        # two kept ellipsoids of about 1.1e6 points each exceed the point bound
        for scale in (5e-9, 5.2e-9):
            for _ in range(2):
                log_theta_many(np.zeros((1, 2)), np.diag([scale, 40.0]))
        kernels, points = self.held()
        assert kernels <= theta._KERNEL_CAP
        assert 1e6 < points <= theta._WORK_CAP
        newest = next(reversed(theta._KERNELS.values()))
        np.testing.assert_array_equal(newest.omega, np.diag([5.2e-9, 40.0]))

    def test_not_positive_definite_never_cached(self):
        for _ in range(2):
            with pytest.raises(NotPositiveDefiniteError):
                log_theta_many(np.zeros((1, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert self.held() == (0, 0)

    def test_cached_omega_is_a_read_only_copy(self):
        omega = np.array([[2.0, 0.3], [0.3, 1.0]])
        first = log_theta_many(np.ones((1, 2)), omega)
        omega[0, 0] = 5.0
        changed = log_theta_many(np.ones((1, 2)), omega)
        assert self.held()[0] == 2 and first != changed
        omega[0, 0] = 2.0
        np.testing.assert_array_equal(log_theta_many(np.ones((1, 2)), omega), first)

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("omega, z, dual", [
        ([[2.0, 0.31], [0.29, 1.0]], [0.7, -0.2], True),
        ([[19.0, 4.001], [3.999, 17.0]], [7.0, -3.0], False),
    ], ids=["dual", "primal"])
    def test_asymmetric_omega_sums_its_symmetric_part(self, omega, z, dual, lattice):
        import rtbm.theta as theta

        omega, z = np.array(omega), np.array(z)
        part = theta.sym(omega)
        got = log_theta_many(z[None, :], omega, lattice=lattice)[0]
        kernel = theta._kernel(omega, lattice, 1e-12)
        assert (kernel.dual is not None) == (dual and lattice is Lattice.FULL)
        np.testing.assert_array_equal(kernel.omega, part)
        assert got == log_theta_many(z[None, :], part, lattice=lattice)[0]
        ref = log_theta_reference(z, part, lattice=lattice, radius=30)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_queries_enumerate_each_omega_at_most_twice(self, tfit_params, monkeypatch):
        import rtbm.theta as theta
        from rtbm.density import condition_on, log_marginal, log_pdf, log_pdf_many

        seen = []
        enumerate_points = theta._ellipsoid_points

        def counted(chol, *args, **kwargs):
            seen.append(chol.tobytes())
            return enumerate_points(chol, *args, **kwargs)

        monkeypatch.setattr(theta, "_ellipsoid_points", counted)
        rng = np.random.default_rng(8)
        for k, point in enumerate(rng.standard_normal((8, 2))):
            child, _ = condition_on(tfit_params, [1], point[1:])
            log_pdf_many(child, rng.standard_normal((8, 1)))
            log_marginal(tfit_params, 1, point[1:])
            log_pdf(tfit_params, point)
            if k == 1:
                # the numerator's Q and the Schur matrices of the parent and
                # the child, each enumerated on its first use and, if used
                # again, once more to be kept
                assert len(set(seen)) == 3
                assert all(seen.count(chol) <= 2 for chol in seen)
                enumerated = len(seen)
        assert len(seen) == enumerated


def off_origin_switch(fixed_lengths_sq):
    """Omega_hh at which the dual's bound on its off-origin mass reaches 1/2.

    The other diagonal entries of Omega' are ``fixed_lengths_sq``.
    """
    from scipy.optimize import brentq

    import rtbm.theta as theta

    def excess(c):
        lengths_sq = np.append(fixed_lengths_sq, 4.0 * np.pi ** 2 / c)
        return theta._off_origin_bound(lengths_sq) - 0.5

    return brentq(excess, 1.0, 100.0, xtol=1e-14, rtol=1e-14)


class TestDualSums:
    """Small matrices are summed over the dual lattice of Poisson summation."""

    @staticmethod
    def is_dual(omega, lattice=Lattice.FULL, eps=1e-12):
        import rtbm.theta as theta
        return theta._kernel(np.asarray(omega, dtype=float), lattice, eps).dual is not None

    @pytest.mark.parametrize("scales", [
        [1e-4] * 3, [0.05] * 4, [1e-6] * 3, [1e-5] * 3, [2.5e-4] * 2,
    ], ids=lambda s: f"h{len(s)}-{s[0]:g}")
    def test_small_diagonal_omega_is_summed(self, scales):
        # once over the work cap; the dual holds a few points.  A diagonal
        # Omega factorizes into 1-D sums.
        rng = np.random.default_rng(len(scales))
        omega = np.diag(scales)
        z = np.array(scales) * rng.uniform(-3, 3, len(scales))
        assert self.is_dual(omega)
        got = log_theta_many(z[None, :], omega)[0]
        ref = sum(log_theta_reference([zi], [[si]], radius=int(np.sqrt(100 / si)) + 4)
                  for zi, si in zip(z, scales))
        assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_nearly_singular_scalar_is_summed(self):
        # too long for the reference; the dual correction exp(-2 pi^2 / omega)
        # underflows, leaving the Gaussian integral
        omega, z = 1e-12, 4e-12
        assert self.is_dual([[omega]])
        got = log_theta_many(np.array([[z]]), np.array([[omega]]))[0]
        expected = 0.5 * math.log(2.0 * math.pi / omega) + 0.5 * z * z / omega
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("case", ["thin", "rotated-thin", "small-h3", "rotated-h4"])
    def test_against_reference(self, case):
        rng = np.random.default_rng(len(case))
        eigs = {"thin": [1e-3, 2.0], "rotated-thin": [1e-3, 2.0],
                "small-h3": [0.3, 0.3, 0.3], "rotated-h4": [0.5, 0.8, 1.3, 2.0]}[case]
        omega = (np.diag(eigs) if case in ("thin", "small-h3")
                 else spd_with_eigenvalues(rng, eigs))
        assert self.is_dual(omega)
        for _ in range(3):
            z = omega @ rng.uniform(-4, 4, len(eigs))
            got = log_theta_many(z[None, :], omega)[0]
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, min(eigs)))
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("eps", [1e-12, 1e-3])
    @pytest.mark.parametrize("side", [-1, 1], ids=["dual", "primal"])
    def test_both_sides_of_the_switch(self, side, eps):
        # diag(0.01, c): the dual holds far fewer points on both sides, so the
        # bound on its off-origin mass s decides; just below the switch s is
        # near 1/2, and at nhat_2 = 1/2 the odd terms cancel against the origin
        switch = off_origin_switch([4.0 * np.pi ** 2 / 0.01])
        omega = np.diag([0.01, switch * (1.0 + side * 1e-6)])
        assert self.is_dual(omega, eps=eps) == (side < 0)
        for nhat in ([0.0, 0.5], [3.3, 0.5], [-12.7, 0.25]):
            z = omega @ np.array(nhat)
            got = log_theta_many(z[None, :], omega, eps=eps)[0]
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, 0.01))
            assert abs(got - ref) <= eps * max(1.0, abs(ref))

    @pytest.mark.parametrize("omega, dual", [(6.0, True), (10.0, False)])
    def test_dual_only_where_it_holds_fewer_points(self, omega, dual):
        # both bound s well below 1/2; at 10 the primal point bound is the lower
        assert self.is_dual([[omega]]) == dual
        for z in (0.0, 1.7, -23.4):
            got = log_theta_many(np.array([[z]]), np.array([[omega]]))[0]
            assert got == pytest.approx(direct_1d_sum(omega, z, Lattice.FULL, 30), abs=1e-12)

    @pytest.mark.parametrize("h", [3, 4])
    def test_batch_matches_single(self, h):
        rng = np.random.default_rng(60 + h)
        omega = random_spd(rng, h, 0.05, 2.0)
        assert self.is_dual(omega)
        zs = rng.uniform(-40, 40, (25, h)) @ omega + rng.uniform(-1, 1, (25, h))
        batch = log_theta_many(zs, omega)
        singles = [log_theta_many(z[None, :], omega)[0] for z in zs]
        np.testing.assert_array_equal(batch, singles)
        np.testing.assert_array_equal(batch[::-1], log_theta_many(zs[::-1], omega))

    def test_collect_terms_and_nonneg_stay_primal(self, monkeypatch):
        import rtbm.theta as theta

        omega = np.array([[0.4, 0.1], [0.1, 0.3]])
        z = np.array([0.7, -0.2])
        assert self.is_dual(omega) and not self.is_dual(omega, Lattice.NONNEG)
        dual = log_theta_many(z[None, :], omega)[0]

        def no_dual(*args):
            raise AssertionError("summed over the dual lattice")

        monkeypatch.setattr(theta, "_dual_log_sums", no_dual)
        logsum, points, terms = log_theta_many(z[None, :], omega, collect_terms=True)
        assert points.shape[0] == terms.shape[0] > 100
        assert logsum[0] == pytest.approx(dual, abs=1e-13)
        log_theta_many(z[None, :], omega, lattice=Lattice.NONNEG)

    def test_kept_dual_points_count_toward_the_caps(self):
        import rtbm.theta as theta

        omega = 3.0 * np.eye(3)
        for _ in range(2):
            log_theta_many(np.ones((1, 3)), omega)
        (kernel,) = theta._KERNELS.values()
        kept = kernel.kept[0].shape[1]
        assert kernel.dual is not None and kept > 1
        assert TestKernelCache.held() == (1, kept)
        # collect_terms sums the row's own ellipsoid and keeps no primal offsets
        for _ in range(2):
            log_theta_many(np.ones((1, 3)), omega, collect_terms=True)
        assert TestKernelCache.held() == (1, kept)
        for scale in np.linspace(2.0, 2.9, 40):
            for _ in range(2):
                log_theta_many(np.ones((1, 3)), scale * np.eye(3))
        kernels, points = TestKernelCache.held()
        assert kernels == theta._KERNEL_CAP
        assert points == sum(k.kept[0].shape[1] for k in theta._KERNELS.values())

    def test_unrepresentable_dual_stays_primal(self):
        # Omega^-1 overflows, so only the primal bound judges the sum
        with pytest.raises(ThetaTruncationError, match="work cap"):
            log_theta_many(np.zeros((1, 1)), np.array([[1e-310]]))


def rotated(eigs, angle=np.pi / 4):
    """The 2x2 matrix with eigenvalues ``eigs``, its axes turned by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s], [s, c]])
    return turn @ np.diag(eigs) @ turn.T


class TestSeparableSums:
    """Primal sums at h = 2 factor over k_1 and k_2 where that is safe."""

    @staticmethod
    def tables(omega, lattice=Lattice.FULL):
        import rtbm.theta as theta
        return theta._kernel(np.asarray(omega, dtype=float), lattice, 1e-12).shared_points()[2]

    @pytest.mark.parametrize("omega, separable", [
        ([[19.0, 4.0], [4.0, 17.0]], True),
        (np.diag([0.3, 50.0]), True),                  # 45 values of k_1, 3 of k_2
        (rotated([3.0, 20.0], 0.6), True),             # 11 x 9 table, 55 points
        (400.0 * np.array([[1.0, 0.3], [0.3, 1.0]]), True),
        (rotated([0.5, 30.0]), False),                 # 25 x 25 table, 139 points
        (600.0 * np.array([[1.0, 0.3], [0.3, 1.0]]), False),  # past the overflow gate
        (spd_with_eigenvalues(np.random.default_rng(12), [0.03, 1e3]), False),  # thin
    ], ids=["small", "long-axis", "rotated", "gate-400", "rotated-thin",
            "gate-600", "thin-rotated"])
    def test_both_sides_of_the_choice_against_reference(self, omega, separable):
        omega = np.asarray(omega, dtype=float)
        assert (self.tables(omega) is not None) == separable
        rng = np.random.default_rng(31)
        lam_min = np.linalg.eigvalsh(omega)[0]
        for _ in range(4):
            z = omega @ rng.uniform(-6, 6, 2)
            got = log_theta_many(z[None, :], omega)[0]
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, lam_min))
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_batch_matches_single(self):
        # 11 and 9 values along the coordinates, so every per-row sum has
        # more than 8 terms, which numpy's pairwise summation would reorder.
        # Most maximizers lie near the origin, where the offset f0 is small
        # enough not to round a reordered sum's last bits away.
        omega = rotated([3.0, 20.0], 0.6)
        tables = self.tables(omega)
        assert tables is not None and min(tables.weights.shape) > 8
        rng = np.random.default_rng(70)
        zs = np.vstack([rng.uniform(-1, 1, (50, 2)), rng.uniform(-40, 40, (10, 2))]) @ omega
        batch = log_theta_many(zs, omega)
        singles = [log_theta_many(z[None, :], omega)[0] for z in zs]
        np.testing.assert_array_equal(batch, singles)
        np.testing.assert_array_equal(batch[::-1], log_theta_many(zs[::-1], omega))

    def test_past_the_overflow_gate_sums_directly(self, monkeypatch):
        import rtbm.theta as theta

        # |g_j| max |k_j| reaches 780 summed over j, above the gate of 600
        omega = 600.0 * np.array([[1.0, 0.3], [0.3, 1.0]])
        kernel = theta._kernel(omega, Lattice.FULL, 1e-12)
        cols = kernel.shared_points()[0]
        assert kernel.dual is None
        assert 0.5 * np.abs(omega).sum(axis=1) @ np.abs(cols).max(axis=1) \
            > theta._LOG_FACTOR_CAP

        def no_separable(*args):
            raise AssertionError("summed in the separable form")

        monkeypatch.setattr(theta, "_separable_log_sums", no_separable)
        rng = np.random.default_rng(9)
        zs = rng.uniform(-30, 30, (20, 2)) @ omega
        got = log_theta_many(zs, omega)
        for z, value in zip(zs, got):
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, 420.0))
            assert value == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_far_rows_past_their_bounds_sum_directly(self, monkeypatch):
        import rtbm.theta as theta

        # At |z| ~ 1e20 the rounded maximizer is off by far more than 1/2,
        # so g leaves the bounds the tables were admitted on; every factor
        # exp(g_j k_j) would overflow.
        omega = np.array([[19.0, 4.0], [4.0, 17.0]])
        assert self.tables(omega) is not None
        rng = np.random.default_rng(14)
        zs = np.vstack([rng.uniform(-1e20, 1e20, (6, 2)), [[3.0, -2.0]]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = log_theta_many(zs, omega)
        assert np.isfinite(got).all()
        theta._KERNELS.clear()
        monkeypatch.setattr(theta, "_separable", lambda *args: None)
        direct = log_theta_many(zs, omega)
        np.testing.assert_array_equal(got[:-1], direct[:-1])
        assert got[-1] == pytest.approx(direct[-1], abs=1e-14)

    def test_collect_terms_and_nonneg_never_separate(self, monkeypatch):
        import rtbm.theta as theta

        omega = np.array([[19.0, 4.0], [4.0, 17.0]])
        z = np.array([7.0, -3.0])
        assert self.tables(omega) is not None
        assert self.tables(omega, Lattice.NONNEG) is None
        separated = log_theta_many(z[None, :], omega)[0]
        assert theta._kernel(omega, Lattice.FULL, 1e-12).kept[0].shape[1] == 23

        def no_separable(*args):
            raise AssertionError("summed in the separable form")

        monkeypatch.setattr(theta, "_separable_log_sums", no_separable)
        logsum, points, terms = log_theta_many(z[None, :], omega, collect_terms=True)
        # the row's own ellipsoid, not the 23 offsets that every row shares
        assert points.shape[0] == terms.shape[0] == 13
        assert logsum[0] == pytest.approx(separated, abs=1e-13)
        log_theta_many(np.vstack([z, -z]), omega, lattice=Lattice.NONNEG)
        with pytest.raises(AssertionError, match="separable"):
            log_theta_many(z[None, :], omega)

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    @pytest.mark.parametrize("omega, z, form", [
        ([[0.4, 0.1], [0.1, 0.3]], [0.7, -0.2], "dual"),
        ([[19.0, 4.0], [4.0, 17.0]], [7.0, -3.0], "separable"),
    ], ids=["dual", "separable"])
    def test_collected_terms_hold_every_term_that_counts(self, omega, z, form,
                                                         lattice, monkeypatch):
        import rtbm.theta as theta

        omega, z = np.array(omega), np.array(z)
        kernel = theta._kernel(omega, Lattice.FULL, 1e-12)
        assert form == ("dual" if kernel.dual is not None else "separable")
        if form == "separable":
            assert self.tables(omega) is not None

        def refused(*args):
            raise AssertionError("collect_terms used the shared offsets")

        monkeypatch.setattr(theta._Kernel, "shared_points", refused)
        monkeypatch.setattr(theta, "_separable", refused)
        logsum, points, terms = log_theta_many(z[None, :], omega, lattice=lattice,
                                               collect_terms=True)
        collected = dict(zip(map(tuple, points.tolist()), terms.tolist()))
        assert len(collected) == points.shape[0]
        lo = 0 if lattice is Lattice.NONNEG else -30
        grid = np.stack(np.meshgrid(np.arange(lo, 31), np.arange(lo, 31)), -1).reshape(-1, 2)
        brute = -0.5 * np.einsum("nh,hl,nl->n", grid, omega, grid) + grid @ z
        total = log_theta_reference(z, omega, lattice=lattice, radius=30)
        assert logsum[0] == pytest.approx(total, abs=1e-12)
        counted = brute > total + np.log(1e-12)
        assert counted.sum() >= 1
        for point, term in zip(grid[counted].tolist(), brute[counted]):
            assert collected[tuple(point)] == pytest.approx(term, abs=1e-12)

    def test_kept_tables_count_toward_the_caps(self, monkeypatch):
        import rtbm.theta as theta

        omega = rotated([3.0, 20.0], 0.6)
        for _ in range(2):
            log_theta_many(np.ones((1, 2)), omega)
        (kernel,) = theta._KERNELS.values()
        cols, _, tables = kernel.kept
        kept = cols.shape[1] + tables.weights.size
        assert tables.weights.size > cols.shape[1]
        assert TestKernelCache.held() == (1, kept)
        # a second such kernel fits under a cap of 200 points only if the
        # tables are not counted, so keeping it drops the first
        monkeypatch.setattr(theta, "_WORK_CAP", 200)
        assert kept <= 200 < 2 * kept and 2 * cols.shape[1] <= 200
        for _ in range(2):
            log_theta_many(np.ones((1, 2)), 1.01 * omega)
        (newest,) = theta._KERNELS.values()
        np.testing.assert_array_equal(newest.omega, 1.01 * omega)
        assert newest.kept[2] is not None
        # a table that would take its kernel past the cap alone is not built,
        # so the kernel keeps its offsets
        monkeypatch.setattr(theta, "_WORK_CAP", kept - 1)
        for _ in range(2):
            log_theta_many(np.ones((1, 2)), 1.02 * omega)
        (newest,) = theta._KERNELS.values()
        assert newest.kept[2] is None
        assert TestKernelCache.held() == (1, cols.shape[1])
        monkeypatch.undo()
        for scale in np.linspace(1.0, 1.3, 40):
            for _ in range(2):
                log_theta_many(np.ones((1, 2)), scale * np.array([[19.0, 4.0], [4.0, 17.0]]))
        kernels, points = TestKernelCache.held()
        assert kernels == theta._KERNEL_CAP
        assert points == sum(k.kept[0].shape[1] + k.kept[2].weights.size
                             for k in theta._KERNELS.values())
