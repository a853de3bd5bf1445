import contextlib
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


@contextlib.contextmanager
def tolerance(eps):
    """Certify every sum to ``eps`` instead of ``theta.EPS``, on freshly prepared kernels."""
    import rtbm.theta as theta

    saved = theta.EPS
    theta._KERNELS.clear()
    theta.EPS = eps
    try:
        yield
    finally:
        theta.EPS = saved
        theta._KERNELS.clear()


def over_three_blocks(step):
    """A batch size of three blocks of ``step`` rows and a remainder."""
    return 3 * step + step // 3 + 1


def assert_batch_independent(zs, omega, lattice=Lattice.FULL):
    """Each row's sum equals its single-row call and the reversed batch's, bit for bit."""
    batch = log_theta_many(zs, omega, lattice=lattice)
    singles = [log_theta_many(z[None, :], omega, lattice=lattice)[0] for z in zs]
    np.testing.assert_array_equal(batch, singles)
    np.testing.assert_array_equal(batch[::-1], log_theta_many(zs[::-1], omega, lattice=lattice))


def assert_far_rows_sum_directly(omega, zs, monkeypatch):
    """A separable kernel whose rows fall on both sides of the per-row factor test.

    Under ``np.errstate(raise)`` every row is summed without a float error
    and the batch is batch-independent; the rows whose own sum over j of
    |g_j| max |k_j| passes 600 equal the direct sum bit for bit, and every
    row matches ``log_theta_reference``.
    """
    import rtbm.theta as theta

    kernel = theta._kernel(omega, Lattice.FULL)
    tables = kernel.shared_points()[2]
    assert kernel.dual is None and tables is not None
    # each row's g, formed as log_theta_many forms it, and the per-row test
    z = np.ascontiguousarray(zs.T)
    g = z - theta._coords_dot(np.rint(theta._coords_dot(z, kernel.omega_inv)), kernel.omega)
    far = ~(theta._coords_inner(np.abs(g), tables.reach) <= theta._LOG_FACTOR_CAP)
    assert 0 < far.sum() < far.size
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = log_theta_many(zs, omega)
        assert_batch_independent(zs, omega)
    lam_min = np.linalg.eigvalsh(omega)[0]
    for z, value in zip(zs, got):
        ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, lam_min))
        assert value == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))
    theta._KERNELS.clear()
    monkeypatch.setattr(theta, "_separable", lambda *args: None)
    np.testing.assert_array_equal(got[far], log_theta_many(zs[far], omega))


def assert_threads_repeat_their_sums(cases):
    """Threads, one per (omega, zs) case and all at once, each repeat its own sums."""
    import sys
    import threading

    cases = [(omega, zs, log_theta_many(zs, omega)) for omega, zs in cases]
    mismatches = []

    def repeat(omega, zs, expected):
        for _ in range(5):
            if not np.array_equal(log_theta_many(zs, omega), expected):
                mismatches.append(omega[0, 0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=repeat, args=case) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


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
        with tolerance(1e-5):
            loose = log_theta_many(z[None, :], omega)[0]
        with tolerance(1e-13):
            tight = log_theta_many(z[None, :], omega)[0]
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

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_cholesky_matches_scipy_and_fails_as_it_did(self, h):
        import scipy.linalg as la

        from rtbm.theta import spd_cholesky, sym

        rng = np.random.default_rng(80 + h)
        for _ in range(20):
            a = random_spd(rng, h, 1e-3, 1e3) + 1e-9 * rng.standard_normal((h, h))
            chol = spd_cholesky(a, "A")
            np.testing.assert_array_equal(chol, la.cholesky(sym(a), lower=True))
        indefinite = random_spd(rng, h, -2.0, -1.0)
        with pytest.raises(NotPositiveDefiniteError, match="A is not positive definite") as exc:
            spd_cholesky(indefinite, "A")
        assert exc.value.min_eigenvalue == np.linalg.eigvalsh(indefinite)[0]
        indefinite[0, -1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            spd_cholesky(indefinite, "A")

    @pytest.mark.parametrize("zs, omega", [
        (np.ones((3, 1)), 3.0 * np.eye(2)),
        (np.ones((3, 3)), 3.0 * np.eye(2)),
        (np.ones((2, 2)), np.eye(1)),
        (np.ones((2, 2)), np.ones((2, 3))),
        (np.ones((2, 2)), np.ones(2)),
        (np.ones((2, 2, 2)), np.eye(2)),
    ], ids=["narrow-rows", "wide-rows", "rows-past-1x1", "non-square", "vector-omega",
            "3d-rows"])
    def test_mismatched_shapes_rejected(self, zs, omega):
        with pytest.raises(ValueError, match=r"are not \(B, h\) and \(h, h\)"):
            log_theta_many(zs, omega)

    def test_largest_eps_accepted(self):
        with tolerance(1e-3):
            loose = log_theta_many(np.zeros((1, 1)), np.eye(1))[0]
        assert loose == pytest.approx(direct_1d_sum(1.0, 0.0, Lattice.FULL, 12), abs=1e-3)


def spd_with_eigenvalues(rng, eigs):
    basis = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))[0]
    a = (basis * np.asarray(eigs, dtype=float)) @ basis.T
    return 0.5 * (a + a.T)


def thin_along_diagonal(h):
    """Eigenvalue 1 along (1, ..., 1) and 20 across it: a thin, tilted ellipsoid."""
    u = np.ones(h) / np.sqrt(h)
    return 20.0 * np.eye(h) - 19.0 * np.outer(u, u)


def reference_radius(z, omega, lam_min):
    """Max-norm radius past which the reference omits under 1e-15 of the sum."""
    nhat = np.abs(np.linalg.solve(omega, z)).max()
    return int(np.ceil(nhat + np.sqrt(2.0 * 40.0 / lam_min))) + 1


def coords_dot_reference(rows, m):
    """``_coords_dot`` as a loop that makes a fresh product per coordinate."""
    out = m[0][:, None] * rows[0]
    for j in range(1, rows.shape[0]):
        out += m[j][:, None] * rows[j]
    return out


class TestEllipsoidKernel:
    @pytest.mark.parametrize("h", [*range(1, 7), 8, 12])
    def test_coordinate_products_sum_in_one_order(self, h):
        import rtbm.theta as theta

        # The loop rounds a row alike alone (a contiguous (h, 1) array, as
        # log_pdf passes it) and in a batch of a few or many, whatever the
        # layout of m, and as a fresh product per coordinate would.  The
        # blocks' einsum matches it for the C-ordered, many-column offsets it
        # is given, but a lone row's einsum rounds otherwise when m has one
        # column (W with one hidden unit) or is Fortran-ordered (chol_t from
        # LAPACK), so _coords_dot stays a loop.
        rng = np.random.default_rng(h)
        many = rng.normal(size=(h, h + 2))
        for m in (many, many[:, :1].copy(), np.asfortranarray(many)):
            for b in (1, 7, 5000):
                rows = 50.0 * rng.normal(size=(h, b))
                batch = theta._coords_dot(rows, m)
                reference = coords_dot_reference(rows, m)
                assert batch.shape == reference.shape
                assert batch.tobytes() == reference.tobytes()
                for j in range(min(b, 7)):
                    lone = np.ascontiguousarray(rows[:, j:j + 1])
                    np.testing.assert_array_equal(batch[:, j:j + 1],
                                                  theta._coords_dot(lone, m))
                if m is many:
                    np.testing.assert_array_equal(batch, theta._coords_dot_rows(rows, m).T)

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
        import rtbm.theta as theta

        rng = np.random.default_rng(40 + h)
        omega = random_spd(rng, h, 0.5, 20.0)
        if lattice is Lattice.FULL:
            # long and thin along the diagonal: the separable tables would
            # hold over three entries per offset, so they are refused
            omega = thin_along_diagonal(h)
        # the direct sum, over more than three of its blocks of rows
        kernel = theta._kernel(omega, lattice)
        assert kernel.dual is None and kernel.shared_points()[2] is None
        rows = over_three_blocks(theta._BLOCK // kernel.shared_points()[0].shape[1])
        # on the orthant lattice some maximizers lie just outside it
        targets = rng.uniform(-40 if lattice is Lattice.FULL else -4, 40, (rows, h))
        assert_batch_independent(targets @ omega + rng.uniform(-1, 1, (rows, h)), omega, lattice)

    def test_unreachable_tolerance_raises_before_enumerating(self, monkeypatch):
        import rtbm.theta as theta

        def no_enumeration(*args):
            raise AssertionError("lattice points were enumerated")

        monkeypatch.setattr(theta, "_ellipsoid_points", no_enumeration)
        with pytest.raises(ThetaTruncationError,
                           match=r"up to [0-9.e+]+ lattice points, above the work cap"):
            log_theta_many(np.zeros((1, 3)), np.diag([1e-6, 1e-6, 1e4]))

    @pytest.mark.parametrize("lattice", list(Lattice))
    @pytest.mark.parametrize("omega", [
        # the ellipsoid holds up to 8e6 points, and the last axis leaves the
        # dual sum uncertified
        np.diag([0.05, 0.05, 0.05, 40.0]),
        # the hidden cube's 2^20 corners are taken in blocks, and its 2^40 not at all
        100.0 * np.eye(20), 100.0 * np.eye(40)], ids=["h4", "h20", "h40"])
    def test_over_budget_point_set_raises_without_allocating(self, omega, lattice):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ThetaTruncationError, match="work cap"):
                log_theta_many(np.zeros((1, omega.shape[0])), omega, lattice)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_dual_sum_past_the_primal_corners(self):
        # at h = 40 only the dual form can sum; a diagonal sum is a product of 1-D ones
        one = log_theta_many(np.zeros((1, 1)), [[0.01]])[0]
        assert log_theta_many(np.zeros((1, 40)), 0.01 * np.eye(40))[0] == \
            pytest.approx(40 * one, rel=1e-12)


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
            calls.append(lambda lattice=lattice: log_theta_many(zs, omega, lattice=lattice))
            calls += [lambda z=z, lattice=lattice: log_theta_many(
                z[None, :], omega, lattice=lattice, collect_terms=True)
                for z in zs[:4]]
        cold = []
        for call in calls:
            theta._KERNELS.clear()
            cold.append(call())
        warm = [call() for call in calls]
        assert self.held()[0] == 2
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
        kernel = theta._kernel(omega, lattice)
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
    def is_dual(omega, lattice=Lattice.FULL):
        import rtbm.theta as theta
        return theta._kernel(np.asarray(omega, dtype=float), lattice).dual is not None

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
        with tolerance(eps):
            assert self.is_dual(omega) == (side < 0)
            for nhat in ([0.0, 0.5], [3.3, 0.5], [-12.7, 0.25]):
                z = omega @ np.array(nhat)
                got = log_theta_many(z[None, :], omega)[0]
                ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, 0.01))
                assert abs(got - ref) <= eps * max(1.0, abs(ref))

    @pytest.mark.parametrize("omega, dual", [(6.0, True), (10.0, False)])
    def test_dual_only_where_it_holds_fewer_points(self, omega, dual):
        # both bound s well below 1/2; at 10 the primal point bound is the lower
        assert self.is_dual([[omega]]) == dual
        for z in (0.0, 1.7, -23.4):
            got = log_theta_many(np.array([[z]]), np.array([[omega]]))[0]
            assert got == pytest.approx(direct_1d_sum(omega, z, Lattice.FULL, 30), abs=1e-12)

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_batch_matches_single(self, h):
        import rtbm.theta as theta

        rng = np.random.default_rng(60 + h)
        omega = random_spd(rng, h, 0.05, 2.0)
        assert self.is_dual(omega)
        # more than three of the dual sum's blocks of rows
        rows = over_three_blocks(
            theta._BLOCK // theta._kernel(omega, Lattice.FULL).shared_points()[0].shape[1])
        zs = rng.uniform(-40, 40, (rows, h)) @ omega + rng.uniform(-1, 1, (rows, h))
        assert_batch_independent(zs, omega)

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
        return theta._kernel(np.asarray(omega, dtype=float), lattice).shared_points()[2]

    @pytest.mark.parametrize("omega, separable", [
        ([[19.0, 4.0], [4.0, 17.0]], True),
        (np.diag([0.3, 50.0]), True),                  # 45 values of k_1, 3 of k_2
        (rotated([3.0, 20.0], 0.6), True),             # 11 x 9 table, 55 points
        (400.0 * np.array([[1.0, 0.3], [0.3, 1.0]]), True),
        (rotated([0.5, 30.0]), False),                 # 25 x 25 table, 139 points
        (600.0 * np.array([[1.0, 0.3], [0.3, 1.0]]), True),  # some rows' factors pass e^600
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
        assert_batch_independent(zs, omega)

        # More than three blocks of the wide step (45 values of k_1 set it),
        # so rows share blocks of many sizes with different neighbours, with
        # a few rows past the far-row gate mixed in: those leave the batch
        # before it is cut into blocks, so every boundary after them moves.
        import rtbm.theta as theta

        omega = np.diag([0.3, 50.0])
        tables = self.tables(omega)
        assert tables is not None and max(tables.weights.shape) == 45
        rows = over_three_blocks(theta._TABLE_BLOCK // max(tables.weights.shape))
        zs = np.vstack([rng.uniform(-1, 1, (rows, 2)), rng.uniform(-40, 40, (rows // 10, 2))])
        zs = zs @ omega
        far = rng.choice(zs.shape[0], 5, replace=False)
        zs[far] = rng.uniform(-1e20, 1e20, (5, 2))
        assert_batch_independent(zs, omega)

        # One row past a whole block (a 3 x 45 table, 1456 rows per block):
        # numpy would sum a block of that one row in another order, so it
        # must equal its own single-row call.
        omega = np.diag([50.0, 0.3])
        tables = self.tables(omega)
        step = theta._TABLE_BLOCK // max(tables.weights.shape)
        assert tables.weights.shape == (3, 45) and step == 1456
        for _ in range(40):
            zs = rng.uniform(-1, 1, (step + 1, 2)) @ omega
            assert log_theta_many(zs, omega)[-1] == log_theta_many(zs[-1:], omega)[0]

    @pytest.mark.parametrize("eigs", [[1e-8, 50.0], [50.0, 1e-8], [3e-7, 50.0]],
                             ids=["long-k1", "long-k2", "half-block-k1"])
    def test_tables_past_the_work_array_sum_directly(self, eigs):
        import rtbm.theta as theta

        # Primal kernels (the dual's off-origin bound is above 1/2) whose
        # offsets span about 270,000 or 48,000 values of one coordinate and
        # 3 of the other: every other gate passes, but no block of two rows
        # fits the work array, so the tables are not built.
        omega = np.diag(eigs)
        kernel = theta._kernel(omega, Lattice.FULL)
        cols = kernel.shared_points()[0]
        assert kernel.dual is None
        assert np.ptp(cols, axis=1).max() + 1 > theta._TABLE_BLOCK // 2
        rng = np.random.default_rng(44)
        zs = np.vstack([np.zeros(2), rng.uniform(-3, 3, (5, 2)) @ omega])
        assert_batch_independent(zs, omega)
        assert self.tables(omega) is None
        # Omega is diagonal, so the sum is the sum of two 1-D sums
        expected = sum(log_theta_many(zs[:, [j]], omega[j:j + 1, j:j + 1]) for j in range(2))
        np.testing.assert_allclose(log_theta_many(zs, omega), expected, rtol=1e-12)

    def test_threads_keep_their_own_work_arrays(self):
        # four threads at once, more than the cores, each summing its own
        # matrix and rows, must give the sums each makes alone
        rng = np.random.default_rng(21)
        cases = []
        for k in range(4):
            omega = rotated([3.0 + k, 20.0], 0.6)
            zs = rng.uniform(-3, 3, (6000, 2)) @ omega
            assert self.tables(omega) is not None
            cases.append((omega, zs))
        assert_threads_repeat_their_sums(cases)

    def test_past_the_overflow_gate_sums_directly(self, monkeypatch):
        import rtbm.theta as theta

        # |g_j| max |k_j| reaches 780 summed over j where the maximizer lies
        # halfway between lattice points, past the per-row test's 600.  The
        # kernel takes tables all the same; only the rows past 600 sum directly.
        omega = 600.0 * np.array([[1.0, 0.3], [0.3, 1.0]])
        tables = self.tables(omega)
        assert tables is not None
        assert 0.5 * np.abs(omega).sum(axis=1) @ tables.reach[:, 0] > theta._LOG_FACTOR_CAP
        rng = np.random.default_rng(9)
        zs = rng.uniform(-30, 30, (40, 2)) @ omega
        assert_far_rows_sum_directly(omega, zs, monkeypatch)

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
        assert theta._kernel(omega, Lattice.FULL).kept[0].shape[1] == 23

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
        kernel = theta._kernel(omega, Lattice.FULL)
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


def equicorrelated(h, scale, rho):
    """``scale`` times the matrix with ones on the diagonal and ``rho`` off it."""
    return scale * ((1.0 - rho) * np.eye(h) + rho)


class TestSeparableSumsAnyH:
    """The separable form at h = 3 and 4: k_1 against the prefixes (k_2, ..., k_h)."""

    @staticmethod
    def separable(h):
        # the matrices of scripts/output_digests.py: 7 x 49 and 7 x 255 tables
        return random_spd(np.random.default_rng([h, 16]), h, 5.0, 20.0)

    @pytest.mark.parametrize("h, omega, separable", [
        (3, equicorrelated(3, 100.0, 0.3), True),      # factors up to e^480
        (3, equicorrelated(3, 150.0, 0.3), True),      # e^720: such rows sum directly
        (4, equicorrelated(4, 100.0, 0.1), True),      # e^520
        (4, equicorrelated(4, 150.0, 0.1), True),      # e^780
        (3, None, True),
        (3, thin_along_diagonal(3), False),            # 15 x 91 table for 417 offsets
        (4, None, True),
        (4, thin_along_diagonal(4), False),            # 15 x 525 table for 2213 offsets
    ], ids=["overflow-h3-in", "overflow-h3-out", "overflow-h4-in", "overflow-h4-out",
            "fill-h3-in", "fill-h3-out", "fill-h4-in", "fill-h4-out"])
    def test_both_sides_of_each_gate_against_reference(self, h, omega, separable):
        import rtbm.theta as theta

        omega = self.separable(h) if omega is None else omega
        kernel = theta._kernel(omega, Lattice.FULL)
        assert kernel.dual is None
        assert (kernel.shared_points()[2] is not None) == separable
        rng = np.random.default_rng(32 + h)
        lam_min = np.linalg.eigvalsh(omega)[0]
        for _ in range(2):
            z = omega @ rng.uniform(-3, 3, h)
            got = log_theta_many(z[None, :], omega)[0]
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, lam_min))
            assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("h, omega", [
        (3, equicorrelated(3, 150.0, 0.3)),
        (4, equicorrelated(4, 150.0, 0.1)),
    ], ids=["h3", "h4"])
    def test_rows_past_the_factor_test_sum_directly(self, h, omega, monkeypatch):
        # factors up to e^720 and e^780 where the maximizer lies halfway
        # between lattice points: the kernels take tables, and the rows
        # whose own factors pass e^600 (every fourth row here, 0.49 off a
        # lattice point along each coordinate) sum directly
        rng = np.random.default_rng(60 + h)
        frac = rng.uniform(-0.5, 0.5, (40, h))
        frac[::4] = rng.choice([-0.49, 0.49], (10, 1))
        zs = (rng.integers(-3, 4, (40, h)) + frac) @ omega
        assert_far_rows_sum_directly(omega, zs, monkeypatch)

    @pytest.mark.parametrize("eigs, separable", [
        ([1e-6, 50.0, 50.0], True),     # 30709 values of k_1, under 2^15
        ([3e-7, 50.0, 50.0], False),    # 56283 values of k_1: no block fits
    ], ids=["width-in", "width-out"])
    def test_both_sides_of_the_width_gate(self, eigs, separable):
        import rtbm.theta as theta

        omega = np.diag(eigs)
        kernel = theta._kernel(omega, Lattice.FULL)
        assert kernel.dual is None
        tables = kernel.shared_points()[2]
        assert (tables is not None) == separable
        if separable:
            assert max(tables.weights.shape) <= theta._TABLE_BLOCK // 2
        rng = np.random.default_rng(45)
        zs = np.vstack([np.zeros(3), rng.uniform(-3, 3, (3, 3)) @ omega])
        # Omega is diagonal, so the sum is the sum of three 1-D sums
        expected = sum(log_theta_many(zs[:, [j]], omega[j:j + 1, j:j + 1]) for j in range(3))
        np.testing.assert_allclose(log_theta_many(zs, omega), expected, rtol=1e-12)

    def test_empty_prefixes_bound_the_factors(self):
        import rtbm.theta as theta

        # A tilted matrix whose factors stay under e^600 (566) for every g
        # within its bounds, and whose table holds prefixes with no offset and
        # |k_2| = 3, past every offset's |k_2| = 2; their factors V_m are
        # formed all the same.
        omega = random_spd(np.random.default_rng([3, 129]), 3, 20.0, 200.0)
        cols, quad, tables = theta._kernel(omega, Lattice.FULL).shared_points()
        assert tables is not None
        np.testing.assert_array_equal(cols.max(axis=1), [1, 2, 2])
        np.testing.assert_array_equal(tables.reach[:, 0], [1, 3, 2])
        bound = 0.5 * np.abs(omega).sum(axis=1) @ tables.reach[:, 0]
        assert 500 < bound <= theta._LOG_FACTOR_CAP
        # g along k_2 at the far-row test's edge, counted against |k_2| = 3 and
        # against the offsets' 2 (where e^(3 x 299) would overflow), both signs
        g = np.array([[0.0, 199.0, 0.0], [0.0, -199.0, 0.0],
                      [0.0, 299.0, 0.0], [0.0, -299.0, 0.0]]).T
        f0 = np.zeros(g.shape[1])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = theta._separable_log_sums(g, f0, cols, quad, tables)
            np.testing.assert_allclose(got, theta._log_sums(g, f0, cols, quad, None),
                                       rtol=1e-14)
            rng = np.random.default_rng(41)
            zs = rng.uniform(-3, 3, (200, 3)) @ omega
            assert_batch_independent(zs, omega)
        lam_min = np.linalg.eigvalsh(omega)[0]
        for z in zs[:3]:
            ref = log_theta_reference(z, omega, radius=reference_radius(z, omega, lam_min))
            assert log_theta_many(z[None, :], omega)[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("h", [3, 4])
    def test_batch_matches_single(self, h):
        import rtbm.theta as theta

        # More than three blocks and a remainder, with rows far apart so each
        # block mixes many maximizers, and five rows past the far-row gate
        # mixed in, which leave the batch before it is cut into blocks.
        omega = self.separable(h)
        tables = theta._kernel(omega, Lattice.FULL).shared_points()[2]
        step = theta._TABLE_BLOCK // max(tables.weights.shape)
        rng = np.random.default_rng(80 + h)
        rows = over_three_blocks(step)
        zs = np.vstack([rng.uniform(-1, 1, (rows, h)), rng.uniform(-40, 40, (rows // 10, h))])
        zs = zs @ omega
        far = rng.choice(zs.shape[0], 5, replace=False)
        zs[far] = rng.uniform(-1e20, 1e20, (5, h))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert_batch_independent(zs, omega)
        # one row past a whole block is a block of its own
        for _ in range(20):
            zs = rng.uniform(-1, 1, (step + 1, h)) @ omega
            assert log_theta_many(zs, omega)[-1] == log_theta_many(zs[-1:], omega)[0]

    def test_threads_keep_their_own_work_arrays(self):
        import rtbm.theta as theta

        # four threads at once, each summing its own h = 3 matrix and rows
        # over several blocks, must give the sums each makes alone
        rng = np.random.default_rng(23)
        cases = []
        for k in range(4):
            omega = (1.0 + 0.05 * k) * self.separable(3)
            zs = rng.uniform(-3, 3, (3000, 3)) @ omega
            assert theta._kernel(omega, Lattice.FULL).shared_points()[2] is not None
            cases.append((omega, zs))
        assert_threads_repeat_their_sums(cases)


class TestDualCosine:
    """The dual sums take cos(2 pi x) from the tangent of pi x."""

    @staticmethod
    def cos_log_sums(nhat, cols, weights):
        phase = nhat.T @ cols
        return np.log((weights * np.cos(2.0 * np.pi * (phase - np.rint(phase)))).sum(axis=1))

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_matches_the_cosine_on_exact_and_dense_phases(self, h):
        import rtbm.theta as theta

        rng = np.random.default_rng(190 + h)
        omega = random_spd(rng, h, 0.05, 2.0)
        kernel = theta._kernel(omega, Lattice.FULL)
        assert kernel.dual is not None
        cols, weights = kernel.shared_points()
        # each coordinate of nhat at +-1/2, +-1/4 and 0, the others at 0, so
        # the phases k.nhat are multiples of 1/4 and reduce to those values
        special = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        rows = [np.eye(h)[j] * x for j in range(h) for x in special]
        dense = np.linspace(-1.0, 1.0, 4001)
        rows += [np.full(h, x) for x in dense]
        rows += list(rng.uniform(-3.0, 3.0, (2000, h)))
        nhat = np.ascontiguousarray(np.array(rows).T)
        with np.errstate(all="raise"):
            got = theta._dual_log_sums(nhat, cols, weights)
        np.testing.assert_allclose(got, self.cos_log_sums(nhat, cols, weights),
                                   rtol=0, atol=1e-15)

    def test_half_phase_is_exactly_minus_one(self):
        import rtbm.theta as theta

        cols, weights = np.array([[0.0, 1.0]]), np.array([1.0, 0.375])
        nhat = np.array([[-0.5, 0.5, -1.5, 2.5]])
        with np.errstate(all="raise"):
            got = theta._dual_log_sums(nhat, cols, weights)
        np.testing.assert_array_equal(got, np.log(1.0 - 0.375))


class TestEnumeration:
    """The Fincke-Pohst enumeration's points and its |L^T (n - c)|^2."""

    @staticmethod
    def kernel(h, dual):
        import rtbm.theta as theta

        rng = np.random.default_rng(30 + h + 10 * dual)
        omega = random_spd(rng, h, 0.05, 2.0) if dual else random_spd(rng, h, 20.0, 60.0)
        kernel = theta._kernel(omega, Lattice.FULL)
        assert (kernel.dual is not None) == dual
        return kernel

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_squared_norm_matches_the_quadratic_form(self, h, dual):
        import rtbm.theta as theta

        kernel = self.kernel(h, dual)
        form = kernel.dual if dual else kernel
        _, points, sq, _, _ = theta._ellipsoid_points(form.chol, np.zeros((1, h)),
                                                      np.array([form.radius]))
        assert points.shape[0] == h and points.dtype == float
        np.testing.assert_allclose(0.5 * sq, 0.5 * np.einsum("hk,hl,lk->k", points, form.omega,
                                                             points), rtol=1e-14)
        # the kept offsets: k^T Omega k / 2 in the primal form, the weights'
        # exp(-k^T Omega' k / 2) in the dual
        kept = kernel.shared_points()
        quad = np.einsum("hk,hl,lk->k", kept[0], form.omega, kept[0])
        if dual:
            first = kept[0][(kept[0] != 0).argmax(axis=0), np.arange(kept[0].shape[1])]
            np.testing.assert_allclose(kept[1], np.where(first > 0, 2.0, 1.0) * np.exp(-0.5 * quad),
                                       rtol=1e-13)
        else:
            np.testing.assert_allclose(kept[1], 0.5 * quad, rtol=1e-14)

    @pytest.mark.parametrize("orthant", [False, True], ids=["full", "orthant"])
    def test_squared_norm_about_each_centre(self, orthant):
        import rtbm.theta as theta

        rng = np.random.default_rng(17)
        omega = random_spd(rng, 3, 2.0, 10.0)
        chol = np.linalg.cholesky(omega)
        centres = rng.uniform(-2.0, 4.0, (5, 3))
        owner, points, sq, _, _ = theta._ellipsoid_points(chol, centres, np.full(5, 3.0),
                                                          orthant)
        u = points - centres.T[:, owner]
        np.testing.assert_allclose(sq, np.einsum("hk,hl,lk->k", u, omega, u), rtol=1e-14)
        assert (sq <= 9.0 * (1.0 + 1e-12)).all()
        assert (points == np.rint(points)).all() and (not orthant or (points >= 0).all())

    def test_collected_and_sampled_points_are_int64(self, tfit_params):
        import rtbm.theta as theta
        from rtbm.sampling import hidden_distribution

        omega = np.array([[3.0, 0.5], [0.5, 2.0]])
        kernel = theta._kernel(omega, Lattice.FULL)
        _, points, _ = theta._own_terms(np.array([[0.3, -0.2]]), omega, kernel.chol,
                                        np.array([[0.1, 0.0]]), np.array([4.0]),
                                        np.array([[0.0, 0.0]]), False)
        assert points.dtype == np.int64 and points.shape[1] == 2
        _, collected, _ = log_theta_many(np.array([[0.3, -0.2]]), omega, collect_terms=True)
        assert collected.dtype == np.int64
        assert hidden_distribution(tfit_params).points.dtype == np.int64


# eigenvalue ranges of scripts/output_digests.py: dual, mixed and primal sums
DIGEST_SCALES = {"small": (0.05, 2.0), "mid": (0.5, 20.0), "stiff": (5.0, 200.0)}


def box_offsets(omega, radius):
    """Integer k with k^T Omega k <= radius^2 (1 + 1e-12), by brute force over a box.

    The box is the ellipsoid's extent radius sqrt((Omega^-1)_ii) along each
    axis, padded by one.  Returns the offsets as float coordinate rows, in the
    enumeration's order (by k_h, then k_{h-1}, ..., then k_1, each
    ascending), and their k^T Omega k, each a sum of h^2 products; asserts
    that no point of the box lies so near the boundary that rounding could
    decide it.
    """
    reach = np.ceil(radius * np.sqrt(np.diag(np.linalg.inv(omega)))).astype(int) + 1
    # past 2^22 points the box would take gigabytes (1e8 points for the h = 5
    # small matrix's orthant kernel): a case that needs one is not a test case
    assert np.prod(2.0 * reach + 1.0) <= 1 << 22
    axes = [np.arange(-r, r + 1.0) for r in reach]
    box = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
    quad = np.einsum("hk,hl,lk->k", box, omega, box)
    limit = radius ** 2 * (1.0 + 1e-12)
    assert not (np.abs(quad - limit) <= 1e-9 * limit).any()
    inside = quad <= limit
    box, quad = box[:, inside], quad[inside]
    order = np.lexsort(box)     # the last row is the primary key
    return box[:, order], quad[order]


class TestFreshKernels:
    """A cache miss's offsets and k^T Omega k / 2 against a brute-force reference."""

    @staticmethod
    def fresh(h, scale, lattice):
        import rtbm.theta as theta

        rng = np.random.default_rng([h, list(DIGEST_SCALES).index(scale)])
        omega = random_spd(rng, h, *DIGEST_SCALES[scale])
        theta._KERNELS.clear()
        return theta._kernel(omega, lattice)

    # at h = 5 the small matrix's orthant kernel is primal, and its box would
    # hold 1e8 points
    @pytest.mark.parametrize("h, scale, lattice", [
        (h, scale, lattice) for h in range(1, 6) for scale in DIGEST_SCALES for lattice in Lattice
        if (h, scale, lattice) != (5, "small", Lattice.NONNEG)])
    def test_offsets_match_a_box_enumeration(self, h, scale, lattice):
        import rtbm.theta as theta

        kernel = self.fresh(h, scale, lattice)
        kept = kernel.shared_points()
        if kernel.dual is None:
            cols, quad, _ = kept
            ref_cols, ref_quad = box_offsets(kernel.omega, kernel.radius)
            np.testing.assert_array_equal(cols, ref_cols)
            np.testing.assert_array_max_ulp(quad, 0.5 * ref_quad, maxulp=8)
            return
        # k = 0 and, of each pair +-k, the one whose first nonzero entry is
        # positive, in the enumeration's order, weighted exp(-k^T Omega' k / 2)
        # and doubled off the origin
        dual = kernel.dual
        ref_cols, ref_quad = box_offsets(dual.omega, dual.radius)
        nonzero = ref_cols != 0
        first = np.where(nonzero.any(axis=0),
                         ref_cols[nonzero.argmax(axis=0), np.arange(ref_cols.shape[1])], 0.0)
        keep = first >= 0
        cols, weights = kept
        np.testing.assert_array_equal(cols, ref_cols[:, keep])
        np.testing.assert_allclose(
            weights, np.where(first[keep] > 0, 2.0, 1.0) * np.exp(-0.5 * ref_quad[keep]),
            rtol=1e-13, atol=0)
        # the dual's k^T Omega' k / 2 as its kernel enumerates them
        _, points, sq, _, _ = theta._ellipsoid_points(dual.chol, np.zeros((1, h)),
                                                      np.array([dual.radius]))
        np.testing.assert_array_equal(points, ref_cols)
        np.testing.assert_array_max_ulp(0.5 * sq, 0.5 * ref_quad, maxulp=8)

    # the full-lattice kernels of the battery's matrices that take tables
    @pytest.mark.parametrize("h, scale", [(2, "stiff"), (3, "mid"), (3, "stiff"), (4, "mid"),
                                          (4, "stiff"), (5, "stiff")])
    def test_separable_tables_match_a_box_enumeration(self, h, scale):
        # the table's prefixes are those the enumeration visits, (k_2, ..., k_h)
        # with p^T S p <= R^2 (S the Schur complement of Omega_11, the least
        # k^T Omega k over k_1), from the first to the last that holds an offset
        kernel = self.fresh(h, scale, Lattice.FULL)
        assert kernel.dual is None
        cols, quad, tables = kernel.shared_points()
        assert tables is not None
        omega, radius = kernel.omega, kernel.radius
        ref_cols, _ = box_offsets(omega, radius)
        schur = omega[1:, 1:] - np.outer(omega[1:, 0], omega[0, 1:]) / omega[0, 0]
        visited, _ = box_offsets(schur, radius)
        offset_prefixes = set(map(tuple, ref_cols[1:].T.tolist()))
        held = [m for m, p in enumerate(map(tuple, visited.T.tolist())) if p in offset_prefixes]
        prefixes = visited[:, held[0]:held[-1] + 1]
        k1 = ref_cols[0].max()
        np.testing.assert_array_equal(tables.firsts, np.arange(-k1, k1 + 1)[:, None])
        np.testing.assert_array_equal(tables.prefixes, prefixes[:, :, None])
        np.testing.assert_array_equal(
            tables.reach, np.concatenate(([k1], np.abs(prefixes).max(axis=1)))[:, None])
        # each offset's weight exp(-k^T Omega k / 2) in its cell, zero elsewhere
        expected = np.zeros(tables.weights.shape)
        column = {p: m for m, p in enumerate(map(tuple, prefixes.T.tolist()))}
        expected[(ref_cols[0] + k1).astype(int),
                 [column[p] for p in map(tuple, ref_cols[1:].T.tolist())]] = np.exp(-quad)
        np.testing.assert_array_max_ulp(tables.weights, expected, maxulp=2)

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_dual_scale_and_bound(self, h):
        # log((2 pi)^{h/2} det(Omega)^{-1/2}), and the bound prod_i
        # (min(2R / L'_ii, 2R sqrt(Omega_ii) / 2 pi) + 1) of the dual offsets
        kernel = self.fresh(h, "small", Lattice.FULL)
        dual = kernel.dual
        assert dual is not None
        log_det = np.linalg.slogdet(kernel.omega)[1]
        assert dual.log_scale == pytest.approx(0.5 * h * math.log(2.0 * math.pi) - 0.5 * log_det,
                                               rel=1e-13, abs=1e-13)
        pivots = dual.chol.diagonal()
        reach = np.minimum(2.0 * dual.radius / pivots,
                           2.0 * dual.radius * np.sqrt(np.diag(kernel.omega)) / (2.0 * math.pi))
        assert dual.bound == pytest.approx(np.prod(reach * (1.0 + 1e-12) + 1.0), rel=1e-14)
        assert box_offsets(dual.omega, dual.radius)[0].shape[1] <= dual.bound < 1 << 21

    def test_every_form_occurs(self):
        forms = set()
        for h in range(1, 5):
            for scale in DIGEST_SCALES:
                for lattice in Lattice:
                    kernel = self.fresh(h, scale, lattice)
                    tables = None if kernel.dual else kernel.shared_points()[2]
                    forms.add("dual" if kernel.dual else "separable" if tables else "direct")
        assert forms == {"dual", "separable", "direct"}
