import numpy as np
import pytest
import scipy.linalg as la
from scipy.special import logsumexp

from conftest import CONSTRUCTED_3D, random_valid_params
from references import quadrature_marginal
from rtbm.density import condition_on, log_pdf_many
from rtbm.errors import InsufficientSamplesError
from rtbm.model import RtbmParams, validate
from rtbm.sampling import (_BLOCK, MAX_BUCKETS, MAX_COUNTED_STATES, _buckets, _draw_table,
                           _state_index, empirical_conditional, hidden_distribution,
                           make_histogram, sample_visible)
from rtbm.theta import Lattice


def mixture_logpdf(params, vs):
    """Brute-force Gaussian-mixture evaluation of the visible density."""
    hd = hidden_distribution(params)
    chol = la.cholesky(params.t, lower=True)
    means = la.cho_solve((chol, True),
                         params.w @ hd.points.T - params.bv[:, None]).T
    logdet = 2 * np.log(np.diag(chol)).sum()
    dev = vs[:, None, :] - means[None, :, :]
    quad = np.einsum("bki,ij,bkj->bk", dev, params.t, dev)
    comp = 0.5 * logdet - 0.5 * params.n_v * np.log(2 * np.pi) - 0.5 * quad
    return logsumexp(comp + hd.log_weights[None, :], axis=1)


def per_draw_oracle(params, count, seed):
    """``sample_visible``'s draws, with one searched state and one mean solve per draw."""
    hd = hidden_distribution(params)
    cdf = np.cumsum(np.exp(hd.log_weights))
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    means = la.cho_solve((params.chol_t, True),
                         params.w @ hd.points[idx].T - params.bv[:, None]).T
    noise = rng.standard_normal((count, params.n_v))
    return means + la.solve_triangular(params.chol_t.T, noise.T, lower=False).T


class TestHiddenDistribution:
    def test_concentrated_case(self):
        p = RtbmParams(t=[[1.0]], q=[[50.0]], w=[[0.0]], bv=[0.0], bh=[0.0])
        hd = hidden_distribution(p)
        w = np.exp(hd.log_weights)
        center = np.flatnonzero((hd.points == 0).all(axis=1))[0]
        assert 1.0 - w[center] == pytest.approx(2 * np.exp(-25.0), rel=1e-4)

    def test_symmetric_when_unbiased(self):
        p = RtbmParams(t=np.eye(2), q=[[9.0, 1.0], [1.0, 7.0]],
                       w=np.zeros((2, 2)), bv=np.zeros(2), bh=np.zeros(2))
        hd = hidden_distribution(p)
        table = {tuple(pt): lw for pt, lw in zip(hd.points, hd.log_weights)}
        for pt, lw in table.items():
            neg = tuple(-x for x in pt)
            assert neg in table and table[neg] == pytest.approx(lw, abs=1e-13)

    def test_weights_normalized(self, tfit_params, constructed_2d_params):
        for p in (tfit_params, constructed_2d_params):
            hd = hidden_distribution(p)
            assert np.exp(logsumexp(hd.log_weights)) == pytest.approx(
                1.0, abs=1e-12)

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    def test_mixture_reproduces_density(self, lattice, tfit_params):
        p = RtbmParams(t=tfit_params.t, q=tfit_params.q, w=tfit_params.w,
                       bv=tfit_params.bv, bh=tfit_params.bh, lattice=lattice)
        vs = sample_visible(p, 100, seed=14)
        rel = np.expm1(mixture_logpdf(p, vs) - log_pdf_many(p, vs))
        assert np.abs(rel).max() <= 1e-9

    def test_dual_kernel_collects_without_its_primal_bound(self):
        import rtbm.theta as theta
        p = RtbmParams(**CONSTRUCTED_3D)
        assert validate(p).valid
        kernel = theta._kernel(p.schur, p.lattice)
        assert kernel.dual is not None
        hd = hidden_distribution(p)
        table = _draw_table(p)
        # the collected row bounds its own ellipsoid: the primal radius and
        # bound, which no row of a dual kernel uses, are never computed
        assert "radius" not in vars(kernel) and "bound" not in vars(kernel)
        kernel.bound
        fresh = RtbmParams(**CONSTRUCTED_3D)
        again = hidden_distribution(fresh)
        assert theta._kernel(fresh.schur, fresh.lattice) is kernel
        assert hd.points.tobytes() == again.points.tobytes()
        assert hd.log_weights.tobytes() == again.log_weights.tobytes()
        for a, b in zip(table, _draw_table(fresh)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_nonneg_points_stay_in_orthant(self):
        rng = np.random.default_rng(3)
        p = random_valid_params(rng, 2, 2, Lattice.NONNEG)
        hd = hidden_distribution(p)
        assert (hd.points >= 0).all()


class TestSampleVisible:
    def test_seed_determinism(self, tfit_params):
        a = sample_visible(tfit_params, 2000, seed=7)
        b = sample_visible(tfit_params, 2000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_visible(tfit_params, 2000, seed=8))

    def test_gaussian_case_moments(self):
        t = np.array([[2.0, 0.3], [0.3, 1.0]])
        bv = np.array([0.5, -1.0])
        p = RtbmParams(t=t, q=np.eye(2) * 9, w=np.zeros((2, 2)), bv=bv,
                       bh=np.zeros(2))
        s = sample_visible(p, 100000, seed=9)
        mu = -np.linalg.solve(t, bv)
        se = np.sqrt(np.diag(np.linalg.inv(t)) / 100000)
        assert np.all(np.abs(s.mean(axis=0) - mu) <= 4 * se)

    @pytest.mark.slow
    def test_3d_marginal_histogram(self, constructed_3d_params):
        # 2D histogram of the two leading coordinates against the
        # quadrature-marginalized density at the bin centers
        s = sample_visible(constructed_3d_params, 50000, seed=31)
        hist = make_histogram(s[:, :2], bins=30)
        cx, cy = hist.centers
        p, order = constructed_3d_params, [2, 0, 1]
        moved = RtbmParams(t=p.t[np.ix_(order, order)], q=p.q, w=p.w[order],
                           bv=p.bv[order], bh=p.bh)
        ref = np.empty((cx.size, cy.size))
        for i, x in enumerate(cx):
            for j, y in enumerate(cy):
                ref[i, j] = np.exp(quadrature_marginal(
                    moved, 1, [x, y], [(-4.0, 3.2, 401)]))
        mse = float(np.mean((hist.density - ref) ** 2))
        assert mse <= 1e-3

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    def test_draws_match_per_draw_means(self, lattice, tfit_params,
                                        constructed_2d_params, constructed_3d_params):
        # the component means are solved once per hidden state and gathered;
        # the draws equal those of solving one mean per draw, bit for bit
        for fixture in (tfit_params, constructed_2d_params, constructed_3d_params):
            p = RtbmParams(t=fixture.t, q=fixture.q, w=fixture.w, bv=fixture.bv,
                           bh=fixture.bh - 1.0, lattice=lattice)
            for seed in range(3):
                np.testing.assert_array_equal(sample_visible(p, 5000, seed),
                                              per_draw_oracle(p, 5000, seed))

    @pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    def test_draws_at_the_block_edges(self, lattice, count, tfit_params,
                                      constructed_2d_params, constructed_3d_params):
        # uniforms, states and gathered means are made one block at a time;
        # a short last block, or none, draws what one whole block would
        for fixture in (tfit_params, constructed_2d_params, constructed_3d_params):
            p = RtbmParams(t=fixture.t, q=fixture.q, w=fixture.w, bv=fixture.bv,
                           bh=fixture.bh - 1.0, lattice=lattice)
            np.testing.assert_array_equal(sample_visible(p, count, 4),
                                          per_draw_oracle(p, count, 4))

    @pytest.mark.parametrize("name", ["tfit", "constructed_2d", "constructed_3d"])
    def test_large_draw_makes_no_call_sized_temporary(self, name, request):
        # beside the returned draws, only the state index is as long as the
        # call: the uniforms and gathered means take block-sized memory
        import tracemalloc
        p = request.getfixturevalue(f"{name}_params")
        sample_visible(p, 10, 0)        # the draw table is kept
        index_bytes = np.min_scalar_type(p.memo["draw_table"][0].shape[0] - 1).itemsize
        count = 1 << 18
        tracemalloc.start()
        try:
            draws = sample_visible(p, count, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws.nbytes + count * index_bytes + (1 << 20)

    @pytest.mark.parametrize("lattice", [Lattice.FULL, Lattice.NONNEG])
    def test_kept_table_never_changes_a_draw(self, lattice, tfit_params,
                                             constructed_2d_params, constructed_3d_params):
        # a model that has drawn before, and whose draws were written to,
        # draws what a fresh equal model draws
        for fixture in (tfit_params, constructed_2d_params, constructed_3d_params):
            fields = dict(t=fixture.t, q=fixture.q, w=fixture.w, bv=fixture.bv,
                          bh=fixture.bh, lattice=lattice)
            used = RtbmParams(**fields)
            sample_visible(used, 1000, 99)[:] = np.nan
            for seed in (0, 1, 7):
                np.testing.assert_array_equal(sample_visible(used, 5000, seed),
                                              sample_visible(RtbmParams(**fields), 5000, seed))

    def test_child_builds_its_own_table(self, constructed_3d_params):
        p = RtbmParams(t=constructed_3d_params.t, q=constructed_3d_params.q,
                       w=constructed_3d_params.w, bv=constructed_3d_params.bv,
                       bh=constructed_3d_params.bh)
        sample_visible(p, 1000, 3)
        child, _ = condition_on(p, [2], [0.3])
        assert "draw_table" not in child.memo
        fresh = RtbmParams(t=child.t, q=child.q, w=child.w, bv=child.bv, bh=child.bh)
        np.testing.assert_array_equal(sample_visible(child, 5000, 4),
                                      sample_visible(fresh, 5000, 4))
        assert child.memo["draw_table"][1].shape == (
            hidden_distribution(child).points.shape[0], 2)

    def test_count_guard(self, tfit_params):
        with pytest.raises(ValueError):
            sample_visible(tfit_params, 0, seed=1)

    def test_count_is_an_integer(self, tfit_params):
        with pytest.raises(ValueError, match=r"^count 2\.5 is not an integer$"):
            sample_visible(tfit_params, 2.5, 1)
        np.testing.assert_array_equal(sample_visible(tfit_params, np.int64(3), 1),
                                      sample_visible(tfit_params, 3, 1))

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_is_named(self, tfit_params, seed):
        with pytest.raises(ValueError, match=r"^seed -?\d+ is negative"):
            sample_visible(tfit_params, 3, seed)


class TestStateIndex:
    @pytest.mark.parametrize("k", [1, 2, 7, MAX_COUNTED_STATES, MAX_COUNTED_STATES + 1, 527])
    @pytest.mark.parametrize("total", [1.0, 1.0 - 1e-3])
    def test_matches_searchsorted(self, k, total):
        # zero weights tie cdf entries (the first ones too); a total below 1
        # leaves the last entry raised to 1, as the sampler's table does
        rng = np.random.default_rng(k)
        weights = rng.random(k)
        weights[: k // 8] = 0.0
        weights[k // 2::5] = 0.0
        weights[-1] = 1.0
        cdf = np.cumsum(weights * (total / weights.sum()))
        cdf[-1] = max(cdf[-1], 1.0)
        below = cdf[cdf < 1.0]
        u = np.concatenate([rng.random(4000), [0.0, np.nextafter(1.0, 0.0), total],
                            below, np.nextafter(below, 0.0), np.nextafter(below, 1.0)])
        idx = _state_index(cdf, u, _buckets(cdf))
        np.testing.assert_array_equal(idx, np.searchsorted(cdf, u, side="right"))
        assert (idx.dtype == np.uint8) == (k <= MAX_COUNTED_STATES)

    @pytest.mark.parametrize("k, n_buckets", [(33, 256), (527, 4096), (4097, 1 << 15),
                                              (16385, MAX_BUCKETS)])
    def test_bucket_edges_match_searchsorted(self, k, n_buckets):
        # entries on bucket edges, between them and tied; u at every edge and
        # entry and just below each
        rng = np.random.default_rng(k)
        weights = rng.random(k) ** 4
        weights[k // 3::7] = 0.0
        cdf = np.cumsum(weights / weights.sum())
        cdf[::5] = np.floor(cdf[::5] * n_buckets) / n_buckets
        cdf = np.maximum.accumulate(cdf)
        cdf[-1] = max(cdf[-1], 1.0)
        lo = _buckets(cdf)
        assert lo.shape == (n_buckets + 2,)
        edges = np.arange(n_buckets) / n_buckets
        u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), cdf[cdf < 1.0],
                            np.nextafter(cdf, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        np.testing.assert_array_equal(_state_index(cdf, u, lo),
                                      np.searchsorted(cdf, u, side="right"))


class TestHistogram:
    def test_density_normalizes(self, tfit_params):
        s = sample_visible(tfit_params, 5000, seed=17)
        hist = make_histogram(s, bins=25)
        vol = np.outer(np.diff(hist.edges[0]), np.diff(hist.edges[1]))
        assert (hist.density * vol).sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_normalizes_1d(self, tfit_params):
        s = sample_visible(tfit_params, 3000, seed=18)
        hist = make_histogram(s[:, :1])
        assert hist.dims == 1 and hist.density.shape == (60,)
        widths = np.diff(hist.edges[0])
        assert (hist.density * widths).sum() == pytest.approx(1.0, abs=1e-12)

    def test_explicit_edges(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((1000, 1))
        edges = np.array([-4.0, -1.0, 0.0, 0.5, 4.0])
        hist = make_histogram(s, bins=[edges])
        np.testing.assert_array_equal(hist.edges[0], edges)
        assert (hist.density * np.diff(edges)).sum() == pytest.approx(1.0)

    def test_centers_are_bin_midpoints(self):
        s = np.array([[0.5, 0.5], [2.0, 1.5]])
        hist = make_histogram(s, bins=[[0.0, 1.0, 3.0], [0.0, 2.0, 4.0]])
        assert len(hist.centers) == 2
        np.testing.assert_array_equal(hist.centers[0], [0.5, 2.0])
        np.testing.assert_array_equal(hist.centers[1], [1.0, 3.0])

    @pytest.mark.parametrize("samples, bins, message", [
        (np.zeros((10, 3)), None, "histograms support 1 or 2 dimensions"),
        (np.arange(10.0)[:, None], [[1.0, 0.0, -1.0]],
         "explicit edges must be strictly increasing"),
        (np.ones((10, 1)), None, "degenerate bin range"),
        (np.arange(10.0)[:, None], [[20.0, 30.0]], "no samples fall inside the bin range")],
        ids=["three-columns", "decreasing-edges", "constant-samples", "empty-edges"])
    def test_unusable_samples_or_edges_are_named(self, samples, bins, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_histogram(samples, bins=bins)

    @pytest.mark.parametrize("bins, message", [
        (2.5, "bins 2.5 is not an integer"),
        (0, "bins must be at least 1, got 0"),
        (-3, "bins must be at least 1, got -3"),
        (float("nan"), "bins nan is not an integer"),
        ([4, 0], "bins must be at least 1, got 0"),
        ([4], r"bins has 1 item\(s\) for 2 dimension\(s\)"),
        ([4, 5, 6], r"bins has 3 item\(s\) for 2 dimension\(s\)")])
    def test_bad_bin_count_is_named(self, bins, message):
        s = np.random.default_rng(0).standard_normal((1000, 2))
        with pytest.raises(ValueError, match=message):
            make_histogram(s, bins=bins)
        with pytest.raises(ValueError, match=message):
            empirical_conditional(np.column_stack([s, s[:, :1]]), [2], [0.0],
                                  window=1.0, bins=bins)


class TestEmpiricalConditional:
    def test_independent_coordinates(self):
        # product density: conditioning changes nothing, so the windowed
        # histogram must match the plain marginal histogram
        rng = np.random.default_rng(5)
        s = rng.standard_normal((50000, 2))
        edges = np.linspace(-3.5, 3.5, 41)
        cond = empirical_conditional(s, [1], [0.3], window=0.2, bins=[edges])
        marginal = make_histogram(s[:, :1], bins=[edges])
        mse = float(np.mean((cond.density - marginal.density) ** 2))
        assert mse <= 5e-3

    @pytest.mark.slow
    def test_matches_child_density(self, constructed_2d_params):
        s = sample_visible(constructed_2d_params, 600000, seed=23)
        hist = empirical_conditional(s, [1], [2.0], window=0.05)
        child, _ = condition_on(constructed_2d_params, [1], [2.0])
        ref = np.exp(log_pdf_many(child, hist.centers[0][:, None]))
        mse = float(np.mean((hist.density - ref) ** 2))
        assert mse <= 1e-3

    def test_insufficient_samples(self, tfit_params):
        s = sample_visible(tfit_params, 2000, seed=19)
        with pytest.raises(InsufficientSamplesError, match="insufficient"):
            empirical_conditional(s, [0], [-2.0], window=1e-5)

    @pytest.mark.parametrize("indices, message", [
        ([-1], r"must be in \[0, 2\), got \[-1\]"),
        ([5], r"must be in \[0, 2\), got \[5\]"),
        ([0, 0], r"must be distinct, got \[0, 0\]"),
        ([0, 1], "cannot condition on every coordinate")])
    def test_bad_indices_are_named(self, indices, message):
        samples = np.random.default_rng(3).standard_normal((500, 2))
        with pytest.raises(ValueError, match=message):
            empirical_conditional(samples, indices, [0.0] * len(indices), window=5.0)

    def test_window_positivity_guard(self):
        with pytest.raises(ValueError):
            empirical_conditional(np.zeros((200, 2)), [0], [0.0], window=0.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf"), "a", None])
    def test_bad_window_is_named(self, window):
        with pytest.raises(ValueError, match=f"window must be positive and finite, got {window}"):
            empirical_conditional(np.zeros((200, 2)), [0], [0.0], window=window)
