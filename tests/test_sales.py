import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcast.core import TimeHorizon
from claimcast.errors import DomainError, FitError
from claimcast.sales import (
    BassParams,
    GaussianLimit,
    ResidualDecomposition,
    assemble_fluctuation,
    centered_moving_average,
    compute_residuals,
    decompose_residuals,
    fit_bass,
    sample_acf,
    window_increment_moments,
)

W, T = 1096, 91
HORIZON = TimeHorizon(W, T)

CAR_P, CAR_C = 4.0149e-4, 1.6738e-2  # daily-fit coefficients from the car study


def car_bass(n=34807, origin=-1116):
    return BassParams(p=CAR_P, q=CAR_C - CAR_P, n=n, origin=origin)


class TestBassCurve:
    def test_anchored_at_origin_and_saturating(self):
        b = car_bass()
        assert b.share(b.origin) == 0.0
        assert b.share(b.origin - 50) == 0.0
        assert b.share(1e7) == pytest.approx(1.0)

    @given(
        logp=st.floats(-9.0, -1.0),
        logc=st.floats(-7.0, -0.5),
        t1=st.floats(-1200, 300),
        t2=st.floats(-1200, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_share_monotone_in_unit_interval(self, logp, logc, t1, t2):
        p = float(np.exp(logp))
        c = float(np.exp(logc))
        b = BassParams(p=p, q=c - p, n=100, origin=-1096)
        lo, hi = min(t1, t2), max(t1, t2)
        assert 0.0 <= b.share(lo) <= b.share(hi) <= 1.0


class TestFitBass:
    def test_recovers_noiseless_curve(self):
        truth = car_bass()
        days = np.arange(-1115, 1)
        counts = truth.n * (truth.share(days) - truth.share(days - 1))
        fit = fit_bass(counts, truth.n, first_day=-1115)
        assert fit.p == pytest.approx(truth.p, rel=1e-6)
        assert fit.p + fit.q == pytest.approx(truth.p + truth.q, rel=1e-6)
        assert fit.origin == truth.origin

    def test_binned_fit_consistent(self):
        truth = car_bass()
        days = np.arange(-1115, 1)
        counts = truth.n * (truth.share(days) - truth.share(days - 1))
        fit = fit_bass(counts, truth.n, first_day=-1115, bin_width=12)
        assert fit.p == pytest.approx(truth.p, rel=1e-5)
        assert fit.p + fit.q == pytest.approx(truth.p + truth.q, rel=1e-5)

    def test_too_short_series_rejected(self):
        with pytest.raises(DomainError):
            fit_bass(np.ones(10), 100, first_day=-10)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            fit_bass(np.r_[np.ones(40), -1.0], 100, first_day=-41)


class TestResiduals:
    def test_exact_curve_gives_zero_residuals(self):
        b = car_bass(n=10000)
        days = np.arange(-1115, 1)
        counts = b.n * (b.share(days) - b.share(days - 1))
        r = compute_residuals(counts, -1115, b)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_single_day_surplus_scales_as_root_n(self):
        b = car_bass(n=2500)
        days = np.arange(-1115, 1)
        counts = b.n * (b.share(days) - b.share(days - 1))
        counts[300] += 7.0
        r = compute_residuals(counts, -1115, b)
        assert r[300] == pytest.approx(7.0 / 50.0)
        assert np.allclose(np.delete(r, 300), 0.0, atol=1e-12)


class TestDecomposeResiduals:
    def test_constant_series_floors_scale(self):
        r = np.full(200, 0.3)
        dec = decompose_residuals(r, first_day=-200, halfwidth=10)
        assert np.allclose(dec.trend, 0.3)
        assert np.all(dec.scale == pytest.approx(1e-8))
        assert np.all(np.isfinite(dec.std_resid))

    def test_stationary_shortcut_is_identity(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=300)
        dec = decompose_residuals(r, first_day=-300, stationary=True)
        assert np.array_equal(dec.std_resid, r)
        assert np.all(dec.trend == 0.0)
        assert np.all(dec.scale == 1.0)

    def test_white_noise_acf_inside_bands(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=800)
        dec = decompose_residuals(r, first_day=-800, stationary=True)
        band = 2.0 / np.sqrt(len(r))
        lags = dec.acf[1:200]
        assert np.mean(np.abs(lags) <= band) >= 0.90
        assert dec.acf[0] == pytest.approx(1.0)

    def test_series_shorter_than_window_rejected(self):
        with pytest.raises(DomainError):
            decompose_residuals(np.ones(20), first_day=-20, halfwidth=15)

    def test_moving_average_edges_shrink(self):
        x = np.arange(10.0)
        ma = centered_moving_average(x, 2)
        assert ma[0] == pytest.approx(np.mean(x[:3]))
        assert ma[5] == pytest.approx(np.mean(x[3:8]))
        assert ma[-1] == pytest.approx(np.mean(x[-3:]))


def make_decomposition(days, std, trend=None, scale=None, acf=None, var=None):
    """Hand-built decomposition for exact fluctuation-limit tests."""
    std = np.asarray(std, dtype=float)
    n = len(std)
    trend = np.zeros(n) if trend is None else np.asarray(trend, dtype=float)
    scale = np.ones(n) if scale is None else np.asarray(scale, dtype=float)
    acf_arr = np.zeros(n) if acf is None else np.asarray(acf, dtype=float)
    if acf is None:
        acf_arr[0] = 1.0
    return ResidualDecomposition(
        days=np.asarray(days),
        trend=trend,
        scale=scale,
        std_resid=std,
        mean=float(np.mean(std)),
        var=float(np.var(std, ddof=1)) if var is None else var,
        acf=acf_arr,
        stationary=trend is None and scale is None,
    )


class TestAssembleFluctuation:
    def test_unit_white_noise_gives_brownian_grid(self):
        h = TimeHorizon(60, 20)
        days = np.arange(-59, 1)
        # mean 0, var 1, acf = delta: increments iid standard
        dec = make_decomposition(days, np.zeros(60), var=1.0)
        dec = ResidualDecomposition(
            days=days,
            trend=np.zeros(60),
            scale=np.ones(60),
            std_resid=np.zeros(60),
            mean=0.0,
            var=1.0,
            acf=np.r_[1.0, np.zeros(59)],
            stationary=True,
        )
        limit = assemble_fluctuation(dec, h)
        assert np.allclose(limit.mean, 0.0)
        d = np.arange(-60, 21)
        want = np.minimum.outer(d, d) + 60.0
        assert np.allclose(limit.cov, want)

    def test_round_trip_increments(self):
        rng = np.random.default_rng(17)
        h = TimeHorizon(80, 25)
        days = np.arange(-79, 1)
        r = rng.normal(0.1, 0.5, size=80) + 0.002 * days
        dec = decompose_residuals(r, first_day=-79, halfwidth=8)
        limit = assemble_fluctuation(dec, h, poly_degree=2)
        incr = np.diff(limit.mean)
        obs = limit.index(days)
        scale_obs = dec.scale
        assert np.allclose(
            incr[obs[0] - 1 : obs[-1]], dec.trend + dec.mean * scale_obs
        )

    def test_zero_mean_std_resid_leaves_trend_only(self):
        h = TimeHorizon(60, 20)
        days = np.arange(-59, 1)
        trend = 0.01 * np.ones(60)
        dec = ResidualDecomposition(
            days=days,
            trend=trend,
            scale=np.ones(60),
            std_resid=np.zeros(60),
            mean=0.0,
            var=1.0,
            acf=np.r_[1.0, np.zeros(59)],
        )
        limit = assemble_fluctuation(dec, h, poly_degree=0)
        assert np.allclose(np.diff(limit.mean), 0.01)

    def test_scale_extension_stays_positive(self):
        rng = np.random.default_rng(19)
        h = TimeHorizon(90, 30)
        days = np.arange(-89, 1)
        r = rng.normal(0, 0.02, size=90)
        dec = decompose_residuals(r, first_day=-89, halfwidth=10)
        limit = assemble_fluctuation(dec, h, poly_degree=3)
        # cumulative variances stay non-negative even where the log-scale
        # polynomial extrapolates
        assert np.all(np.diag(limit.cov) >= -1e-12)
        assert np.all(np.isfinite(limit.cov))

    def test_rank_deficient_polynomial_raises(self):
        h = TimeHorizon(60, 20)
        days = np.arange(-59, 1)
        r = np.linspace(-1, 1, 60)
        dec = decompose_residuals(r, first_day=-59, halfwidth=5)
        with pytest.raises(FitError):
            assemble_fluctuation(dec, h, poly_degree=70)


class TestWindowIncrementMoments:
    def test_zero_mean_path(self):
        h = TimeHorizon(60, 20)
        d = np.arange(-60, 21)
        limit = GaussianLimit(-60, np.zeros(len(d)), np.zeros((len(d), len(d))))
        mean, cov = window_increment_moments(limit, h)
        assert np.allclose(mean, 0.0)
        assert cov.shape == (61, 61)

    def test_brownian_cov_is_window_overlap(self):
        # derived oracle: expanding the four-term formula with
        # cov(s, t) = min(s, t) + W gives the overlap of [-u, T-u] and
        # [-v, T-v], i.e. max(0, T - |u - v|)
        w, t = 60, 20
        h = TimeHorizon(w, t)
        d = np.arange(-w, t + 1)
        cov_grid = np.minimum.outer(d, d) + float(w)
        limit = GaussianLimit(-w, np.zeros(len(d)), cov_grid)
        mean, cov = window_increment_moments(limit, h)
        u = np.arange(w + 1)
        want = np.maximum(0.0, t - np.abs(u[:, None] - u[None, :]))
        assert np.allclose(cov, want)
        assert np.allclose(mean, 0.0)

    def test_linear_mean_path(self):
        w, t = 60, 20
        h = TimeHorizon(w, t)
        d = np.arange(-w, t + 1)
        limit = GaussianLimit(
            -w, 0.5 * (d.astype(float) + w), np.zeros((len(d), len(d)))
        )
        mean, _ = window_increment_moments(limit, h)
        assert np.allclose(mean, 0.5 * t)  # theta(T-u) - theta(-u) = T/2

    def test_offset_window_shifts_indices(self):
        w, t = 60, 20
        h = TimeHorizon(w, t, offset=t)
        d = np.arange(-w, 2 * t + 1)
        theta = (d.astype(float) + w) ** 2 / 100.0
        limit = GaussianLimit(-w, theta - theta[0], np.zeros((len(d), len(d))))
        mean, _ = window_increment_moments(limit, h)
        u = np.arange(w + 1)
        want = limit.mean[limit.index(2 * t - u)] - limit.mean[limit.index(t - u)]
        assert np.allclose(mean, want)

    def test_diagonal_nonnegative_on_realistic_fit(self):
        rng = np.random.default_rng(23)
        w, t = 120, 40
        h = TimeHorizon(w, t)
        r = rng.normal(0.05, 0.3, size=w) * (1 + 0.3 * np.sin(np.arange(w) / 9))
        dec = decompose_residuals(r, first_day=-w + 1, halfwidth=7)
        limit = assemble_fluctuation(dec, h)
        mean, cov = window_increment_moments(limit, h)
        assert np.all(np.diag(cov) >= -1e-10)
        assert np.allclose(cov, cov.T)
        # positive semidefiniteness up to numerical tolerance on a subsample
        sub = cov[::4, ::4]
        eigs = np.linalg.eigvalsh(sub)
        assert eigs.min() >= -1e-8


class TestSampleAcf:
    def test_psd_sequence(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=400)
        c = sample_acf(x, 100)
        # biased estimator's Toeplitz matrix is PSD
        from scipy.linalg import toeplitz

        eigs = np.linalg.eigvalsh(toeplitz(c))
        assert eigs.min() >= -1e-10
