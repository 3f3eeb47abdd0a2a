import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import _minpack, least_squares

from claimcast import sales as sales_mod
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.engine import fluctuation_moments
from claimcast.errors import DomainError, FitError
from claimcast.sales import (
    BASS_START,
    BassParams,
    ResidualDecomposition,
    _poly_fit,
    assemble_fluctuation,
    centered_moving_average,
    compute_residuals,
    decompose_residuals,
    fit_bass,
    sample_acf,
)
from fluctuation_grid import (
    age_weights,
    daily_increments,
    increment_grids,
    window_moments,
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
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_share_monotone_in_unit_interval(self, logp, logc, t1, t2):
        p = float(np.exp(logp))
        c = float(np.exp(logc))
        b = BassParams(p=p, q=c - p, n=100, origin=-1096)
        lo, hi = min(t1, t2), max(t1, t2)
        assert 0.0 <= b.share(lo) <= b.share(hi) <= 1.0

    @pytest.mark.parametrize(
        "p, q",
        [(np.nan, 0.01), (np.inf, 0.01), (4e-4, np.nan), (4e-4, np.inf), (4e-4, -np.inf)],
    )
    def test_non_finite_coefficients_rejected(self, p, q):
        with pytest.raises(DomainError, match="need finite p and q"):
            BassParams(p=p, q=q, n=100, origin=0)

    @pytest.mark.parametrize("p, q", [(0.0, 0.01), (-4e-4, 0.01), (4e-4, -4e-4)])
    def test_nonpositive_rates_rejected(self, p, q):
        with pytest.raises(DomainError, match=r"need p > 0 and p \+ q > 0"):
            BassParams(p=p, q=q, n=100, origin=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_total_rejected(self, n):
        with pytest.raises(DomainError, match="total sales must be positive"):
            BassParams(p=CAR_P, q=CAR_C - CAR_P, n=n, origin=0)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        counts = np.ones(40)
        counts[17] = bad
        with pytest.raises(DomainError, match="finite"):
            fit_bass(counts, 100, first_day=-40)

    @pytest.mark.parametrize("width", [0, -3])
    def test_nonpositive_bin_width_rejected(self, width):
        with pytest.raises(DomainError, match="bin width must be >= 1"):
            fit_bass(np.ones(40), 100, first_day=-40, bin_width=width)

    @pytest.mark.parametrize("days, width", [(40, 30), (59, 30), (30, 16)])
    def test_fewer_than_two_bins_rejected(self, days, width):
        with pytest.raises(DomainError, match="at least 2 bins"):
            fit_bass(np.ones(days), 100, first_day=-days, bin_width=width)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _fit_with_port(counts, n, first_day, bin_width):
    """fit_bass's outcome, the residual function it built and the port's run."""
    run = {}
    port = sales_mod._lmder

    def recording(fun, x0, **tolerances):
        points = []

        def logged(u):
            points.append(_bits(u))
            return fun(u)

        run.update(fun=fun, points=points, result=port(logged, x0, **tolerances))
        return run["result"]

    with mock.patch.object(sales_mod, "_lmder", recording):
        try:
            outcome = fit_bass(counts, n, first_day, bin_width)
        except (FitError, DomainError) as exc:
            outcome = exc
    return outcome, run


def _least_squares(fun):
    """scipy's fit of ``fun`` as fit_bass made it, with MINPACK's own output.

    Returns the result, lmder's info, nfev and residuals, and the points
    evaluated up to lmder's return (least_squares then evaluates its final
    Jacobian, which the port does not).
    """
    points, raw = [], {}
    lmder = _minpack._lmder

    def logged(u):
        points.append(_bits(u))
        return fun(u)

    def returning(*args):
        raw["out"], raw["points"] = lmder(*args), len(points)
        return raw["out"]

    with mock.patch.object(_minpack, "_lmder", returning):
        result = least_squares(
            logged,
            x0=np.log(BASS_START),
            method="lm",
            ftol=1e-10,
            xtol=1e-12,
            gtol=1e-12,
            max_nfev=800,
        )
    _, out, info = raw["out"]
    return result, info, out["nfev"], out["fvec"], points[: raw["points"]]


def _scipy_outcome(result, n, origin):
    """What fit_bass should return or raise given least_squares' result: a
    non-converged or degenerate fit is a ``FitError``."""
    with np.errstate(over="ignore"):
        b, c = np.exp(result.x)
    best = {
        "best_params": (float(b), float(c)),
        "residual_norm": float(np.sqrt(2.0 * result.cost)),
    }
    if not result.success:
        return FitError(f"Bass fit did not converge: {result.message}", **best)
    p, q = float(b), float(c - b)
    if not (0.0 < p < np.inf and 0.0 < p + q < np.inf):
        return FitError(
            f"Bass fit degenerate: p = {p:.6g} and q = {q:.6g} leave p + q = {p + q:.6g}",
            **best,
        )
    return BassParams(p=p, q=q, n=n, origin=origin)


# a 71-day decreasing Poisson series: at bin width 30, MINPACK stops on gtol
# where b = e^x0 is about 1e27 and c = e^x1 about 7e9, so that p + q =
# b + (c - b) rounds to 0
DEGENERATE_SERIES = np.array(
    [18, 15, 10, 11, 14, 12, 12, 12, 11, 12, 7, 9, 13, 12, 16, 16, 15, 13, 11, 5,
     12, 11, 6, 15, 5, 6, 4, 8, 9, 11, 10, 4, 9, 13, 10, 6, 8, 7, 9, 4, 9, 3, 4, 8,
     3, 6, 4, 3, 2, 5, 5, 5, 2, 3, 2, 7, 5, 4, 5, 1, 5, 4, 1, 3, 2, 1, 1, 1, 0, 2, 0],
    dtype=float,
)


def _spike(days, at, height, width):
    counts = np.zeros(days)
    counts[at] = height
    return counts, height, -days, width


@st.composite
def count_series(draw):
    """(counts, n, first day, bin width) of a Bass-shaped, flat Poisson,
    decreasing or single-spike sales series."""
    width = draw(st.sampled_from([1, 2, 7, 30]))
    days = draw(st.integers(max(30, 2 * width), 1200))
    kind = draw(st.sampled_from(["bass", "flat", "decreasing", "spike"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bass":
        curve = BassParams(
            p=10.0 ** draw(st.floats(-5.0, -2.0)),
            q=10.0 ** draw(st.floats(-4.0, -1.5)),
            n=draw(st.integers(100, 50_000)),
            origin=-days - 1,
        )
        t = np.arange(-days, 0)
        counts = rng.poisson(curve.n * (curve.share(t) - curve.share(t - 1)))
    elif kind == "flat":
        counts = rng.poisson(draw(st.floats(0.1, 50.0)), days)
    elif kind == "decreasing":
        counts = rng.poisson(np.linspace(draw(st.floats(5.0, 80.0)), 0.0, days))
    else:
        return _spike(days, draw(st.integers(0, days - 1)), draw(st.integers(1, 5000)), width)
    counts = counts.astype(float)
    return counts, max(int(counts.sum()), 1), -days, width


class TestLevenbergMarquardtPort:
    """The MINPACK port in fit_bass against scipy's least_squares as the oracle."""

    @settings(
        derandomize=True,
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(count_series())
    # single spikes in the partial bin that is dropped, so every bin is 0:
    # the step bound falls to 0 and lmpar divides 0 by 0
    @example(_spike(66, 65, 4270, 30))
    @example(_spike(109, 98, 503, 30))
    @example(_spike(345, 331, 65, 30))
    @example(_spike(100, 50, 50, 1))  # runs out of max_nfev
    @example((DEGENERATE_SERIES, int(DEGENERATE_SERIES.sum()), 1, 30))
    def test_bit_identical_to_least_squares(self, series):
        counts, n, first_day, width = series
        outcome, run = _fit_with_port(counts, n, first_day, width)
        result, info, nfev, fvec, points = _least_squares(run["fun"])
        x, port_fvec, port_info, port_nfev = run["result"]
        assert _bits(x) == _bits(result.x)
        assert (port_info, port_nfev) == (info, nfev)
        assert _bits(port_fvec) == _bits(fvec)
        assert run["points"] == points
        expected = _scipy_outcome(result, n, first_day - 1)
        assert type(outcome) is type(expected)
        if isinstance(outcome, BassParams):
            assert outcome == expected
        else:
            assert str(outcome) == str(expected)
            assert getattr(outcome, "best_params", None) == getattr(
                expected, "best_params", None
            )
            assert getattr(outcome, "residual_norm", None) == getattr(
                expected, "residual_norm", None
            )

    def test_degenerate_converged_fit_is_a_fit_error(self):
        counts = DEGENERATE_SERIES
        outcome, run = _fit_with_port(counts, int(counts.sum()), 1, 30)
        x, fvec, info, _ = run["result"]
        assert info <= 4  # converged
        assert isinstance(outcome, FitError)
        assert str(outcome).startswith("Bass fit degenerate: ")
        b, c = np.exp(x)
        assert outcome.best_params == (float(b), float(c))
        assert float(b) + float(c - b) == 0.0  # c is lost in rounding
        assert outcome.residual_norm == float(np.sqrt(np.dot(fvec, fvec)))

    @pytest.mark.parametrize("x", [(-8.0, 800.0), (800.0, 900.0)], ids=["c", "b_and_c"])
    def test_overflowed_converged_fit_is_a_fit_error(self, x):
        # a converged fit whose exp(log c) overflows leaves q or p + q
        # infinite or NaN: a failed fit, not bad input
        fvec = np.ones(3)

        def converged(fun, x0, **tolerances):
            return np.array(x), fvec, 1, 12

        with mock.patch.object(sales_mod, "_lmder", converged):
            with pytest.raises(FitError, match="Bass fit degenerate: ") as outcome:
                fit_bass(DEGENERATE_SERIES, int(DEGENERATE_SERIES.sum()), 1, 30)
        with np.errstate(over="ignore"):
            b, c = np.exp(x)
        assert outcome.value.best_params == (float(b), float(c))
        assert outcome.value.residual_norm == float(np.sqrt(3.0))

    def test_fit_error_when_evaluations_run_out(self):
        counts, n, first_day, width = _spike(100, 50, 50, 1)
        outcome, run = _fit_with_port(counts, n, first_day, width)
        result = _least_squares(run["fun"])[0]
        assert result.status == 0 and run["result"][3] == 800
        assert isinstance(outcome, FitError)
        assert str(outcome) == (
            "Bass fit did not converge: "
            "The maximum number of function evaluations is exceeded."
        )
        b, c = np.exp(result.x)
        assert outcome.best_params == (float(b), float(c))
        assert outcome.residual_norm == float(np.sqrt(2.0 * result.cost))


class TestLmderHelpers:
    def test_enorm_neither_overflows_nor_underflows(self):
        for scale in (1e-200, 1e-30, 1.0, 1e30, 1e200):
            x = np.array([3.0, 4.0, 0.0, 12.0]) * scale
            assert sales_mod._enorm(x) == pytest.approx(13.0 * scale, rel=1e-15)
            assert sales_mod._enorm(list(x)) == sales_mod._enorm(x)

    def test_enorm_sums_in_order(self):
        x = np.random.default_rng(3).normal(size=997)
        total = 0.0
        for v in x:
            total += v * v
        assert sales_mod._enorm(x) == math.sqrt(total)

    def test_dot_sums_in_order(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 501))
        total = 0.0
        for u, v in zip(a, b):
            total += u * v
        assert sales_mod._dot(a, b) == total
        assert math.copysign(1.0, sales_mod._dot(np.array([-0.0]), np.array([1.0]))) == 1.0

    @pytest.mark.parametrize(
        "a, b, want",
        [(1.0, 0.0, math.inf), (-1.0, 0.0, -math.inf), (1.0, -0.0, -math.inf),
         (0.0, 0.0, math.nan), (math.nan, 0.0, math.nan), (6.0, 3.0, 2.0)],
    )
    def test_division_follows_ieee(self, a, b, want):
        got = sales_mod._q(a, b)
        assert got == want or (math.isnan(got) and math.isnan(want))


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
        acf = sample_acf(dec.std_resid, 199)
        assert np.mean(np.abs(acf[1:]) <= band) >= 0.90
        assert acf[0] == pytest.approx(1.0)

    def test_series_shorter_than_window_rejected(self):
        with pytest.raises(DomainError):
            decompose_residuals(np.ones(20), first_day=-20, halfwidth=15)

    def test_nonpositive_halfwidth_rejected(self):
        with pytest.raises(DomainError, match="halfwidth must be >= 1"):
            decompose_residuals(np.ones(40), first_day=-39, halfwidth=0)

    def test_series_must_align_and_scale_be_positive(self):
        dec = decompose_residuals(np.sin(np.arange(40.0)), first_day=-39, halfwidth=5)
        with pytest.raises(DomainError, match="align"):
            replace(dec, scale=dec.scale[:-1])
        with pytest.raises(DomainError, match="positive"):
            replace(dec, scale=np.where(np.arange(40) == 7, 0.0, dec.scale))

    def test_moving_average_edges_shrink(self):
        x = np.arange(10.0)
        ma = centered_moving_average(x, 2)
        assert ma[0] == pytest.approx(np.mean(x[:3]))
        assert ma[5] == pytest.approx(np.mean(x[3:8]))
        assert ma[-1] == pytest.approx(np.mean(x[-3:]))


FREE_60 = RebateFunction.free_replacement(60)


class TestAssembleFluctuation:
    def test_unit_white_noise_gives_brownian_grid(self):
        h = TimeHorizon(60, 20)
        # two spikes +-6 over 73 days: mean exactly 0, unbiased variance
        # 72 / 72 = 1 and, the spikes 72 > W days apart, an autocorrelation
        # of exactly 0 at lags 1..W: increments iid standard
        std = np.zeros(73)
        std[0], std[-1] = 6.0, -6.0
        dec = ResidualDecomposition(
            first_day=-72, trend=np.zeros(73), scale=np.ones(73), std_resid=std
        )
        inc = assemble_fluctuation(dec, h)
        want = daily_increments(60, 20)  # days -59 .. 20
        for name in ("mean", "scale", "acf"):
            assert np.array_equal(getattr(inc, name), getattr(want, name))
        # Brownian: an atom at age 0 sees the process over [0, T]
        at0 = MeanClaimsMeasure(0.0, 0.0, atom0=1.0, warranty=60)
        assert fluctuation_moments(inc, at0, FREE_60, h) == (0.0, 20.0)

    def test_round_trip_increments(self):
        rng = np.random.default_rng(17)
        h = TimeHorizon(80, 25)
        days = np.arange(-79, 1)
        r = rng.normal(0.1, 0.5, size=80) + 0.002 * days
        dec = decompose_residuals(r, first_day=-79, halfwidth=8)
        inc = assemble_fluctuation(dec, h, poly_degree=2)
        obs = days + h.warranty - 1  # entry k is day k - W + 1
        mean, var = np.mean(dec.std_resid), np.var(dec.std_resid, ddof=1)
        assert np.array_equal(inc.mean[obs], dec.trend + mean * dec.scale)
        assert np.array_equal(inc.scale[obs], np.sqrt(var) * dec.scale)

    def test_zero_mean_std_resid_leaves_trend_only(self):
        h = TimeHorizon(60, 20)
        trend = 0.01 * np.ones(60)
        dec = ResidualDecomposition(
            first_day=-59, trend=trend, scale=np.ones(60), std_resid=np.zeros(60)
        )
        inc = assemble_fluctuation(dec, h, poly_degree=0)
        assert np.allclose(inc.mean, 0.01)

    def test_scale_extension_stays_positive(self):
        rng = np.random.default_rng(19)
        h = TimeHorizon(90, 30)
        r = rng.normal(0, 0.02, size=90)
        dec = decompose_residuals(r, first_day=-89, halfwidth=10)
        inc = assemble_fluctuation(dec, h, poly_degree=3)
        # the log-scale polynomial keeps the extrapolated scale positive
        assert np.all(inc.scale > 0.0)
        assert np.all(np.isfinite(inc.scale))

    def test_stationary_increments_are_the_residual_moments(self):
        # a zero trend and a unit scale extend to exactly 0 and 1
        rng = np.random.default_rng(13)
        h = TimeHorizon(80, 25, offset=25)
        dec = decompose_residuals(rng.normal(0.1, 0.5, size=80), -79, stationary=True)
        inc = assemble_fluctuation(dec, h)
        assert np.all(inc.mean == np.mean(dec.std_resid))
        assert np.all(inc.scale == np.sqrt(np.var(dec.std_resid, ddof=1)))

    def test_long_sale_span_takes_the_acf_to_lag_w_only(self):
        # one sale 200 000 days before the rest: the residual series is that
        # long, but only lags 0..W are taken (the full correlation of the
        # series alone takes about 5 s); best of two runs, so that starting
        # the BLAS threads is not timed
        rng = np.random.default_rng(31)
        r = rng.normal(0.0, 0.01, size=200_000)
        h = TimeHorizon(W, T, T)
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            dec = decompose_residuals(r, first_day=1 - len(r))
            inc = assemble_fluctuation(dec, h)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 2.0
        assert np.array_equal(inc.acf[: W + 1], sample_acf(dec.std_resid, W))
        assert not inc.acf[W + 1 :].any()

    def test_rank_deficient_polynomial_raises(self):
        h = TimeHorizon(60, 20)
        days = np.arange(-59, 1)
        r = np.linspace(-1, 1, 60)
        dec = decompose_residuals(r, first_day=-59, halfwidth=5)
        with pytest.raises(FitError):
            assemble_fluctuation(dec, h, poly_degree=70)

    def test_negative_polynomial_degree_rejected(self):
        dec = decompose_residuals(np.linspace(-1, 1, 60), first_day=-59, halfwidth=5)
        with pytest.raises(DomainError, match="polynomial degree must be >= 0"):
            assemble_fluctuation(dec, TimeHorizon(60, 20), poly_degree=-1)


class TestPolynomialFitPort:
    @pytest.mark.parametrize("degree", [0, 1, 3])
    @pytest.mark.parametrize("first", [-59, -1095])
    def test_matches_numpy_polynomial_fit(self, degree, first):
        from numpy.polynomial import Polynomial

        rng = np.random.default_rng(degree - first)
        days = np.arange(first, first + 60)
        y = rng.normal(0.0, 1.0, size=60) + 0.01 * days
        at = np.arange(first - 30, first + 120).astype(float)
        want = Polynomial.fit(days, y, degree)(at)
        assert _poly_fit(days, y, degree, at).tobytes() == want.tobytes()

    def test_single_day_widens_the_domain_as_numpy_does(self):
        from numpy.polynomial import Polynomial

        days, y, at = np.array([-5]), np.array([0.25]), np.array([-9.0, -5.0, 3.0])
        want = Polynomial.fit(days, y, 0)(at)
        assert _poly_fit(days, y, 0, at).tobytes() == want.tobytes()

    def test_rank_deficient_message(self):
        days = np.arange(5)
        with pytest.raises(FitError, match="^rank-deficient polynomial fit: The fit may"):
            _poly_fit(np.r_[days, days], np.ones(10), 6, days.astype(float))


class TestWindowIncrementMoments:
    # age u sees the increments on days (offset - u, T + offset - u]
    MEASURE = MeanClaimsMeasure(-1e-5, 2e-3, atom0=0.3, atomW=0.1, warranty=60)

    def test_zero_mean_path(self):
        h = TimeHorizon(60, 20)
        inc = daily_increments(60, 20)
        mu, var = fluctuation_moments(inc, self.MEASURE, FREE_60, h)
        assert mu == 0.0
        assert var > 0.0

    def test_brownian_cov_is_window_overlap(self):
        # derived oracle: the windows of ages u and v overlap on
        # max(0, T - |u - v|) days of iid unit increments
        w, t = 60, 20
        h = TimeHorizon(w, t)
        rebate = RebateFunction.linear(w)
        _, var = fluctuation_moments(daily_increments(w, t), self.MEASURE, rebate, h)
        u = np.arange(w + 1)
        overlap = np.maximum(0.0, t - np.abs(u[:, None] - u[None, :]))
        weights = age_weights(self.MEASURE, rebate)
        assert var == pytest.approx(weights @ overlap @ weights, rel=1e-12)

    def test_linear_mean_path(self):
        w, t = 60, 20
        h = TimeHorizon(w, t)
        mu, _ = fluctuation_moments(
            daily_increments(w, t, mean=0.5), self.MEASURE, FREE_60, h
        )
        weights = age_weights(self.MEASURE, FREE_60)
        assert mu == pytest.approx(0.5 * t * weights.sum(), rel=1e-12)

    def test_offset_window_shifts_indices(self):
        w, t = 60, 20
        h = TimeHorizon(w, t, offset=t)
        d = np.arange(-w, 2 * t + 1)
        theta = (d.astype(float) + w) ** 2 / 100.0
        inc = daily_increments(w, t, offset=t, mean=np.diff(theta))
        rebate = RebateFunction.quadratic(w)
        mu, _ = fluctuation_moments(inc, self.MEASURE, rebate, h)
        u = np.arange(w + 1)
        window = theta[2 * t - u + w] - theta[t - u + w]
        weights = age_weights(self.MEASURE, rebate)
        assert mu == pytest.approx(weights @ window, rel=1e-12)

    def test_later_window_record_serves_the_first(self):
        # the pipeline assembles one record, for its last window
        rng = np.random.default_rng(37)
        w, t = 120, 40
        first, last = TimeHorizon(w, t), TimeHorizon(w, t, offset=t)
        r = rng.normal(0.05, 0.3, size=w) + 0.001 * np.arange(w)
        dec = decompose_residuals(r, first_day=-w + 1, halfwidth=7)
        short = assemble_fluctuation(dec, first)
        long = assemble_fluctuation(dec, last)
        rebate = RebateFunction.linear(w)
        measure = MeanClaimsMeasure(-1e-5, 2e-3, atom0=0.3, atomW=0.1, warranty=w)
        got = fluctuation_moments(long, measure, rebate, first)
        assert got == fluctuation_moments(short, measure, rebate, first)
        with pytest.raises(DomainError, match="do not cover"):
            fluctuation_moments(short, measure, rebate, last)

    def test_diagonal_nonnegative_on_realistic_fit(self):
        rng = np.random.default_rng(23)
        w, t = 120, 40
        h = TimeHorizon(w, t)
        r = rng.normal(0.05, 0.3, size=w) * (1 + 0.3 * np.sin(np.arange(w) / 9))
        dec = decompose_residuals(r, first_day=-w + 1, halfwidth=7)
        inc = assemble_fluctuation(dec, h)
        # the (W+1) x (W+1) covariance of the window increments, from the
        # grid reference: the acf cut off at W must keep it PSD
        mean, cov = increment_grids(inc)
        _, chi_cov = window_moments(mean, cov, -w, h)
        assert np.all(np.diag(chi_cov) >= -1e-10)
        assert np.allclose(chi_cov, chi_cov.T)
        # positive semidefiniteness up to numerical tolerance on a subsample
        sub = chi_cov[::4, ::4]
        eigs = np.linalg.eigvalsh(sub)
        assert eigs.min() >= -1e-8
        # and the exposure-weight form reduces that same matrix
        measure = MeanClaimsMeasure(-1e-5, 2e-3, atom0=0.3, atomW=0.1, warranty=w)
        rebate = RebateFunction.linear(w)
        weights = age_weights(measure, rebate)
        _, var = fluctuation_moments(inc, measure, rebate, h)
        assert var == pytest.approx(weights @ chi_cov @ weights, rel=1e-12)


class TestSampleAcf:
    def test_psd_sequence(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=400)
        c = sample_acf(x, 100)
        # biased estimator's Toeplitz matrix is PSD
        from scipy.linalg import toeplitz

        eigs = np.linalg.eigvalsh(toeplitz(c))
        assert eigs.min() >= -1e-10

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    @example(data=None)
    def test_matches_the_full_correlation(self, data):
        # the lags 0..L of the full correlation, normalized at lag 0, as the
        # autocorrelation was taken before it stopped at lag L
        if data is None:  # a constant series has the unit impulse as its acf
            x, maxlag = np.full(50, 2.5), 49
        else:
            n = data.draw(st.integers(1, 400), label="n")
            maxlag = data.draw(
                st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)),
                label="maxlag",
            )
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            rng = np.random.default_rng(seed)
            x = rng.normal(data.draw(st.floats(-5, 5), label="mean"), 1.0, size=n)
        d = x - np.mean(x)
        cov = np.correlate(d, d, mode="full")[len(d) - 1 : len(d) + maxlag]
        want = cov / cov[0] if cov[0] > 0.0 else np.r_[1.0, np.zeros(maxlag)]
        got = sample_acf(x, maxlag)
        if len(x) > 11:
            assert got.tobytes() == want.tobytes()
        else:  # numpy sums lag 0 of a kernel of at most 11 values in its own order
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
