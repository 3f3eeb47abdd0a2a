from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from claimcast.claims import JoinedClaims, moment_grids
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.engine import (
    CostApproximation,
    LimitParams,
    _ndtri,
    approx_cdf,
    approx_quantile,
    cost_approx_normal,
    cost_approx_stable,
    extremeness,
    fluctuation_moments,
    rate_constants,
)
from claimcast.errors import DomainError, NumericalError
from claimcast.sales import BassParams
from claimcast.stable import (
    params_eq_one_case,
    params_mean_case,
    params_zero_one_case,
)
from claimcast.tails import tail_scalers
from fluctuation_grid import daily_increments

W, T, N = 1096, 91, 34807

# published car-study inputs: fitted mean measure, Bass curve, size moments
NO_CLAIMS = JoinedClaims([], [], [])
CAR_MEASURE = MeanClaimsMeasure(
    slope=-0.8872e-6,
    intercept=0.1479e-2 - 0.8872e-6 / 2.0,
    atom0=0.1330,
    atomW=0.0420,
    warranty=W,
)
CAR_BASS = BassParams(p=4.0149e-4, q=1.6738e-2 - 4.0149e-4, n=N, origin=-1116)
E_SIZE, V_SIZE = 47.53, 18273.14

# published limit parameters per period (c1, c2, fluct mean, fluct var)
CAR_LIMITS = {
    0: dict(claims_mean=0.0614, claims_var=0.0887, fluct_mean=1.0210, fluct_var=1.5568),
    T: dict(claims_mean=0.0540, claims_var=0.0818, fluct_mean=0.8817, fluct_var=0.9712),
}


def car_limit_params(offset):
    return LimitParams(horizon=TimeHorizon(W, T, offset, N), **CAR_LIMITS[offset])


class TestComputeRateConstants:
    @pytest.mark.parametrize("offset,want", [(0, 0.0614), (T, 0.0540)])
    def test_car_coefficients_reproduce_published_rate(self, offset, want):
        # the fitted measure and Bass coefficients are published to four
        # significant digits, which caps agreement at roughly 2e-4
        horizon = TimeHorizon(W, T, offset)
        [(mean, var, _)] = moment_grids(
            NO_CLAIMS, CAR_MEASURE, RebateFunction.free_replacement(W), [horizon]
        )
        c1, _ = rate_constants(mean, var, CAR_BASS.share(horizon.sale_days))
        assert c1 == pytest.approx(want, abs=2e-4)

    def test_constant_grid_is_exact(self):
        # trapezoid weights telescope for a constant grid: c = k * nu-span
        horizon = TimeHorizon(200, 40, 0, 50)
        kappa = 0.37
        measure = MeanClaimsMeasure(0.0, kappa / 241.0, warranty=200)

        class FlatGrids:
            days = horizon.sale_days
            mean = np.full(241, kappa)
            var = np.full(241, 2.0 * kappa)

        bass = BassParams(p=1e-3, q=2e-2, n=50, origin=-201)
        grids = FlatGrids()
        c1, c2 = rate_constants(grids.mean, grids.var, bass.share(grids.days))
        span = bass.share(40) - bass.share(-200)
        assert c1 == pytest.approx(kappa * span, rel=1e-12)
        assert c2 == pytest.approx(2.0 * kappa * span, rel=1e-12)


class TestFluctuationMoments:
    def test_zero_mean_grid_gives_zero(self):
        m = MeanClaimsMeasure(0.0, 1e-3, atom0=0.2, atomW=0.1, warranty=50)
        h = TimeHorizon(50, 20)
        mu, var = fluctuation_moments(
            daily_increments(50, 20), m, RebateFunction.free_replacement(50), h
        )
        assert mu == 0.0
        assert var > 0.0

    def test_single_atom_is_point_evaluation(self):
        # age 0 sees the increments on days 1..T, the last T entries
        w, t = 50, 20
        m = MeanClaimsMeasure(0.0, 0.0, atom0=1.0, atomW=0.0, warranty=w)
        mean = np.linspace(2.0, 3.0, w + t)
        scale = np.linspace(4.0, 5.0, w + t)
        # increment variance 0.5 * scale^2, lag-1 correlation 0.25
        inc = daily_increments(w, t, mean=mean, scale=np.sqrt(0.5) * scale, acf=[0.25])
        r = RebateFunction.linear(w)
        mu, var = fluctuation_moments(inc, m, r, TimeHorizon(w, t))
        assert mu == pytest.approx(mean[-t:].sum(), rel=1e-12)  # r(0) = 1
        s = scale[-t:]
        want = 0.5 * (s @ s + 2 * 0.25 * (s[1:] @ s[:-1]))
        assert var == pytest.approx(want, rel=1e-12)

    def test_end_atom_weighted_by_rebate(self):
        w, t = 50, 20
        m = MeanClaimsMeasure(0.0, 0.0, atom0=0.0, atomW=2.0, warranty=w)
        inc = daily_increments(w, t, mean=np.full(w + t, 3.0), scale=7.0)
        r = RebateFunction.quadratic(w)  # r(W) = 0
        mu, var = fluctuation_moments(inc, m, r, TimeHorizon(w, t))
        assert mu == 0.0
        assert var == 0.0

    def test_psd_violation_raises(self):
        m = MeanClaimsMeasure(0.0, 0.0, atom0=1.0, warranty=10)
        # T = 4 unit increments with lag-1 correlation -1: 4 - 2 * 3 < 0
        inc = daily_increments(10, 4, acf=[-1.0])
        with pytest.raises(NumericalError):
            fluctuation_moments(
                inc, m, RebateFunction.free_replacement(10), TimeHorizon(10, 4)
            )

    def test_small_negative_variance_floored(self, caplog):
        m = MeanClaimsMeasure(0.0, 0.0, atom0=1.0, warranty=10)
        # 1e-12 * (2 + 2 * -1.5) = -1e-12 over a two-day window
        inc = daily_increments(10, 2, scale=1e-6, acf=[-1.5])
        _, var = fluctuation_moments(
            inc, m, RebateFunction.free_replacement(10), TimeHorizon(10, 2)
        )
        assert var == 0.0
        assert "flooring slightly negative fluctuation variance" in caplog.text

    def test_window_coverage_checked(self):
        m = MeanClaimsMeasure(0.0, 1e-3, warranty=50)
        r = RebateFunction.free_replacement(50)
        inc = daily_increments(50, 20)  # days -49..20: the first window only
        with pytest.raises(DomainError, match="do not cover"):
            fluctuation_moments(inc, m, r, TimeHorizon(50, 20, offset=20))
        with pytest.raises(DomainError, match="warranty"):
            fluctuation_moments(inc, m, r, TimeHorizon(60, 20))


class TestClaimsCountApprox:
    def test_car_periods_against_published_cdf_values(self):
        # the paper reports 0.5381 and 0.0029; with its parameters rounded
        # to 4 decimals the first is reproducible only to ~3e-3
        # (d(CDF)/d(c1) ~ n * pdf/sd ~ 58 at the observed count)
        approx = cost_approx_normal(car_limit_params(0))
        assert approx_cdf(approx, 2352) == pytest.approx(0.5381, abs=3.5e-3)
        approx2 = cost_approx_normal(car_limit_params(T))
        assert approx_cdf(approx2, 1516) == pytest.approx(0.0029, abs=3e-4)

    def test_moments(self):
        lp = car_limit_params(0)
        approx = cost_approx_normal(lp)
        assert approx.location == pytest.approx(N * 0.0614 + np.sqrt(N) * 1.0210)
        assert approx.scale == pytest.approx(np.sqrt(N * (0.0887 + 1.5568)))

    def test_degenerate_variance_rejected(self):
        lp = LimitParams(0.1, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, N))
        with pytest.raises(DomainError):
            cost_approx_normal(lp)


class TestCostApproxNormal:
    def test_table4_median_and_tail(self):
        approx = cost_approx_normal(car_limit_params(0), E_SIZE, V_SIZE)
        assert approx_quantile(approx, 0.5) == pytest.approx(110_694.91, rel=1e-3)
        assert approx_quantile(approx, 0.99) == pytest.approx(140_888.23, rel=1e-3)

    def test_zero_mean_size_centers_at_zero(self):
        lp = LimitParams(0.3, 0.1, 0.7, 0.2, TimeHorizon(W, T, 0, 100))
        approx = cost_approx_normal(lp, 0.0, 4.0)
        assert approx.location == 0.0
        assert approx.scale == pytest.approx(np.sqrt(100 * 4.0 * 0.3))

    def test_nonpositive_size_variance_rejected(self):
        # V = 0 is a fixed claim size (the count, the pro-rata cost); only
        # a negative variance is outside the domain
        with pytest.raises(DomainError):
            cost_approx_normal(car_limit_params(0), E_SIZE, -1.0)

    @pytest.mark.parametrize(
        "mean_size, var_size",
        [(1e200, 0.0), (1e152, 0.0), (E_SIZE, 1e308)],
        ids=["power", "product", "size_variance"],
    )
    def test_overflow_is_a_numerical_error(self, mean_size, var_size):
        with pytest.raises(NumericalError, match="variance inf"):
            cost_approx_normal(car_limit_params(0), mean_size, var_size)


class TestCostApproxStableFiniteMean:
    def test_identity_scaling(self):
        lp = LimitParams(1.0, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, 7))
        # size_scale 7^(-1/alpha) turns the plug-in b(7) = 7^(1/alpha) into 1
        approx = cost_approx_stable(lp, 1.52, 0.0, size_scale=7 ** (-1 / 1.52))
        from claimcast.stable import stable_quantile

        for p in (0.3, 0.5, 0.9):
            assert approx_quantile(approx, p) == pytest.approx(
                stable_quantile(params_mean_case(1.52), p), abs=1e-9
            )

    def test_rescaling_b_n_scales_centered_quantiles(self):
        lp = car_limit_params(0)
        plug_in = N ** (1 / 1.52)
        base = cost_approx_stable(lp, 1.52, E_SIZE, size_scale=1000.0 / plug_in)
        scaled = cost_approx_stable(lp, 1.52, E_SIZE, size_scale=3000.0 / plug_in)
        center = lp.horizon.scale * lp.claims_mean * E_SIZE
        for p in (0.25, 0.5, 0.95):
            assert scaled.location == base.location
            q0 = approx_quantile(base, p) - center
            q1 = approx_quantile(scaled, p) - center
            assert q1 == pytest.approx(3.0 * q0, rel=1e-9)

    def test_alpha_domain(self):
        lp = car_limit_params(0)
        with pytest.raises(DomainError):
            cost_approx_stable(lp, 2.2, E_SIZE)


class TestCostApproxStableInfiniteMean:
    def test_alpha_one_is_intensity_law_at_log_centering(self):
        # the limit of (S - n c1 log n) / n is the intensity-c1 law itself
        n, c1 = 400, 2.5
        lp = LimitParams(c1, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, n))
        b_n, _ = tail_scalers(1.0, n)
        approx = cost_approx_stable(lp, 1.0)
        from claimcast.stable import stable_quantile

        assert approx.stable == params_eq_one_case(c1)
        assert approx.location == pytest.approx(n * c1 * np.log(n), rel=1e-15)
        assert approx.scale == b_n == n
        for p in (0.2, 0.5, 0.8):
            want = approx.location + n * stable_quantile(approx.stable, p)
            assert approx_quantile(approx, p) == pytest.approx(want, rel=1e-12)

    def test_half_alpha_quantiles_match_raw_stable(self):
        lp = LimitParams(1.0, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, 1))
        approx = cost_approx_stable(lp, 0.5)
        from claimcast.stable import stable_quantile

        want_params = params_zero_one_case(0.5, 1.0)
        assert approx.location == 0.0  # e(1) = 0
        assert approx.scale == 1.0  # b(1) = 1
        for p in (0.2, 0.5, 0.8):
            assert approx_quantile(approx, p) == pytest.approx(
                stable_quantile(want_params, p), abs=1e-9
            )

    def test_location_arithmetic(self):
        lp = LimitParams(4.0, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, 100))
        approx = cost_approx_stable(lp, 0.5)  # e(100) = 99 at alpha = 1/2
        # n c1 e(n), not the published n c1^(1/alpha) e(n) = 100 * 16 * 99
        assert approx.location == pytest.approx(100 * 4.0 * 99.0)


class TestCostApproxStable:
    @pytest.mark.parametrize(
        "alpha,want",
        [
            (1.52, lambda c1: params_mean_case(1.52)),
            (1.0, params_eq_one_case),
            (0.5, lambda c1: params_zero_one_case(0.5, c1)),
        ],
        ids=["mean_case", "eq_one_case", "zero_one_case"],
    )
    def test_tail_index_picks_the_parameter_map(self, alpha, want):
        lp = car_limit_params(0)
        approx = cost_approx_stable(lp, alpha, E_SIZE)
        assert approx.stable == want(lp.claims_mean)
        assert approx.scale > 0.0

    @pytest.mark.parametrize("alpha", [2.0, 0.0, -0.5])
    def test_alpha_outside_open_interval_rejected(self, alpha):
        with pytest.raises(DomainError):
            cost_approx_stable(car_limit_params(0), alpha, E_SIZE)

    def test_finite_mean_case_needs_mean_size(self):
        with pytest.raises(DomainError):
            cost_approx_stable(car_limit_params(0), 1.52)

    def test_nonpositive_size_scale_rejected(self):
        with pytest.raises(DomainError):
            cost_approx_stable(car_limit_params(0), 0.7, size_scale=0.0)

    @pytest.mark.parametrize("alpha", [1.52, 0.7])
    def test_nan_size_scale_rejected(self, alpha):
        # NaN passes a `<= 0` test: it would give a NaN scale and quantiles
        with pytest.raises(DomainError, match="positive and finite"):
            cost_approx_stable(car_limit_params(0), alpha, 47.5, size_scale=np.nan)

    @pytest.mark.parametrize("alpha", [1.52, 1.0, 0.5])
    def test_zero_claim_rate_rejected(self, alpha):
        # a window that no sale day reaches has c1 = c2 = 0
        lp = LimitParams(0.0, 0.0, 0.0, 0.0, TimeHorizon(W, T, 0, N))
        with pytest.raises(DomainError, match="^c1 must be positive$"):
            cost_approx_stable(lp, alpha, E_SIZE)


class TestCostApproxProrata:
    def test_unit_price_scales_everything(self):
        lp = car_limit_params(0)
        a1 = cost_approx_normal(lp, 1.0)
        a2 = cost_approx_normal(lp, 2.0)
        for p in (0.1, 0.5, 0.9):
            assert approx_quantile(a2, p) == pytest.approx(
                2.0 * approx_quantile(a1, p), rel=1e-12
            )

    def test_unit_rebate_matches_scaled_count_approx(self):
        lp = car_limit_params(0)
        cb = 3.7
        count = cost_approx_normal(lp)
        cost = cost_approx_normal(lp, cb)
        for p in (0.25, 0.5, 0.75):
            assert approx_quantile(cost, p) == pytest.approx(
                cb * approx_quantile(count, p), rel=1e-12
            )

    def test_toy_atom_only_prorata_by_brute_force(self):
        # 5-day horizon: atoms at 0 and W only, linear share; the rate
        # constant collapses to a double sum over sale days and atoms
        w, t = 5, 2
        horizon = TimeHorizon(w, t)
        m = MeanClaimsMeasure(0.0, 0.0, atom0=0.3, atomW=0.2, warranty=w)
        rebate = RebateFunction.linear(w, unit_price=2.0)

        # brute force: for each sale day x and each atom age y, the claim
        # lands in [0, t] iff 0 <= x + y <= t; weight r(y) * atom mass
        share_days = horizon.sale_days
        nu = (share_days - share_days[0]) / float(len(share_days) - 1)
        c1_ref = 0.0
        for k in range(1, len(share_days)):
            x_mid_weight = nu[k] - nu[k - 1]
            for x in (share_days[k - 1], share_days[k]):
                contrib = 0.0
                for age, mass in ((0.0, 0.3), (float(w), 0.2)):
                    if 0.0 <= x + age <= t and 0.0 <= age <= w:
                        contrib += float(rebate(age)) * mass
                c1_ref += 0.5 * x_mid_weight * contrib

        [(mean, _, _)] = moment_grids(NO_CLAIMS, m, rebate, [horizon])
        dnu = np.diff(nu)
        c1 = float(np.sum(0.5 * (mean[1:] + mean[:-1]) * dnu))
        assert c1 == pytest.approx(c1_ref, rel=1e-12)


class TestEvaluate:
    def test_table5_normal_cdf_values(self):
        # input rounding to 4 decimals leaves ~3e-3 of slack on the
        # mid-distribution entry; the extreme-tail entry is insensitive
        a0 = cost_approx_normal(car_limit_params(0), E_SIZE, V_SIZE)
        assert approx_cdf(a0, 148_180.60) == pytest.approx(0.9981, abs=5e-4)
        a1 = cost_approx_normal(car_limit_params(T), E_SIZE, V_SIZE)
        assert approx_cdf(a1, 98_992.90) == pytest.approx(0.5649, abs=3.5e-3)

    def test_table5_stable_cdf_values(self):
        a0 = cost_approx_stable(car_limit_params(0), 1.52, E_SIZE)
        assert approx_cdf(a0, 148_180.60) == pytest.approx(0.9998, abs=5e-4)
        a1 = cost_approx_stable(car_limit_params(T), 1.52, E_SIZE)
        assert approx_cdf(a1, 98_992.90) == pytest.approx(0.9983, abs=5e-4)

    def test_round_trip_both_kinds(self):
        lp = car_limit_params(0)
        levels = np.r_[0.01, np.arange(0.05, 0.96, 0.1), 0.99]
        for approx in (
            cost_approx_normal(lp, E_SIZE, V_SIZE),
            cost_approx_stable(lp, 1.52, E_SIZE),
        ):
            for p in levels:
                q = approx_quantile(approx, float(p))
                assert approx_cdf(approx, q) == pytest.approx(p, abs=1e-6)

    def test_cdf_on_arrays_matches_scalar_calls(self):
        lp = car_limit_params(0)
        for approx in (
            cost_approx_normal(lp, E_SIZE, V_SIZE),
            cost_approx_stable(lp, 1.52, E_SIZE),
        ):
            q = approx_quantile(approx, 0.5)
            x = q + approx.scale * np.array([[-3.0, 0.0], [0.25, 4.0], [4.0, -1e-3]])
            got = approx_cdf(approx, x)
            assert isinstance(approx_cdf(approx, q), float)
            assert got.shape == x.shape
            want = np.array([approx_cdf(approx, float(v)) for v in x.ravel()])
            assert np.array_equal(got.ravel(), want)

    def test_quantiles_monotone(self):
        lp = car_limit_params(0)
        for approx in (
            cost_approx_normal(lp),
            cost_approx_stable(lp, 0.7, size_scale=50.0 / N ** (1 / 0.7)),
        ):
            qs = [approx_quantile(approx, p) for p in np.linspace(0.05, 0.95, 12)]
            assert np.all(np.diff(qs) > 0.0)

    def test_array_levels_match_scalar_calls(self):
        lp = car_limit_params(0)
        levels = np.array([0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99])
        for approx in (
            cost_approx_normal(lp, E_SIZE, V_SIZE),
            cost_approx_stable(lp, 1.52, E_SIZE),
        ):
            got = approx_quantile(approx, levels)
            want = [approx_quantile(approx, float(p)) for p in levels]
            assert isinstance(got, np.ndarray)
            assert got == pytest.approx(want, rel=1e-12)

    def test_quantile_level_domain(self):
        approx = cost_approx_normal(car_limit_params(0))
        with pytest.raises(DomainError):
            approx_quantile(approx, 1.0)
        with pytest.raises(DomainError):
            approx_quantile(approx, np.array([0.5, 0.0]))


class TestNormalLawAgainstScipy:
    """The normal CDF and quantile against scipy's ndtr and ndtri."""

    STD = CostApproximation(0.0, 1.0)

    def test_cdf(self):
        z = np.linspace(-9.0, 9.0, 20001)
        got = approx_cdf(self.STD, z)
        assert got.dtype == float
        assert np.max(np.abs(got - ndtr(z))) <= 4e-16
        for v in (-9.0, -1.5, 0.0, 0.3, 8.5):
            got = approx_cdf(self.STD, v)
            assert isinstance(got, float)
            assert abs(got - ndtr(v)) <= 4e-16

    def test_quantile(self):
        p = np.r_[
            np.logspace(-300.0, -1.0, 300),
            np.linspace(0.001, 0.999, 999),
            1.0 - np.logspace(-16.0, -1.0, 50),
        ]
        got, want = approx_quantile(self.STD, p), ndtri(p)
        assert got.dtype == float
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
        for v in (1e-300, 0.025, 0.5, 0.9, 1.0 - 1e-12):
            got = approx_quantile(self.STD, v)
            assert isinstance(got, float)
            assert abs(got - ndtri(v)) <= 2e-15 * abs(ndtri(v))


class TestNdtriPort:
    def test_matches_normal_dist_inv_cdf_bit_for_bit(self):
        from statistics import NormalDist

        rng = np.random.default_rng(28)
        p = np.r_[
            5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 2.0**-53, 0.425, 0.575,
            np.exp(-25.0), 1.0 - np.exp(-25.0) / 2.0,
            rng.uniform(size=6000),
            10.0 ** rng.uniform(-320.0, -1.0, size=2000),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, size=2000),
        ]
        p = p[(p > 0.0) & (p < 1.0)]
        assert len(p) >= 10_000
        want = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
        got = np.asarray(_ndtri(p), dtype=float)
        assert got.tobytes() == want.tobytes()

    def test_fallback_without_the_c_accelerator_matches(self):
        """A Python without ``_statistics`` takes the ``NormalDist`` path."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path
        from statistics import NormalDist

        import claimcast

        p = [5e-324, 1e-300, 2.0**-53, 1e-5, 0.025, 0.425, 0.5, 0.575, 0.975, 1.0 - 2.0**-53]
        code = (
            "import json, sys\n"
            "sys.modules['_statistics'] = None\n"
            "from claimcast.engine import _ndtri\n"
            f"got = [float(v) for v in _ndtri({p!r})]\n"
            "print(json.dumps([got, 'statistics' in sys.modules]))"
        )
        src = str(Path(claimcast.__file__).resolve().parents[1])
        path = os.pathsep.join(v for v in (src, os.environ.get("PYTHONPATH", "")) if v)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got, fell_back = json.loads(proc.stdout)
        assert fell_back
        assert got == [NormalDist().inv_cdf(v) for v in p]


class TestExtremeness:
    @pytest.mark.parametrize(
        "u,want", [(0.5381, 0.9238), (0.0029, 0.0058), (0.5, 1.0), (0.0, 0.0)]
    )
    def test_values(self, u, want):
        assert extremeness(u) == pytest.approx(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            extremeness(1.2)


class TestLimitParamsValidation:
    @pytest.mark.parametrize("field", ["claims_mean", "claims_var", "fluct_var"])
    def test_negative_rate_or_variance_rejected(self, field):
        with pytest.raises(DomainError, match="must be non-negative"):
            replace(car_limit_params(0), **{field: -1e-12})
        # the fluctuation mean is a signed drift
        assert replace(car_limit_params(0), fluct_mean=-1.0).fluct_mean == -1.0


class TestCostApproximationValidation:
    def test_kind_checked(self):
        with pytest.raises(DomainError):
            CostApproximation(0.0, 0.0)
        # without stable parameters the family is the normal law
        assert approx_cdf(CostApproximation(1.0, 2.0), 1.0) == 0.5
