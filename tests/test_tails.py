import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcast.errors import DomainError
from claimcast.tails import (
    Regime,
    diagnose,
    qq_plot_data,
    qq_tail_index,
    sample_quantiles,
    select_regime,
    summary_stats,
    tail_scalers,
)


def pareto_sample(alpha, n, seed, xm=1.0):
    rng = np.random.default_rng(seed)
    return xm * rng.uniform(size=n) ** (-1.0 / alpha)


class TestSummaryStats:
    def test_constant_sample(self):
        mean, variance, quartiles = summary_stats([4.2, 4.2, 4.2])
        assert mean == pytest.approx(4.2)
        assert variance == 0.0
        assert quartiles == (4.2, 4.2, 4.2)

    def test_unbiased_variance_and_type7_quartiles(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        mean, variance, (q25, q50, q75) = summary_stats(x)
        assert mean == pytest.approx(4.0)
        assert variance == pytest.approx(np.var(x, ddof=1))
        # type-7 (linear interpolation of order statistics)
        assert q25 == pytest.approx(1.75)
        assert q50 == pytest.approx(2.5)
        assert q75 == pytest.approx(4.75)

    def test_rejects_tiny_samples(self):
        with pytest.raises(DomainError):
            summary_stats([1.0])

    @given(st.lists(st.floats(0.01, 1e6), min_size=2, max_size=60))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_quartiles_ordered(self, xs):
        q25, q50, q75 = summary_stats(xs)[2]
        assert q25 <= q50 <= q75


class TestSampleQuantiles:
    LEVELS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)

    def test_bits_of_numpy_on_drawn_samples(self):
        # sizes 1..200 with ties, wide and narrow spreads, negative values;
        # no sample holds zeros of both signs
        rng = np.random.default_rng(8)
        for trial in range(2000):
            n = int(rng.integers(1, 200))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 6)
            if trial % 3 == 0:
                x = np.round(x, 1)  # ties
            levels = np.r_[self.LEVELS, rng.uniform(size=5)]
            before = x.copy()
            got = sample_quantiles(x, levels)
            assert np.array_equal(got, np.quantile(x, levels)), trial
            assert np.array_equal(x, before)  # the sample is left as it was

    def test_summary_quartiles_have_the_bits_of_numpy_percentile(self):
        for n in (2, 3, 4, 5, 17, 5001):
            for seed in range(20):
                x = pareto_sample(1.5, n, seed)
                want = tuple(np.percentile(x, [25, 50, 75]).tolist())
                assert summary_stats(x)[2] == want

    def test_signed_zeros_agree_in_value(self):
        # numpy partitions where this sorts; the two can order -0.0 and 0.0
        # differently, so a zero result may differ in sign, never in value
        x = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0])
        got = sample_quantiles(x, self.LEVELS)
        want = np.quantile(x, self.LEVELS)
        assert np.all(got == want)
        assert np.all((got == 0.0) == (want == 0.0))

    def test_nan_sample_gives_nan(self):
        got = sample_quantiles([1.0, np.nan, 2.0], [0.0, 0.5])
        assert np.all(np.isnan(got))

    def test_rejects_empty_sample_and_bad_levels(self):
        with pytest.raises(DomainError):
            sample_quantiles([], [0.5])
        for level in (-0.1, 1.5, np.nan):
            with pytest.raises(DomainError, match=r"levels must lie in \[0, 1\]"):
                sample_quantiles([1.0, 2.0, 3.0], [level])


class TestQQPlot:
    def test_two_point_smoke(self):
        pts = qq_plot_data([np.e, np.e**2], 2)
        assert pts.shape == (2, 2)
        assert np.all(np.isfinite(pts))
        assert pts[0, 1] == pytest.approx(1.0)
        assert pts[1, 1] == pytest.approx(2.0)

    def test_nonpositive_topk_rejected(self):
        with pytest.raises(DomainError):
            qq_plot_data([0.0, 1.0, 2.0], 3)

    def test_k_bounds(self):
        with pytest.raises(DomainError):
            qq_plot_data([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            qq_plot_data([1.0, 2.0], 1)

    def test_pareto_slope_near_inverse_alpha(self):
        x = pareto_sample(1.5, 50_000, seed=101)
        pts = qq_plot_data(x, 5000)
        slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
        assert slope == pytest.approx(1.0 / 1.5, rel=0.02)


class TestQQTailIndex:
    def test_pareto_recovery_within_band(self):
        hits = 0
        for seed in range(100):
            x = pareto_sample(1.5, 50_000, seed=seed)
            if 1.4 <= qq_tail_index(x, 5000) <= 1.6:
                hits += 1
        assert hits >= 95

    def test_scale_invariance(self):
        x = pareto_sample(1.2, 20_000, seed=7)
        a1 = qq_tail_index(x, 2000)
        a2 = qq_tail_index(137.0 * x, 2000)
        assert a2 == pytest.approx(a1, rel=1e-9)

    def test_decreasing_order_statistics_rejected(self):
        # constant upper tail gives slope 0
        x = np.r_[np.linspace(0.1, 1.0, 100), np.full(50, 2.0)]
        with pytest.raises(DomainError):
            qq_tail_index(x, 50)


class TestSelectRegime:
    @pytest.mark.parametrize(
        "alpha,regime",
        [
            (1.52, Regime.STABLE_1_2),
            (2.44, Regime.FINITE_VARIANCE),
            (0.7, Regime.STABLE_0_1),
            (1.01, Regime.STABLE_EQ_1),
            (0.98, Regime.STABLE_EQ_1),
            (2.0, Regime.FINITE_VARIANCE),
            (1.9999, Regime.STABLE_1_2),
        ],
    )
    def test_rule_application(self, alpha, regime):
        assert select_regime(alpha) is regime

    def test_override_wins(self):
        assert select_regime(1.3, finite_variance_override=True) is (
            Regime.FINITE_VARIANCE
        )

    @given(st.floats(0.001, 5.0))
    @settings(derandomize=True, max_examples=200)
    def test_total_on_positive_reals(self, alpha):
        assert select_regime(alpha) in set(Regime)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(DomainError):
            select_regime(0.0)


class TestTailScalers:
    def test_pareto_b_for_mid_regime(self):
        b, e = tail_scalers(1.52, 34807)
        assert b == pytest.approx(34807 ** (1 / 1.52))
        assert e is None

    def test_alpha_one_plugins(self):
        n = int(round(np.e))
        b, e = tail_scalers(1.0, n)
        assert b == n
        assert e == pytest.approx(np.log(n))

    def test_low_alpha_closed_form(self):
        b, e = tail_scalers(0.5, 100)
        assert b == pytest.approx(100.0**2)
        assert e == pytest.approx(99.0)

    @pytest.mark.parametrize("alpha", [1.52, 1.0, 0.5])
    def test_size_scale_multiplies_both_sequences(self, alpha):
        # one product each, the same operation as scaling the unit plug-ins
        b1, e1 = tail_scalers(alpha, 34807)
        b, e = tail_scalers(alpha, 34807, 47.5)
        assert b == b1 * 47.5
        assert e == (None if e1 is None else e1 * 47.5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_size_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(DomainError, match="size scale"):
            tail_scalers(1.52, 100, scale)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError, match="n must be positive"):
            tail_scalers(1.52, 0)

    def test_finite_variance_has_no_scalers(self):
        with pytest.raises(DomainError):
            tail_scalers(2.4, 100)

    @pytest.mark.parametrize("alpha", [2.0, 0.0, -0.5])
    def test_alpha_outside_open_interval_rejected(self, alpha):
        with pytest.raises(DomainError):
            tail_scalers(alpha, 100)


class TestDiagnose:
    def test_bundles_everything(self):
        x = pareto_sample(1.5, 20_000, seed=3)
        d = diagnose(x, 2000)
        assert d.regime is Regime.STABLE_1_2
        assert 1.3 <= d.alpha_hat <= 1.7
        assert d.quartiles[0] <= d.quartiles[1] <= d.quartiles[2]
        assert (d.mean, d.variance, d.quartiles) == summary_stats(x)
