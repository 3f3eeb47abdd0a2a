import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structured_merge
from claimcast.claims import (
    ClaimsTable,
    JoinedClaims,
    SalesTable,
    aggregate_daily_claims,
    empirical_mean_measure,
    fit_mean_measure,
    join_claims,
    moment_grids,
)
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.errors import DomainError, ValidationError

W, T = 1096, 91
HORIZON = TimeHorizon(W, T)
FREE = RebateFunction.free_replacement(W)


def claims_table(*rows):
    """ClaimsTable from (vehicle_id, day, amount) rows."""
    vids, days, amounts = zip(*rows) if rows else ((), (), ())
    return ClaimsTable(list(vids), list(days), list(amounts))


def sales_table(*rows):
    """SalesTable from (vehicle_id, day) rows."""
    vids, days = zip(*rows) if rows else ((), ())
    return SalesTable(list(vids), list(days))


def rows(table):
    """A ClaimsTable's rows as (vehicle_id, day, amount) tuples."""
    columns = (table.vehicle_id, table.day, table.amount)
    return list(zip(*(c.tolist() for c in columns)))


def joined_from(per_item):
    """Per-item claim ages as JoinedClaims columns (item i = per_item[i])."""
    ages = [np.sort(np.asarray(pts, dtype=float)) for pts in per_item]
    item = np.repeat(np.arange(len(ages)), [len(a) for a in ages])
    age = np.concatenate(ages) if ages else np.zeros(0)
    return JoinedClaims(item, age, np.zeros(len(age)))


def item_points(joined, item):
    """The sorted ages of one item's joined claims."""
    return tuple(joined.age[joined.item == item].tolist())


class TestTables:
    def test_column_lengths_must_agree(self):
        with pytest.raises(DomainError):
            SalesTable(["A", "B"], [1])
        with pytest.raises(DomainError):
            ClaimsTable(["A"], [1, 2], [1.0])

    def test_negative_amount_rejected(self):
        with pytest.raises(DomainError):
            claims_table(("A", 1, -1.0))


class TestAggregateDailyClaims:
    def test_same_day_amounts_merge(self):
        recs = claims_table(("V", -5, 10.0), ("V", -5, 5.0), ("V", -5, 2.0))
        assert rows(aggregate_daily_claims(recs)) == [("V", -5, 17.0)]

    def test_distinct_days_untouched(self):
        recs = claims_table(("V", -9, 10.0), ("V", -3, 5.0))
        assert rows(aggregate_daily_claims(recs)) == rows(recs)

    def test_empty(self):
        assert rows(aggregate_daily_claims(claims_table())) == []

    def test_sorted_by_vehicle_then_day(self):
        recs = claims_table(("B", 3, 1.0), ("A", 7, 2.0), ("B", -1, 3.0), ("A", 7, 4.0))
        assert rows(aggregate_daily_claims(recs)) == [
            ("A", 7, 6.0),
            ("B", -1, 3.0),
            ("B", 3, 1.0),
        ]


def same_merge(claims):
    """aggregate_daily_claims and its structured-array oracle agree bit for bit."""
    got = aggregate_daily_claims(claims)
    want = structured_merge.aggregate_daily_claims(claims)
    assert got.vehicle_id.tolist() == want.vehicle_id.tolist()
    assert got.vehicle_id.dtype == want.vehicle_id.dtype
    assert got.day.tolist() == want.day.tolist()
    assert got.amount.tobytes() == want.amount.tobytes()


class TestAggregateAgainstStructuredMerge:
    def test_interleaved_non_ascii_negative_days(self):
        same_merge(
            claims_table(
                ("Ü2", -3, 0.1), ("A", -1096, 0.2), ("Ü2", -3, 0.7),
                ("车", 0, 1e-300), ("A", -1096, 0.30000000000000004), ("B", 5, 2.0),
                ("Ü2", -4, 3.5), ("A", -1096, 1e16), ("车", 0, 1.0), ("B", -5, -0.0),
                ("A", 7, 0.0),
            )
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "AB", "É", "车", "V000001", "V000010"]),
                st.integers(-1200, 40),
                st.floats(0.0, 1e6, allow_subnormal=True),
            ),
            max_size=60,
        )
    )
    def test_generated_tables(self, rows):
        same_merge(claims_table(*rows))


class TestBuildClaimsMeasures:
    """join_claims: per-item claim ages from the sales and claims tables."""

    def test_offsets_are_age_differences(self):
        sales = sales_table(("A", -1000))
        claims = claims_table(("A", -995, 1.0), ("A", -500, 1.0))
        joined = join_claims(sales, claims, W)
        assert item_points(joined, 0) == (5.0, 500.0)
        assert joined.quarantined == 0

    def test_clamping_at_both_ends(self):
        sales = sales_table(("A", -10), ("B", -1100))
        claims = claims_table(("A", -20, 1.0), ("B", 50, 1.0))
        joined = join_claims(sales, claims, W)
        assert item_points(joined, 0) == (0.0,)  # honored before the sale
        assert item_points(joined, 1) == (float(W),)  # past warranty
        assert np.count_nonzero((joined.item == 0) & (joined.age <= W)) == 1

    def test_unknown_vehicle_quarantined(self):
        sales = sales_table(("A", -10))
        claims = claims_table(("GHOST", -5, 2.0), ("A", -5, 1.0))
        joined = join_claims(sales, claims, W)
        assert joined.quarantined == 1
        assert joined.item.tolist() == [0] and joined.amount.tolist() == [1.0]

    def test_claim_free_items_get_empty_measures(self):
        sales = sales_table(("A", -10), ("B", -20))
        joined = join_claims(sales, claims_table(("A", -5, 1.0)), W)
        assert len(item_points(joined, 1)) == 0
        assert len(sales) == 2

    def test_claim_count_conserved(self):
        rng = np.random.default_rng(11)
        sales = sales_table(*[(f"v{i}", int(d)) for i, d in
                              enumerate(rng.integers(-W, 0, size=40))])
        claims = []
        for _ in range(200):
            vid = f"v{rng.integers(0, 50)}"  # some ids unknown
            claims.append((vid, int(rng.integers(-W, T)), 1.0))
        joined = join_claims(sales, claims_table(*claims), W)
        kept = len(joined.age)
        assert kept + joined.quarantined == len(claims)
        known = set(sales.vehicle_id.tolist())
        assert kept == sum(1 for c in claims if c[0] in known)
        assert np.all(np.diff(joined.item) >= 0)
        for i, vid in enumerate(sales.vehicle_id.tolist()):
            want = sorted(min(max(d - int(sales.day[i]), 0), W)
                          for v, d, _ in claims if v == vid)
            assert item_points(joined, i) == tuple(float(a) for a in want)


class TestEmpiricalMeanMeasure:
    def test_all_empty(self):
        bins = empirical_mean_measure(np.zeros(0), 3, W)
        assert bins.shape == (W + 1,)
        assert np.all(bins == 0.0)

    def test_hand_count(self):
        bins = empirical_mean_measure(np.array([1.0, 1.0, 1.0]), 2, W)
        assert bins[1] == pytest.approx(1.5)
        assert np.sum(bins) == pytest.approx(1.5)

    def test_end_bins_capture_atoms(self):
        bins = empirical_mean_measure(np.array([0.0, W, 0.0]), 4, W)
        assert bins[0] == pytest.approx(0.5)
        assert bins[W] == pytest.approx(0.25)

    def test_zero_items_rejected(self):
        with pytest.raises(DomainError):
            empirical_mean_measure(np.zeros(0), 0, W)


class TestFitMeanMeasure:
    def test_flat_bins(self):
        c = 3.7e-4
        bins = np.full(W + 1, c)
        bins[0] = bins[W] = 0.0
        fit = fit_mean_measure(bins)
        assert fit.warranty == W
        assert fit.slope == pytest.approx(0.0, abs=1e-18)
        assert fit.intercept == pytest.approx(c, rel=1e-12)
        assert fit.atom0 == 0.0 and fit.atomW == 0.0

    def test_noiseless_line_recovered(self):
        a, b = -0.9e-6, 1.5e-3
        i = np.arange(0, W + 1, dtype=float)
        bins = a * i + b - a / 2.0
        bins[0] = 0.2
        bins[W] = 0.05
        fit = fit_mean_measure(bins)
        assert fit.slope == pytest.approx(a, rel=1e-12)
        assert fit.intercept == pytest.approx(b, rel=1e-12)
        assert fit.atom0 == pytest.approx(0.2)
        assert fit.atomW == pytest.approx(bins[W])

    def test_negative_fitted_density_raises(self):
        i = np.arange(0, W + 1, dtype=float)
        bins = np.maximum(-2e-6 * i + 1e-4, 0.0)  # line goes negative inside (0, W)
        with pytest.raises(ValidationError):
            fit_mean_measure(bins)

    def test_rejects_negative_or_too_few_bins(self):
        bins = np.full(W + 1, 1e-3)
        bins[7] = -1e-9
        with pytest.raises(DomainError, match="non-negative"):
            fit_mean_measure(bins)
        with pytest.raises(DomainError, match="interior bins"):
            fit_mean_measure(np.full(3, 1e-3))  # W = 2: one interior bin
        assert fit_mean_measure(np.full(4, 1e-3)).warranty == 3
        with pytest.raises(DomainError, match="one bin per day"):
            fit_mean_measure(np.full((2, W + 1), 1e-3))


def zero_measure(warranty):
    """A fitted measure with no mass: the grids' variance is then the raw
    pair-expansion second moment alone."""
    return MeanClaimsMeasure(0.0, 0.0, warranty=warranty)


def grid_oracle(per_item, rebate, horizon, n):
    """Literal per-day evaluation of the defining sums (slow, independent)."""
    days = horizon.sale_days
    first = np.zeros(len(days))
    second = np.zeros(len(days))
    for k, x in enumerate(days):
        lo, hi = horizon.claim_window(int(x))
        for pts in per_item:
            tot = sum(float(rebate(p)) for p in pts if lo <= p <= hi)
            first[k] += tot
            second[k] += tot * tot
    return first / n, second / n


class TestMomentGrids:
    def test_mean_vanishes_in_empty_window(self):
        fitted = MeanClaimsMeasure(0.0, 1e-3, atom0=0.0, atomW=0.1, warranty=W)
        mean, _, _ = moment_grids(joined_from([]), fitted, FREE, HORIZON, n=5)
        assert mean[-1] == pytest.approx(0.0)  # x = T: window [0, 0], no atom

    def test_two_item_toy_variance(self):
        # second moment (1/2)(1^2) = 0.5; the fitted atom at age 0 puts the
        # mean at 0.5 for x = 0, so the variance there is 0.25
        mean, var, _ = moment_grids(
            joined_from([(5,), ()]),
            MeanClaimsMeasure(0.0, 0.0, atom0=0.5, warranty=W),
            FREE,
            HORIZON,
            n=2,
        )
        at0 = np.where(HORIZON.sale_days == 0)[0][0]
        assert mean[at0] == pytest.approx(0.5)
        assert var[at0] == pytest.approx(0.25)

    def test_matches_defining_sums_free_replacement(self):
        rng = np.random.default_rng(23)
        h = TimeHorizon(40, 12)
        measures = [rng.uniform(0, 40, size=rng.integers(0, 5)) for _ in range(30)]
        rebate = RebateFunction.free_replacement(40)
        mean, var, floored = moment_grids(
            joined_from(measures), zero_measure(40), rebate, h, n=30
        )
        _, second_ref = grid_oracle(measures, rebate, h, 30)
        assert np.all(mean == 0.0)
        assert np.allclose(var, second_ref, atol=1e-10)
        assert floored == 0

    def test_matches_defining_sums_prorata_with_offset(self):
        rng = np.random.default_rng(29)
        h = TimeHorizon(40, 12, offset=12)
        measures = [rng.uniform(0, 40, size=rng.integers(0, 4)) for _ in range(25)]
        rebate = RebateFunction.linear(40)
        mean, var, _ = moment_grids(
            joined_from(measures), zero_measure(40), rebate, h, n=25
        )
        _, second_ref = grid_oracle(measures, rebate, h, 25)
        assert np.all(mean == 0.0)
        assert np.allclose(var, second_ref, atol=1e-10)

    def test_fitted_mean_flooring_counted(self):
        # fitted mean larger than any raw second moment forces flooring
        fitted = MeanClaimsMeasure(0.0, 5e-3, atom0=0.5, atomW=0.5, warranty=W)
        _, var, floored = moment_grids(
            joined_from([(3,), ()]),
            fitted,
            FREE,
            HORIZON,
            n=2,
        )
        assert floored > 0
        assert np.all(var >= 0.0)

    def test_branch_boundary_windows_agree_up_to_atoms(self):
        fitted = MeanClaimsMeasure(1e-6, 1e-3, atom0=0.3, atomW=0.2, warranty=W)
        from claimcast.core import WeightedMeasure

        wm = WeightedMeasure(fitted, FREE)
        bare = WeightedMeasure(MeanClaimsMeasure(1e-6, 1e-3, warranty=W), FREE)
        # x = 0: window [0, T] holds the age-0 atom on top of the density
        assert HORIZON.claim_window(0) == (0.0, T)
        assert wm.mass(0, T) == pytest.approx(bare.mass(0, T) + fitted.atom0)
        # x = T - W: window [W-T, W] holds the age-W atom on top of the density
        assert HORIZON.claim_window(T - W) == (W - T, W)
        assert wm.mass(W - T, W) == pytest.approx(bare.mass(W - T, W) + fitted.atomW)

    def test_window_never_longer_than_period(self):
        for x in HORIZON.sale_days[:: len(HORIZON.sale_days) // 37]:
            lo, hi = HORIZON.claim_window(int(x))
            assert hi - lo <= min(T, W)
