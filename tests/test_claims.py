import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structured_merge
from claimcast import claims as claims_mod
from claimcast.claims import (
    ClaimsTable,
    JoinedClaims,
    SalesTable,
    aggregate_daily_claims,
    empirical_mean_measure,
    fit_mean_measure,
    _close_pairs,
    _id_keys,
    join_claims,
    moment_grids,
)
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon, range_sums
from claimcast.errors import DomainError, ValidationError
from claimcast.pipeline import realized_window_totals

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
    """A ClaimsTable's rows as (vehicle_id, day, amount) tuples, ids decoded."""
    vids = [v.decode() for v in table.vehicle_id.tolist()]
    return list(zip(vids, table.day.tolist(), table.amount.tolist()))


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

    def test_many_same_day_rows_sum_in_input_order(self):
        # 1e16 + 1 + 1 rounds to 1e16, 1 + 1 + 1e16 does not: each sum
        # holds only if the merge keeps its group's rows in input order
        rng = np.random.default_rng(5)
        rows = [(f"V{int(v)}", int(d), float(a)) for v, d, a in zip(
            rng.integers(0, 4, size=3000), rng.integers(0, 3, size=3000),
            rng.choice([1e16, 1.0], p=[0.01, 0.99], size=3000))]
        same_merge(claims_table(*rows))
        summed = {}
        for v, d, a in rows:
            summed[v, d] = summed.get((v, d), 0.0) + a
        got = aggregate_daily_claims(claims_table(*rows))
        assert got.amount.tolist() == [summed[v, d] for v, d in sorted(summed)]

    def test_days_too_far_apart_for_one_key(self):
        # owner * span + day would overflow int64: the kernel ranks the days
        big = np.iinfo(np.int64).max
        same_merge(
            claims_table(
                ("B", big, 1.0), ("A", -big, 2.0), ("B", big, 0.5), ("A", 0, 4.0),
                ("A", -big, 8.0), ("C", big - 1, 16.0),
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


# ids of at most 8 bytes in UTF-8, any character but NUL
SHORT_IDS = st.text(
    st.characters(min_codepoint=1, codec="utf-8"), min_size=1, max_size=8
).filter(lambda v: len(v.encode()) <= 8)


class TestIdKeys:
    """_id_keys: UTF-8 byte ids packed into uint64 keys that sort and compare
    as the text ids."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(SHORT_IDS, max_size=40))
    def test_keys_order_and_compare_as_the_ids(self, ids):
        ids += [v[: len(v) // 2 + 1] for v in ids]  # prefix pairs such as "A"/"AB"
        column = SalesTable(ids, np.zeros(len(ids))).vehicle_id
        assert column.dtype.kind == "S"
        (keys,) = _id_keys(column)
        assert keys.dtype == np.uint64
        # UTF-8 bytes order as the code points do
        assert np.argsort(keys, kind="stable").tolist() == sorted(
            range(len(ids)), key=ids.__getitem__
        )
        text = np.array(ids, dtype=str)
        assert np.array_equal(keys[:, None] == keys, text[:, None] == text)

    def test_prefix_and_widest_ids(self):
        column = np.array([b"A", b"AB", b"A\x01", b"\xff" * 8, b"ABCDEFGH", b"B"])
        (keys,) = _id_keys(column)
        assert np.argsort(keys).tolist() == [0, 2, 1, 4, 5, 3]
        assert len(set(keys.tolist())) == len(column)

    @pytest.mark.parametrize(
        "ids",
        [["ABCDEFGHI", "A"], ["A\u0100" * 3, "A"], ["车" * 3]],
        ids=["nine_chars", "u0100", "cjk"],
    )
    def test_long_or_wide_ids_keep_the_str_path(self, ids):
        # 9 bytes in UTF-8 (three characters of 3 bytes for "cjk"): the
        # columns are compared as bytes, as they are
        column = SalesTable(ids, np.zeros(len(ids))).vehicle_id
        short = SalesTable(["A"], [0]).vehicle_id
        assert column.dtype.itemsize == 9
        got = _id_keys(short, column)
        assert got[0] is short and got[1] is column

    def test_short_ids_pack_whatever_their_characters(self):
        (keys,) = _id_keys(SalesTable(["A\u0100", "车", "A"], [0, 0, 0]).vehicle_id)
        assert keys.dtype == np.uint64 and np.argsort(keys).tolist() == [2, 0, 1]

    def test_empty_columns(self):
        (keys,) = _id_keys(np.array([], dtype=bytes))
        assert keys.dtype == np.uint64 and keys.shape == (0,)
        assert rows(aggregate_daily_claims(claims_table())) == []
        joined = join_claims(sales_table(), claims_table(("A", 1, 1.0)), W)
        assert len(joined.item) == 0 and joined.quarantined == 1

    def test_join_and_merge_agree_on_both_paths(self):
        # the same ids with a 9-character prefix take the str path
        rng = np.random.default_rng(17)
        vids = [f"V{i:02d}" for i in range(60)]
        sold = [(v, int(d)) for v, d in zip(vids[:50], rng.integers(-W, 0, size=50))]
        claims = [
            (vids[int(i)], int(d), float(a))
            for i, d, a in zip(
                rng.integers(0, 60, size=400),
                rng.integers(-W - 50, T, size=400),
                rng.uniform(size=400),
            )
        ]
        long = "X" * 9
        sales = sales_table(*sold)
        wide_sales = sales_table(*[(long + v, d) for v, d in sold])
        raw = claims_table(*claims)
        wide_raw = claims_table(*[(long + v, d, a) for v, d, a in claims])
        merged = aggregate_daily_claims(raw)
        wide_merged = aggregate_daily_claims(wide_raw)
        assert wide_merged.vehicle_id.tolist() == [
            long.encode() + v for v in merged.vehicle_id.tolist()
        ]
        assert merged.day.tolist() == wide_merged.day.tolist()
        assert merged.amount.tobytes() == wide_merged.amount.tobytes()
        for table, wide_table in ((raw, wide_raw), (merged, wide_merged)):
            got = join_claims(sales, table, W)
            wide = join_claims(wide_sales, wide_table, W)
            for name in ("item", "age", "amount"):
                assert getattr(got, name).tobytes() == getattr(wide, name).tobytes()
            assert got.quarantined == wide.quarantined > 0
        # one row per known (vehicle, day), its amounts summed in input
        # order, in (item, age) order with same-age rows by day
        item = {v: i for i, (v, _) in enumerate(sold)}
        summed = {}
        for v, d, a in claims:
            if v in item:
                summed[v, d] = summed.get((v, d), 0.0) + a
        want = [
            (i, age, a)
            for i, age, _, a in sorted(
                (item[v], min(max(d - sold[item[v]][1], 0), W), d, a)
                for (v, d), a in summed.items()
            )
        ]
        got = join_claims(sales, raw, W)
        columns = (got.item, got.age, got.amount)
        assert list(zip(*(c.tolist() for c in columns))) == want


class TestJoinMergesSameDayClaims:
    """join_claims merges raw claims itself: the same bits as joining the
    output of aggregate_daily_claims."""

    @staticmethod
    def same_join(sales, raw, warranty):
        got = join_claims(sales, raw, warranty)
        want = join_claims(sales, aggregate_daily_claims(raw), warranty)
        for name in ("item", "age", "amount"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.quarantined == want.quarantined
        return got

    def test_hand_case(self):
        sales = sales_table(("A", -10), ("B", -1100), ("C", -50))
        raw = claims_table(
            ("B", 60, 2.0), ("A", -5, 1.0), ("GHOST", 3, 9.0), ("A", -20, 0.5),
            ("A", -5, 0.25), ("GHOST", 3, 1.0), ("B", 70, 4.0), ("GHOST", 4, 1.0),
            ("A", -30, 0.125),
        )
        got = self.same_join(sales, raw, W)
        # A: two clipped to age 0 (days -30, -20 in day order), then the
        # merged day -5; B: both past warranty, at age W in day order
        assert list(zip(got.item.tolist(), got.age.tolist(), got.amount.tolist())) == [
            (0, 0.0, 0.125), (0, 0.0, 0.5), (0, 5.0, 1.25), (1, W, 2.0), (1, W, 4.0),
        ]
        assert got.quarantined == 2  # GHOST on days 3 and 4

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda sold: st.tuples(
                st.lists(st.integers(-60, 0), min_size=sold, max_size=sold),
                st.lists(
                    st.tuples(
                        st.integers(0, 7),  # ids 6 and 7 have no sales row
                        st.integers(-90, 40),
                        st.floats(0.0, 1e6, allow_subnormal=True),
                    ),
                    max_size=50,
                ),
                st.booleans(),
            )
        )
    )
    def test_raw_and_aggregated_join_alike(self, drawn):
        sale_days, claim_rows, wide = drawn
        prefix = "XXXXXXXXX" if wide else ""  # ids wider than 8: the str path
        vid = [f"{prefix}V{i}" for i in range(8)]
        sales = sales_table(*[(vid[i], d) for i, d in enumerate(sale_days)])
        raw = claims_table(*[(vid[i], d, a) for i, d, a in claim_rows])
        got = self.same_join(sales, raw, 30)  # ages clip at 0 and at W = 30
        assert got.quarantined == len({(i, d) for i, d, _ in claim_rows
                                       if i >= len(sale_days)})


class TestShiftedDays:
    """The join and the merge read day differences only, so shifting both
    tables' days by one constant changes neither: this is why claims are
    never moved onto the forecast clock."""

    @pytest.mark.parametrize("shift", [-737_000, 1, 10**12])
    def test_join_and_merge_do_not_see_the_shift(self, shift):
        sales, claims = paper_scale_tables(n_items=3000, n_claims=4000)
        # same-day repeats, so the merge sums some rows, known vehicles and unknown
        claims = ClaimsTable(
            np.concatenate([claims.vehicle_id, claims.vehicle_id[:600]]),
            np.concatenate([claims.day, claims.day[:600]]),
            np.concatenate([claims.amount, claims.amount[:600] / 3.0]),
        )
        moved_sales = SalesTable(sales.vehicle_id, sales.day + shift)
        moved = ClaimsTable(claims.vehicle_id, claims.day + shift, claims.amount)
        got, want = join_claims(moved_sales, moved, W), join_claims(sales, claims, W)
        for name in ("item", "age", "amount"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.quarantined == want.quarantined > 0
        merged, want = aggregate_daily_claims(moved), aggregate_daily_claims(claims)
        assert len(want) < len(claims)
        assert merged.vehicle_id.tobytes() == want.vehicle_id.tobytes()
        assert (merged.day - shift).tobytes() == want.day.tobytes()
        assert merged.amount.tobytes() == want.amount.tobytes()


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

    def test_negative_warranty_rejected(self):
        with pytest.raises(DomainError, match="warranty"):
            join_claims(sales_table(("A", -10)), claims_table(("A", -5, 1.0)), -1)

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
        # same-day claims of one vehicle merge into one
        merged = {(v, d) for v, d, _ in claims}
        assert len(merged) < len(claims)
        assert kept + joined.quarantined == len(merged)
        known = {v.decode() for v in sales.vehicle_id.tolist()}
        assert kept == sum(1 for v, _ in merged if v in known)
        assert np.all(np.diff(joined.item) >= 0)
        for i, vid in enumerate(v.decode() for v in sales.vehicle_id.tolist()):
            want = sorted(min(max(d - int(sales.day[i]), 0), W)
                          for v, d in merged if v == vid)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ages_rejected(self, bad):
        with pytest.raises(DomainError, match="ages must be finite"):
            empirical_mean_measure(np.array([1.0, bad]), 2, W)


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


def all_pairs_second(joined, rebate, horizon, n):
    """The second-moment grid from every ordered pair of one item's claims,
    each window's day ranges taken at its own offset: the defining sums,
    added in the order the close pairs keep."""
    left, right = [], []
    for i in range(len(joined.item)):
        for j in np.flatnonzero(joined.item == joined.item[i]).tolist():
            left.append(i)
            right.append(j)
    left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
    age, wts = joined.age, np.asarray(rebate(joined.age), dtype=float)
    lo, hi = np.minimum(age[left], age[right]), np.maximum(age[left], age[right])
    days = horizon.sale_days
    start, end = horizon.sale_day_range(lo, hi)
    return range_sums(start, end, wts[left] * wts[right], days[0], len(days)) / n


def close_pairs(item, age, warranty, period):
    """The pairs of every block of :func:`_close_pairs`, joined."""
    left, right = zip(*_close_pairs(item, age, warranty, period))
    return np.concatenate(left), np.concatenate(right)


def brute_close_pairs(joined, period):
    """The ordered pairs of one item's claims at most ``period`` apart."""
    item, age = joined.item.tolist(), joined.age.tolist()
    return [
        (i, j)
        for i in range(len(age))
        for j in range(len(age))
        if item[i] == item[j] and abs(age[i] - age[j]) <= period
    ]


def assert_holds_close_pairs(joined, left, right, period):
    """The expanded pairs hold every pair at most ``period`` apart, in (i, j)
    order; any other pair is more than ``period`` apart, has a fractional
    age, and has an empty sale-day range, so it adds nothing to the grids."""
    got = list(zip(left.tolist(), right.tolist()))
    want = brute_close_pairs(joined, period)
    close = set(want)
    assert [pair for pair in got if pair in close] == want
    extra = np.array([pair for pair in got if pair not in close], dtype=np.int64)
    a, b = joined.age[extra.reshape(-1, 2).T]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert np.all(hi - lo > period)
    assert not np.any((lo == np.floor(lo)) & (hi == np.floor(hi)))
    start, end = TimeHorizon(40, period).sale_day_range(lo, hi)
    assert np.all(start > end)


SPREAD_AGES = st.lists(st.lists(st.integers(0, 40), max_size=6), max_size=8)


class TestCloseClaimPairs:
    """moment_grids expands only the claim pairs at most T apart, once for
    every window."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(SPREAD_AGES, st.sampled_from(["free_replacement", "linear"]))
    def test_one_call_is_one_call_per_horizon_and_all_pairs(self, per_item, kind):
        joined = joined_from(per_item)
        rebate = RebateFunction(kind, 40)
        fitted = MeanClaimsMeasure(-1e-4, 6e-3, atom0=0.05, atomW=0.02, warranty=40)
        horizons = [TimeHorizon(40, 12, 0, 9), TimeHorizon(40, 12, 12, 9)]
        both = moment_grids(joined, fitted, rebate, horizons)
        for horizon, grids in zip(horizons, both):
            [alone] = moment_grids(joined, fitted, rebate, [horizon])
            for got, want in zip(grids, alone):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            [(_, raw_var, _)] = moment_grids(joined, zero_measure(40), rebate, [horizon])
            want = np.maximum(all_pairs_second(joined, rebate, horizon, 9), 0.0)
            assert raw_var.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["free_replacement", "linear"])
    @pytest.mark.parametrize("offset", [0, 12])
    def test_matches_defining_sums_on_claims_far_apart(self, kind, offset):
        # every item holds claims more than T = 12 days apart, fractional
        # ones included, so the pair filter drops pairs; at offset 12 the
        # age just below 3 has its first sale day at 10, where 12 - age
        # rounds to 9
        per_item = [(0, 13, 26.5, 40), (3.25, 15.25, 15.75, 28), (0, 0, 40, 40),
                    (5,), (), (1.5, 14, 39.5), (3 - 2**-50, 20)]
        h = TimeHorizon(40, 12, offset=offset, scale=7)
        rebate = RebateFunction(kind, 40)
        joined = joined_from(per_item)
        assert len(close_pairs(joined.item, joined.age, 40, 12)[0]) < sum(
            len(p) ** 2 for p in per_item
        )
        [(_, var, _)] = moment_grids(joined, zero_measure(40), rebate, [h])
        _, second_ref = grid_oracle(per_item, rebate, h, 7)
        assert np.allclose(var, second_ref, atol=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(0, 40), st.floats(0.0, 40.0)), max_size=7
            ),
            max_size=8,
        ),
        st.integers(1, 19),
        st.sampled_from([1, 2, 5, claims_mod.PAIR_BLOCK]),
    )
    def test_expanded_pairs_hold_the_pairs_at_most_t_apart(self, per_item, period, block):
        joined = joined_from(per_item)
        with mock.patch.object(claims_mod, "PAIR_BLOCK", block):
            left, right = close_pairs(joined.item, joined.age, 40, period)
        assert_holds_close_pairs(joined, left, right, period)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_grids_do_not_depend_on_the_block_size(self, block):
        sales, claims = paper_scale_tables(n_items=300, n_claims=2_000, unknown=0)
        joined = join_claims(sales, claims, W)
        fitted = MeanClaimsMeasure(-8.9e-7, 1.48e-3, 0.133, 0.042, W)
        horizons = [TimeHorizon(W, T, 0, 300), TimeHorizon(W, T, T, 300)]
        rebate = RebateFunction.linear(W, 250.0)
        want = moment_grids(joined, fitted, rebate, horizons)
        with mock.patch.object(claims_mod, "PAIR_BLOCK", block):
            got = moment_grids(joined, fitted, rebate, horizons)
        for (mean, var, floored), (mean0, var0, floored0) in zip(got, want):
            assert mean.tobytes() == mean0.tobytes() and var.tobytes() == var0.tobytes()
            assert floored == floored0

    def test_pairs_exactly_t_apart_kept(self):
        # (0, 2) is 12 + 2e-15 apart: a candidate whose sale-day range is empty
        age = np.array([0.3, 12.3, 12.300000000000002, 40.0])
        item = np.zeros(4, dtype=np.int64)
        left, right = close_pairs(item, age, 40, 12)
        assert_holds_close_pairs(JoinedClaims(item, age, np.zeros(4)), left, right, 12)
        assert (0, 1) in zip(left.tolist(), right.tolist())

    def test_horizons_must_share_the_clock(self):
        fitted = zero_measure(W)
        for horizons in ([], [HORIZON, TimeHorizon(W, T - 1)],
                         [HORIZON, TimeHorizon(W + 1, T)],
                         [HORIZON, TimeHorizon(W, T, offset=T, scale=2)]):
            with pytest.raises(DomainError, match="share"):
                moment_grids(joined_from([(1,)]), fitted, FREE, horizons)

    def test_joined_claims_sorted_by_item_then_age(self):
        with pytest.raises(DomainError, match="sorted"):
            JoinedClaims([0, 0], [5.0, 3.0], [1.0, 1.0])
        with pytest.raises(DomainError, match="sorted"):
            JoinedClaims([1, 0], [3.0, 5.0], [1.0, 1.0])
        assert len(JoinedClaims([0, 1], [5.0, 3.0], [1.0, 1.0]).age) == 2


class TestMomentGrids:
    def test_mean_vanishes_in_empty_window(self):
        fitted = MeanClaimsMeasure(0.0, 1e-3, atom0=0.0, atomW=0.1, warranty=W)
        [(mean, _, _)] = moment_grids(
            joined_from([]), fitted, FREE, [TimeHorizon(W, T, scale=5)]
        )
        assert mean[-1] == pytest.approx(0.0)  # x = T: window [0, 0], no atom

    def test_two_item_toy_variance(self):
        # second moment (1/2)(1^2) = 0.5; the fitted atom at age 0 puts the
        # mean at 0.5 for x = 0, so the variance there is 0.25
        [(mean, var, _)] = moment_grids(
            joined_from([(5,), ()]),
            MeanClaimsMeasure(0.0, 0.0, atom0=0.5, warranty=W),
            FREE,
            [TimeHorizon(W, T, scale=2)],
        )
        at0 = np.where(HORIZON.sale_days == 0)[0][0]
        assert mean[at0] == pytest.approx(0.5)
        assert var[at0] == pytest.approx(0.25)

    def test_matches_defining_sums_free_replacement(self):
        rng = np.random.default_rng(23)
        h = TimeHorizon(40, 12, scale=30)
        measures = [rng.uniform(0, 40, size=rng.integers(0, 5)) for _ in range(30)]
        rebate = RebateFunction.free_replacement(40)
        [(mean, var, floored)] = moment_grids(
            joined_from(measures), zero_measure(40), rebate, [h]
        )
        _, second_ref = grid_oracle(measures, rebate, h, 30)
        assert np.all(mean == 0.0)
        assert np.allclose(var, second_ref, atol=1e-10)
        assert floored == 0

    def test_matches_defining_sums_prorata_with_offset(self):
        rng = np.random.default_rng(29)
        h = TimeHorizon(40, 12, offset=12, scale=25)
        measures = [rng.uniform(0, 40, size=rng.integers(0, 4)) for _ in range(25)]
        rebate = RebateFunction.linear(40)
        [(mean, var, _)] = moment_grids(
            joined_from(measures), zero_measure(40), rebate, [h]
        )
        _, second_ref = grid_oracle(measures, rebate, h, 25)
        assert np.all(mean == 0.0)
        assert np.allclose(var, second_ref, atol=1e-10)

    def test_fitted_mean_flooring_counted(self):
        # fitted mean larger than any raw second moment forces flooring
        fitted = MeanClaimsMeasure(0.0, 5e-3, atom0=0.5, atomW=0.5, warranty=W)
        [(_, var, floored)] = moment_grids(
            joined_from([(3,), ()]),
            fitted,
            FREE,
            [TimeHorizon(W, T, scale=2)],
        )
        assert floored > 0
        assert np.all(var >= 0.0)

    def test_branch_boundary_windows_agree_up_to_atoms(self):
        fitted = MeanClaimsMeasure(1e-6, 1e-3, atom0=0.3, atomW=0.2, warranty=W)
        bare = MeanClaimsMeasure(1e-6, 1e-3, warranty=W)
        # x = 0: window [0, T] holds the age-0 atom on top of the density
        assert HORIZON.claim_window(0) == (0.0, T)
        assert fitted.mass(0, T, FREE) == pytest.approx(
            bare.mass(0, T, FREE) + fitted.atom0
        )
        # x = T - W: window [W-T, W] holds the age-W atom on top of the density
        assert HORIZON.claim_window(T - W) == (W - T, W)
        assert fitted.mass(W - T, W, FREE) == pytest.approx(
            bare.mass(W - T, W, FREE) + fitted.atomW
        )

    def test_window_never_longer_than_period(self):
        for x in HORIZON.sale_days[:: len(HORIZON.sale_days) // 37]:
            lo, hi = HORIZON.claim_window(int(x))
            assert hi - lo <= min(T, W)


class TestEmptyAndOneClaimInputs:
    """The join and the grids on no claims, no sales, only unknown vehicles
    and a single claim."""

    def test_join_without_claims(self):
        joined = join_claims(sales_table(("A", -5), ("B", -3)), claims_table(), W)
        assert [len(c) for c in (joined.item, joined.age, joined.amount)] == [0, 0, 0]
        assert joined.item.dtype == np.int64 and joined.quarantined == 0

    @pytest.mark.parametrize("width", [1, 9], ids=["packed", "str"])
    def test_join_without_sales(self, width):
        a, b = "A" * width, "B" * width
        claims = claims_table((a, 1, 2.0), (b, 1, 1.0), (a, 1, 3.0), (a, 2, 1.0))
        joined = join_claims(sales_table(), claims, W)
        assert len(joined.item) == len(joined.amount) == 0
        assert joined.quarantined == 3  # (A, 1) merged, (A, 2), (B, 1)
        empty = join_claims(sales_table(), claims_table(), W)
        assert len(empty.item) == 0 and empty.quarantined == 0

    @pytest.mark.parametrize("width", [1, 9], ids=["packed", "str"])
    def test_join_with_only_unknown_vehicles(self, width):
        sales = sales_table(("S" * width, -5), ("T" * width, -1))
        claims = claims_table(("A" * width, 1, 1.0), ("B", 2, 1.0), ("A" * width, 1, 1.0))
        joined = join_claims(sales, claims, W)
        assert len(joined.item) == 0 and joined.quarantined == 2

    def test_join_keeps_known_claims_beside_unknown_ones(self):
        sales = sales_table(("B", -5), ("A", -2), ("C", 0))
        claims = claims_table(
            ("Z", 1, 9.0), ("A", 3, 1.0), ("C", 4, 2.0), ("A", 3, 0.5), ("Y", 0, 1.0),
            ("C", -1, 4.0), ("C", 2000, 8.0),
        )
        joined = join_claims(sales, claims, W)
        assert joined.item.tolist() == [1, 2, 2, 2]
        assert joined.age.tolist() == [5.0, 0.0, 4.0, float(W)]
        assert joined.amount.tolist() == [1.5, 4.0, 2.0, 8.0]
        assert joined.quarantined == 2

    def test_moment_grids_without_claims(self):
        fitted = MeanClaimsMeasure(-1e-7, 2e-4, atom0=0.01, atomW=0.02, warranty=W)
        horizons = [TimeHorizon(W, T, 0, 10), TimeHorizon(W, T, T, 10)]
        for horizon, (mean, var, floored) in zip(
            horizons, moment_grids(joined_from([]), fitted, FREE, horizons)
        ):
            want = fitted.mass(*horizon.claim_window(horizon.sale_days), FREE)
            assert mean.tobytes() == want.tobytes()
            assert var.tobytes() == np.zeros(len(want)).tobytes()
            assert floored == np.count_nonzero(want)

    @pytest.mark.parametrize("age", [0.0, 40.0, float(W)])
    def test_moment_grids_with_one_claim(self, age):
        rebate = RebateFunction.linear(W, 250.0)
        horizons = [TimeHorizon(W, T, 0, 3), TimeHorizon(W, T, T, 3)]
        joined = JoinedClaims([0], [age], [1.0])
        for horizon, (_, var, _) in zip(
            horizons, moment_grids(joined, zero_measure(W), rebate, horizons)
        ):
            _, second = grid_oracle([(age,)], rebate, horizon, 3)
            assert var.tobytes() == second.tobytes()


def paper_scale_tables(n_items=34_807, n_claims=44_000, unknown=25):
    """Sales and claims at the paper's scale: 44 000 claims, ages spread
    over [0, W], on 34 807 items, the first ``unknown`` claims on vehicles
    with no sale."""
    rng = np.random.default_rng(11)
    ids = np.array([f"V{i:06d}" for i in range(n_items)])
    sale_day = rng.integers(-1116, 1, size=n_items)
    owner = rng.integers(0, n_items, size=n_claims)
    vid = ids[owner]
    vid[:unknown] = [f"X{i:06d}" for i in range(unknown)]
    day = sale_day[owner] + rng.integers(0, W + 1, size=n_claims)
    amount = 10.0 * rng.uniform(size=n_claims) ** (-1.0 / 1.5)
    return SalesTable(ids, sale_day), ClaimsTable(vid, day, amount)


def traced_peak(f, *args):
    """``f(*args)`` and the traced peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestMemory:
    """At paper scale the join and the grids hold their result and little
    else.  Measured excesses over the bounds' variable parts: 1.10 MB for
    the join and 0.93 MB for the grids; whole-column temporaries took 3.48
    and 3.34 MB.  The window totals measure 4.13 columns of the joined
    claims; a window test through stand-in sale times took 6.26."""

    def test_join_holds_its_result_and_little_else(self):
        sales, claims = paper_scale_tables()
        joined, peak = traced_peak(join_claims, sales, claims, W)
        assert len(joined.item) > 40_000 and joined.quarantined == 25
        result = sum(c.nbytes for c in (joined.item, joined.age, joined.amount))
        assert peak <= result + 1.5e6

    @pytest.mark.parametrize("kind", ["free_replacement", "linear"])
    def test_moment_grids_hold_grids_pairs_and_one_block(self, kind):
        sales, claims = paper_scale_tables()
        joined = join_claims(sales, claims, W)
        fitted = MeanClaimsMeasure(-8.9e-7, 1.48e-3, 0.133, 0.042, W)
        horizons = [TimeHorizon(W, T, 0, len(sales)), TimeHorizon(W, T, T, len(sales))]
        grids, peak = traced_peak(
            moment_grids, joined, fitted, RebateFunction(kind, W), horizons
        )
        held = sum(mean.nbytes + var.nbytes for mean, var, _ in grids)
        pairs = sum(len(left) for left, _ in _close_pairs(joined.item, joined.age, W, T))
        assert pairs > len(joined.item)
        # int32 start and end and a float weight per close pair
        assert peak <= held + 16 * pairs + 1.5e6

    @pytest.mark.parametrize("offset", [0, T])
    def test_window_totals_hold_few_columns(self, offset):
        sales, claims = paper_scale_tables()
        joined = join_claims(sales, claims, W)
        horizon = TimeHorizon(W, T, offset, len(sales))
        (count, _), peak = traced_peak(realized_window_totals, sales, joined, horizon)
        assert count > 3000
        # four and a half 8-byte columns of the joined claims: the sale
        # days, their floats, one bound with its temporary, and the masks
        assert peak <= 4.5 * 8 * len(joined.item) + 0.1e6
