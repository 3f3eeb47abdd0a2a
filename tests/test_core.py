from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from claimcast.core import (
    FluctuationIncrements,
    MeanClaimsMeasure,
    RebateFunction,
    TimeHorizon,
    range_sums,
)
from claimcast.errors import DomainError, ValidationError

W, T = 1096, 91
HORIZON = TimeHorizon(W, T)


def brute_force_window_total(points, x, r, w, t, offset=0):
    """Independent oracle: literal piecewise filter-and-sum over the points."""
    total = 0.0
    for p in points:
        if not (0.0 <= p <= w):
            continue
        if offset <= x <= t + offset:
            hit = 0.0 <= p <= t + offset - x
        elif t + offset - w < x < offset:
            hit = offset - x <= p <= t + offset - x
        elif -w + offset <= x <= t + offset - w:
            hit = offset - x <= p <= w
        else:
            raise AssertionError("x outside domain")
        if hit:
            total += r(p)
    return total


def window_claim_total(points, sale_time, rebate, horizon):
    """Rebate-weighted claims of one item that land in the window, through
    the array form of ``claim_window``."""
    pts = np.asarray(points, dtype=float)
    lo, hi = horizon.claim_window(np.full(len(pts), sale_time))
    hit = (lo <= pts) & (pts <= hi)
    return float(np.sum(rebate(pts[hit])))


class TestTimeHorizon:
    def test_validates_clock(self):
        with pytest.raises(DomainError):
            TimeHorizon(100, 50)  # 2T >= W
        with pytest.raises(DomainError):
            TimeHorizon(100, 30, offset=7)
        with pytest.raises(DomainError):
            TimeHorizon(100, 30, scale=0)

    def test_branch_boundaries(self):
        # x = offset uses the [0, T-x] branch (pinned at age 0), x = T+offset-W
        # the [-x, W] one (pinned at age W); x = -1 is pinned at neither
        assert HORIZON.claim_window(0) == (0.0, float(T))
        assert HORIZON.claim_window(T - W) == (float(W - T), float(W))
        assert HORIZON.claim_window(-1) == (1.0, float(T + 1))
        with pytest.raises(DomainError):
            HORIZON.claim_window(T + 1)
        with pytest.raises(DomainError):
            HORIZON.claim_window(-W - 1)

    def test_array_of_sale_times(self):
        xs = np.array([-W, T - W, -500.5, -1, 0, 0.25, T])
        lo, hi = HORIZON.claim_window(xs)
        for k, x in enumerate(xs):
            assert (lo[k], hi[k]) == HORIZON.claim_window(x)
        with pytest.raises(DomainError):
            HORIZON.claim_window(np.array([0.0, T + 1.0]))
        with pytest.raises(DomainError):
            HORIZON.claim_window(np.array([np.nan]))

    @pytest.mark.parametrize("offset", [0, T])
    def test_sale_day_range_inverts_claim_window(self, offset):
        # for integer sale days x: start <= x <= end exactly when both ages
        # of the pair lie in x's claim window
        h = replace(HORIZON, offset=offset)
        days = h.sale_days
        lo, hi = h.claim_window(days)
        rng = np.random.default_rng(41)
        a_int = rng.integers(0, W + 1, size=300)
        b_int = np.minimum(a_int + rng.integers(0, T + 3, size=300), W)
        a_flt = rng.uniform(0, W, size=300)
        b_flt = np.minimum(a_flt + rng.uniform(0, T + 3, size=300), W)
        for a, b in ((a_int, b_int), (a_flt, b_flt)):
            start, end = h.sale_day_range(a, b)
            in_range = (start[:, None] <= days) & (days <= end[:, None])
            a_in = (lo <= a[:, None]) & (a[:, None] <= hi)
            b_in = (lo <= b[:, None]) & (b[:, None] <= hi)
            assert np.array_equal(in_range, a_in & b_in)
            assert in_range.any()

    @pytest.mark.parametrize("offset", [0, T])
    def test_lands_in_window_is_the_window_rule(self, offset):
        # a claim of age c from a sale on day x lands exactly when
        # 0 <= c <= W and o <= x + c <= T + o; sale days and ages on a
        # half-day grid keep x + c exact, and run past every edge
        h = replace(HORIZON, offset=offset)
        x = np.arange(-W + offset - 3, T + offset + 3.5, 0.5)
        c = np.arange(-2.0, W + 2.5, 0.5)
        xs, cs = np.repeat(x, len(c)), np.tile(c, len(x))
        want = (0 <= cs) & (cs <= W) & (offset <= xs + cs) & (xs + cs <= T + offset)
        assert np.array_equal(h.lands_in_window(xs, cs), want)
        # integer sale days as the tables hold them, and no sale time at all
        days = np.arange(-W + offset - 2, T + offset + 3)
        assert np.array_equal(
            h.lands_in_window(days, np.full(len(days), 5.0)),
            (offset <= days + 5) & (days + 5 <= T + offset),
        )
        assert not h.lands_in_window(np.array([np.nan]), np.array([0.0])).any()

    def test_offset_shifts_windows(self):
        h2 = replace(HORIZON, offset=T)
        assert h2.claim_window(T) == (0.0, float(T))
        assert h2.sale_days[0] == -W + T
        assert h2.sale_days[-1] == 2 * T


class TestWindowClaimTotal:
    def test_empty_measure_is_zero(self):
        for x in (-W, T - W, -500, 0, T):
            free = RebateFunction.free_replacement(W)
            assert window_claim_total((), x, free, HORIZON) == 0.0

    def test_single_claim_counted(self):
        # claim at age 5 for a sale on day 0 lands inside [0, 91]
        out = window_claim_total((5,), 0, RebateFunction.free_replacement(W), HORIZON)
        assert out == 1.0

    def test_linear_rebate_halves_midlife_claim(self):
        out = window_claim_total((W / 2,), -W / 2, RebateFunction.linear(W), HORIZON)
        assert out == pytest.approx(0.5)

    def test_bounded_by_total_mass(self):
        rng = np.random.default_rng(5)
        r = RebateFunction.linear(W)
        for _ in range(50):
            pts = tuple(rng.uniform(0, W, size=rng.integers(0, 6)))
            x = rng.uniform(-W, T)
            assert window_claim_total(pts, x, r, HORIZON) <= len(pts) + 1e-12

    @given(
        points=st.lists(st.floats(0.0, W), max_size=8),
        x=st.floats(-W, T),
        kind=st.sampled_from(["free_replacement", "linear", "quadratic"]),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_brute_force_filter(self, points, x, kind):
        r = RebateFunction(kind, W)
        got = window_claim_total(points, x, r, HORIZON)
        want = brute_force_window_total(points, x, r, W, T)
        assert got == pytest.approx(want, abs=1e-9)

    @given(
        points=st.lists(st.floats(0.0, W), max_size=6),
        x=st.floats(-W + T, 2 * T),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_matches_brute_force_with_offset(self, points, x):
        h = replace(HORIZON, offset=T)
        r = RebateFunction.free_replacement(W)
        got = window_claim_total(points, x, r, h)
        want = brute_force_window_total(points, x, r, W, T, offset=T)
        assert got == pytest.approx(want, abs=1e-9)


class TestRebateFunction:
    def test_kinds_evaluate(self):
        days = np.array([0.0, W / 2, W])
        assert np.allclose(RebateFunction.free_replacement(W)(days), [1, 1, 1])
        assert np.allclose(RebateFunction.linear(W)(days), [1, 0.5, 0.0])
        assert np.allclose(RebateFunction.quadratic(W)(days), [1, 0.25, 0.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            RebateFunction("discount", W)
        with pytest.raises(DomainError):
            RebateFunction("tabulated", W)

    @pytest.mark.parametrize("price", [0.0, -1.0, np.nan, np.inf])
    def test_unit_price_must_be_positive_and_finite(self, price):
        with pytest.raises(DomainError, match="unit price"):
            RebateFunction.linear(W, unit_price=price)

    @pytest.mark.parametrize("age", [-1e-6, W + 1e-6, np.nan])
    def test_evaluated_outside_warranty_rejected(self, age):
        with pytest.raises(DomainError, match=r"outside \[0, W\]"):
            RebateFunction.linear(W)(np.array([0.0, age]))

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError, match="power must be non-negative"):
            RebateFunction.linear(W).poly_coef(-1)

    def test_squared(self):
        days = np.arange(0, W + 1, 7)
        for kind in ("free_replacement", "linear", "quadratic"):
            r = RebateFunction(kind, W)
            sq = np.polyval(r.poly_coef(2), days)
            assert np.allclose(sq, np.asarray(r(days)) ** 2, rtol=1e-12, atol=1e-15)
        # the square of linear carries exactly the quadratic kind's coefficients
        assert np.array_equal(
            RebateFunction.linear(W).poly_coef(2), RebateFunction.quadratic(W).poly_coef()
        )


def car_mean_measure():
    """Mean measure with the published car-data coefficients."""
    a = -0.8872e-6
    b = 0.1479e-2 + a / 2.0
    return MeanClaimsMeasure(a, b, atom0=0.1330, atomW=0.0420, warranty=W)


class TestMeanClaimsMeasure:
    def test_negative_density_rejected(self):
        # positive at 0, negative at W: the message names the W end
        with pytest.raises(ValidationError, match="near x=W "):
            MeanClaimsMeasure(slope=-1e-3, intercept=1e-4, warranty=W)

    @pytest.mark.parametrize("field", ["slope", "intercept", "atom0", "atomW"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            replace(car_mean_measure(), **{field: value})

    def test_negative_atom_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            replace(car_mean_measure(), atomW=-1e-3)

    @pytest.mark.parametrize("warranty", [0, -W])
    def test_nonpositive_warranty_rejected(self, warranty):
        with pytest.raises(DomainError, match="warranty must be positive"):
            replace(car_mean_measure(), warranty=warranty)

    def test_bin_masses_sum_to_total(self):
        m = car_mean_measure()
        # independent tally: daily bins m((i-1, i]) = a*i + b - a/2, atoms at ends
        bins = [m.atom0]
        for i in range(1, W + 1):
            bins.append(m.slope * i + m.intercept - m.slope / 2.0)
        bins[W] += m.atomW
        assert np.allclose(m.bin_masses(), bins)


# r(t) = p(t / W), with p's coefficients lowest power first
SHAPES = {"free_replacement": [1.0], "linear": [1.0, -1.0], "quadratic": [1.0, -2.0, 1.0]}


def polynomial_mass(m, lo, hi, kind, power):
    """Oracle: MeanClaimsMeasure.mass over arrays of bounds, computed with
    numpy.polynomial.polynomial, whose coefficients run lowest power first."""
    w = float(m.warranty)
    shape = npoly.polypow(SHAPES[kind], power)
    coef = shape / w ** np.arange(len(shape))
    anti = npoly.polyint(npoly.polymul(coef, [m.intercept, m.slope]))
    out = npoly.polyval(hi, anti) - npoly.polyval(lo, anti)
    out = out + np.where(lo == 0.0, m.atom0 * npoly.polyval(0.0, coef), 0.0)
    return out + np.where(hi == w, m.atomW * npoly.polyval(w, coef), 0.0)


class TestWeightedMass:
    """MeanClaimsMeasure.mass: the measure r(y)^power m(dy) of a closed interval."""

    def test_uniform_unit_mass(self):
        m = MeanClaimsMeasure(0.0, 1.0 / W, warranty=W)
        assert m.mass(0, W, RebateFunction.free_replacement(W)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_car_total_mass_matches_daily_tally(self):
        m = car_mean_measure()
        total = m.mass(0, W, RebateFunction.free_replacement(W))  # holds both atoms
        assert total == pytest.approx(float(np.sum(m.bin_masses())), rel=1e-10)
        # frozen value from the daily tally of the published coefficients
        assert total == pytest.approx(1.2626383968, abs=5e-9)

    def test_triangle_area_under_linear_rebate(self):
        c = 0.37
        m = MeanClaimsMeasure(0.0, c, warranty=W)
        assert m.mass(0, W, RebateFunction.linear(W)) == pytest.approx(
            c * W / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_squared_weight_is_exact(self, kind):
        # r^2 m(dy) against 64-point Gauss-Legendre per interval, which is
        # exact for the degree <= 5 integrand; atoms weighted by r(0)^2, r(W)^2
        m = MeanClaimsMeasure(2e-7, 1e-3, atom0=0.25, atomW=0.5, warranty=W)
        r = RebateFunction(kind, W)
        rng = np.random.default_rng(8)
        lo = np.concatenate([[0.0, 3.0, 100.2, W - T], rng.uniform(0, W, 40)])
        hi = np.minimum(lo + np.concatenate([[W, 0.0, 0.5, T], rng.uniform(0, W, 40)]), W)
        left = lo == 0.0
        right = hi == W
        got = m.mass(lo, hi, r, power=2)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for k in range(len(lo)):
            y = 0.5 * (hi[k] - lo[k]) * nodes + 0.5 * (hi[k] + lo[k])
            f = np.asarray(r(y)) ** 2 * m.density(y)
            want = 0.5 * (hi[k] - lo[k]) * float(weights @ f)
            want += left[k] * m.atom0 + right[k] * m.atomW * float(r(float(W))) ** 2
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert m.mass(lo[k], hi[k], r, power=2) == got[k]

    @pytest.mark.parametrize("slope", [-0.8872e-6, 0.0])
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("kind", ["free_replacement", "linear", "quadratic"])
    def test_bits_match_numpy_polynomial(self, kind, power, slope):
        # a fitted slope can be exactly 0, which numpy.polynomial trims
        m, r = replace(car_mean_measure(), slope=slope), RebateFunction(kind, W)
        rng = np.random.default_rng(36)
        lo = np.concatenate([[0.0, 0.0, 10.0, W - T, W], rng.uniform(0, W / 2, 20)])
        hi = np.concatenate([[T, W, 10.0, W, W], rng.uniform(W / 2, W, 20)])
        got = m.mass(lo, hi, r, power)
        want = polynomial_mass(m, lo, hi, kind, power)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for k in range(len(lo)):
            one = m.mass(lo[k], hi[k], r, power)
            assert type(one) is float and np.float64(one).tobytes() == want[k].tobytes()

    @pytest.mark.parametrize("kind", ["free_replacement", "linear", "quadratic"])
    def test_array_bounds_match_scalar_calls(self, kind):
        m, r = car_mean_measure(), RebateFunction(kind, W)
        lo = np.array([0.0, 0.0, 10.0, W - T, 500.5, 0.0, W])
        hi = np.array([T, W, 10.0, W, 501.0, 0.0, W])
        got = m.mass(lo, hi, r)
        for k in range(len(lo)):
            assert got[k] == m.mass(lo[k], hi[k], r)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("kind", ["free_replacement", "linear", "quadratic"])
    def test_closed_interval_holds_an_atom_exactly_at_its_end(self, kind, power):
        # [lo, hi] holds the age-0 atom iff lo == 0 and the age-W atom iff
        # hi == W; the density part is that of the atom-free measure
        m = car_mean_measure()
        r = RebateFunction(kind, W)
        bare = replace(m, atom0=0.0, atomW=0.0)
        at0 = m.atom0 * float(r(0.0)) ** power
        at_w = m.atomW * float(r(float(W))) ** power
        cases = [
            (0.0, T, at0),
            (0.0, W, at0 + at_w),
            (W - T, W, at_w),
            (0.0, 0.0, at0),
            (W, W, at_w),
            (1e-12, W - 1e-9, 0.0),
            (5.0, 5.0, 0.0),
        ]
        for lo, hi, atoms in cases:
            assert m.mass(lo, hi, r, power) == pytest.approx(
                bare.mass(lo, hi, r, power) + atoms, abs=1e-15
            )
        lo, hi, atoms = (np.array(col) for col in zip(*cases))
        want = bare.mass(lo, hi, r, power) + atoms
        assert np.allclose(m.mass(lo, hi, r, power), want, rtol=0, atol=1e-15)
        if kind == "free_replacement":
            assert m.mass(0.0, 0.0, r, power) == m.atom0
            assert m.mass(W, W, r, power) == m.atomW

    def test_invalid_interval_rejected(self):
        m, r = car_mean_measure(), RebateFunction.free_replacement(W)
        with pytest.raises(DomainError):
            m.mass(-1, 10, r)
        with pytest.raises(DomainError):
            m.mass(10, 5, r)
        with pytest.raises(DomainError):
            m.mass(0, W + 1, r)

    def test_rebate_of_another_warranty_rejected(self):
        m = car_mean_measure()
        with pytest.raises(ValidationError, match="warranty"):
            m.mass(0, T, RebateFunction.free_replacement(W + 1))
        with pytest.raises(ValidationError, match="warranty"):
            m.mass(0, T, RebateFunction.linear(W - 1), power=2)

    @given(
        s=st.floats(0, W),
        u=st.floats(0, W),
        v=st.floats(0, W),
        kind=st.sampled_from(["free_replacement", "linear", "quadratic"]),
    )
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_additive_over_split(self, s, u, v, kind):
        # closed parts [lo, mid] and [mid, hi] share the point mid, which
        # carries mass only as an atom, at 0 or W
        lo, mid, hi = sorted((s, u, v))
        m = car_mean_measure()
        r = RebateFunction(kind, W)
        shared = m.atom0 * r(0.0) if mid == 0.0 else 0.0
        shared += m.atomW * r(float(W)) if mid == W else 0.0
        whole = m.mass(lo, hi, r)
        parts = m.mass(lo, mid, r) + m.mass(mid, hi, r) - shared
        assert whole == pytest.approx(parts, abs=1e-9)
        assert m.mass(lo, mid, r) <= whole + 1e-12  # monotone for non-negative density


class TestMeanWindowClaims:
    """A sale's mean window claims: the mass of its claim window."""

    def test_empty_window_at_period_end(self):
        m = MeanClaimsMeasure(0.0, 1e-3, atom0=0.0, warranty=W)
        r = RebateFunction.free_replacement(W)
        assert m.mass(*HORIZON.claim_window(T), r) == pytest.approx(0.0)

    def test_atoms_enter_only_at_pinned_edges(self):
        m = MeanClaimsMeasure(0.0, 0.0, atom0=0.25, atomW=0.5, warranty=W)
        r = RebateFunction.free_replacement(W)
        assert m.mass(*HORIZON.claim_window(0), r) == pytest.approx(0.25)
        assert m.mass(*HORIZON.claim_window(T - W), r) == pytest.approx(0.5)
        assert m.mass(*HORIZON.claim_window(-10), r) == pytest.approx(0.0)


def brute_force_range_sums(start, end, weight, first, size):
    """Independent oracle: add each weight to every day of its range."""
    out = [0.0] * size
    for s, e, w in zip(start, end, weight):
        for day in range(s, e + 1):
            out[day - first] += w
    return np.array(out)


class TestRangeSums:
    @given(first=st.integers(-1200, 100), size=st.integers(1, 40), data=st.data())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_brute_force_loop(self, first, size, data):
        # starts may pass the last day and ends precede the first: such
        # ranges are empty (start > end); every non-empty one is on the grid
        last = first + size - 1
        count = data.draw(st.integers(0, 12))
        start = data.draw(st.lists(st.integers(first, last + 3), min_size=count,
                                   max_size=count))
        end = data.draw(st.lists(st.integers(first - 3, last), min_size=count,
                                 max_size=count))
        weight = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=count,
                                    max_size=count))
        got = range_sums(np.array(start, dtype=np.int64), np.array(end, dtype=np.int64),
                         np.array(weight), first, size)
        want = brute_force_range_sums(start, end, weight, first, size)
        assert got.shape == (size,)
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_empty_and_edge_ranges(self):
        first, size = -5, 8  # days -5 .. 2
        start = np.array([3, 0, -5, 2, -5])
        end = np.array([2, -1, -5, 2, 2])
        weight = np.array([100.0, 100.0, 1.0, 2.0, 0.5])
        got = range_sums(start, end, weight, first, size)
        assert got.tolist() == [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.5]
        assert np.array_equal(range_sums(start[:2], end[:2], weight[:2], first, size),
                              np.zeros(size))

    @pytest.mark.parametrize(
        "start, end",
        [(-6, -5), (-7, 2), (-6, -6), (2, 3), (-5, 3), (3, 3)],
        ids=["before", "before_to_last", "one_day_before", "past", "first_to_past",
             "one_day_past"],
    )
    def test_off_grid_range_rejected(self, start, end):
        # days -5 .. 2: a non-empty range leaving them at either end would
        # wrap round (a negative index) or run past the difference array
        with pytest.raises(DomainError, match=r"leaves the grid \[-5, 2\]"):
            range_sums(np.array([start]), np.array([end]), np.ones(1), -5, 8)

    def test_first_off_grid_range_named_after_empty_ones_drop(self):
        # empty ranges may lie anywhere; the first non-empty one off the
        # grid is named
        start = np.array([0, 9, 2, -1, 1])
        end = np.array([2, -9, 4, 0, 1])
        with pytest.raises(DomainError, match=r"^day range \[2, 4\] leaves the grid \[0, 2\]$"):
            range_sums(start, end, np.ones(5), 0, 3)
        assert range_sums(start[:2], end[:2], np.ones(2), 0, 3).tolist() == [1.0, 1.0, 1.0]


class TestFluctuationIncrements:
    @pytest.mark.parametrize(
        "mean, scale, acf",
        [(np.zeros(5), np.ones(4), np.zeros(5)),
         (np.zeros(5), np.ones(5), np.zeros(6)),
         (np.zeros((5, 1)), np.ones((5, 1)), np.zeros((5, 1)))],
        ids=["scale", "acf", "two_dimensional"],
    )
    def test_series_must_align(self, mean, scale, acf):
        with pytest.raises(DomainError, match="must align"):
            FluctuationIncrements(mean, scale, acf)

    @pytest.mark.parametrize("bad", [-1e-300, np.nan])
    def test_negative_scale_rejected(self, bad):
        scale = np.ones(5)
        scale[3] = bad
        with pytest.raises(DomainError, match="scale must be non-negative"):
            FluctuationIncrements(np.zeros(5), scale, np.zeros(5))
        assert FluctuationIncrements(np.zeros(5), np.zeros(5), np.zeros(5)).scale.sum() == 0.0
