from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from claimcast import sim
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.engine import CostApproximation, approx_quantile, cost_approx_stable
from claimcast.errors import DomainError, NumericalError
from claimcast.sim import (
    LinearShare,
    LognormalSizes,
    MonteCarloStudy,
    NhppSales,
    ParetoSizes,
    PoissonClaims,
    RenewalSales,
    SingleLifetime,
    _ks_against,
    _limit_law,
    _score,
    make_rng,
    monte_carlo_validate,
    realize_cost,
    run_replication,
    theoretical_limit,
)
from claimcast.stable import (
    params_eq_one_case,
    params_mean_case,
    params_zero_one_case,
    stable_cdf,
)

W, T = 200, 40
HORIZON = TimeHorizon(W, T, 0, 300)
FREE = RebateFunction.free_replacement(W)
# lifetimes uniform on [0, 2W], restricted to [0, W]; sampling reads only W
LIFE = MeanClaimsMeasure(0.0, 1.0 / (2 * W), warranty=W)


class TestSimulateSales:
    def test_deterministic_gaps_are_equally_spaced(self):
        h = TimeHorizon(W, T, 0, 1)
        spec = RenewalSales(mean=10.0, var=0.0)
        s = spec.sample(h, make_rng(7))
        gaps = np.diff(s)
        assert np.allclose(gaps, 10.0)
        assert s[0] == pytest.approx(-W + 10.0)
        assert s[-1] <= T

    @pytest.mark.parametrize("mean, var", [(0.0, 1.0), (-2.0, 1.0), (2.0, -1.0)])
    def test_renewal_gaps_need_positive_mean_and_non_negative_var(self, mean, var):
        with pytest.raises(DomainError, match="need mean > 0 and var >= 0"):
            RenewalSales(mean=mean, var=var)

    @pytest.mark.parametrize(
        "mean, var", [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)]
    )
    def test_renewal_gaps_need_finite_mean_and_var(self, mean, var):
        # a NaN mean or var would make every increment variance NaN
        with pytest.raises(DomainError, match="both finite"):
            RenewalSales(mean=mean, var=var)

    def test_sales_confined_to_clock(self):
        for spec in (
            RenewalSales(mean=3.0, var=4.0),
            NhppSales(LinearShare(W, W + T)),
        ):
            s = spec.sample(HORIZON, make_rng(11))
            assert np.all(s >= -W - 1e-9)
            assert np.all(s <= T + 1e-9)

    def test_poisson_counts_concentrate(self):
        # count on [-W, 0] is Poisson with mean n * share(0); 3-sigma
        # coverage over 200 seeds should reach the normal-tail level
        share = LinearShare(W, W + T)
        spec = NhppSales(share)
        n = HORIZON.scale
        mean_count = n * float(share(np.array(0.0)))
        hits = 0
        for seed in range(200):
            s = spec.sample(HORIZON, make_rng(seed))
            count = int(np.sum(s <= 0.0))
            if abs(count - mean_count) <= 3.0 * np.sqrt(mean_count):
                hits += 1
        assert hits >= 192  # 96%; 3 sigma covers 99.7% in expectation

    @pytest.mark.slow
    def test_poisson_interval_mean_within_three_standard_errors(self):
        h = TimeHorizon(W, T, 0, 50)
        share = LinearShare(W, W + T)
        spec = NhppSales(share)
        reps = 10_000
        lo, hi = -150.0, -30.0
        counts = np.empty(reps)
        for r in range(reps):
            s = spec.sample(h, make_rng(31, r))
            counts[r] = np.sum((s > lo) & (s <= hi))
        want = h.scale * float(share(np.array(hi)) - share(np.array(lo)))
        se = np.std(counts, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(counts) - want) <= 3.0 * se

    def test_nhpp_rejects_a_decreasing_share(self):
        # the share rises to 1 at day 0 and falls after it; inverting it
        # would put every sale before day -21
        spec = NhppSales(lambda d: np.cos(d / 30.0))
        h = TimeHorizon(60, 20, 0, 100)
        with pytest.raises(DomainError, match="non-decreasing"):
            spec.sample(h, make_rng(3))
        with pytest.raises(DomainError, match="non-decreasing"):
            spec.increment_var(h)

    def test_reproducible(self):
        spec = RenewalSales(mean=2.0, var=1.0)
        assert np.array_equal(
            spec.sample(HORIZON, make_rng(5)), spec.sample(HORIZON, make_rng(5))
        )


def columns(per_item):
    """(item, age) columns sorted by (item, age) from per-item claim ages."""
    ages = [sorted(float(c) for c in pts) for pts in per_item]
    item = np.repeat(np.arange(len(ages)), [len(a) for a in ages])
    return item, np.array([c for a in ages for c in a], dtype=float)


class TestSimulateClaimsMeasure:
    def test_zero_intensity_always_empty(self):
        spec = PoissonClaims(MeanClaimsMeasure(0.0, 0.0, warranty=W))
        for seed in range(20):
            item, age = spec.sample(make_rng(seed), 50)
            assert len(item) == len(age) == 0

    def test_constant_density_mean_mass(self):
        c = 2.0 / W
        spec = PoissonClaims(MeanClaimsMeasure(0.0, c, warranty=W))
        item, _ = spec.sample(make_rng(99), 100_000)
        totals = np.bincount(item, minlength=100_000)
        assert np.mean(totals) == pytest.approx(c * W, rel=0.01)

    def test_atoms_sampled_at_edges(self):
        spec = PoissonClaims(
            MeanClaimsMeasure(0.0, 0.0, atom0=0.5, atomW=0.25, warranty=W)
        )
        reps = 20_000
        _, age = spec.sample(make_rng(7), reps)
        assert np.all((age == 0.0) | (age == float(W)))
        assert np.count_nonzero(age == 0.0) / reps == pytest.approx(0.5, rel=0.05)
        assert np.count_nonzero(age == W) / reps == pytest.approx(0.25, rel=0.05)

    def test_grouped_columns_with_exact_atoms(self):
        measure = paper_shaped_measure(W)
        item, age = PoissonClaims(measure).sample(make_rng(3), 5000)
        assert item.dtype.kind == "i" and age.dtype == float
        assert np.all((0 <= item) & (item < 5000))
        assert np.all((0.0 <= age) & (age <= W))
        # kept proposals, then the age-0 atoms, then the age-W atoms, each
        # group in item order; both atoms carry mass, so both edges are hit
        # exactly
        at0, at_w = np.count_nonzero(age == 0.0), np.count_nonzero(age == float(W))
        assert at0 > 0 and at_w > 0
        cuts = [len(age) - at0 - at_w, len(age) - at_w]
        interior, zeros, ends = np.split(age, cuts)
        assert np.all((0.0 < interior) & (interior < W))
        assert np.all(zeros == 0.0) and np.all(ends == float(W))
        assert all(np.all(np.diff(group) >= 0) for group in np.split(item, cuts))

    def test_count_mean_and_variance_equal_total_mass(self):
        # a Poisson measure's per-item count is Poisson(total mass)
        measure = paper_shaped_measure(W)
        size = 200_000
        item, _ = PoissonClaims(measure).sample(make_rng(17), size)
        counts = np.bincount(item, minlength=size)
        mass = float(measure.bin_masses().sum())
        se_mean = np.sqrt(mass / size)
        assert abs(np.mean(counts) - mass) <= 4.0 * se_mean
        assert np.var(counts, ddof=1) == pytest.approx(mass, rel=0.02)

    def test_degenerate_lifetime(self):
        spec = SingleLifetime(ppf=lambda u: W / 2.0, mean_measure=LIFE)
        for seed in range(5):
            item, age = spec.sample(make_rng(seed), 3)
            assert item.tolist() == [0, 1, 2]
            assert age.tolist() == [W / 2.0] * 3

    def test_lifetime_beyond_warranty_drops_claim(self):
        spec = SingleLifetime(ppf=lambda u: W + 1.0, mean_measure=LIFE)
        item, age = spec.sample(make_rng(3), 4)
        assert len(item) == len(age) == 0
        spec = SingleLifetime(ppf=lambda u: float(W), mean_measure=LIFE)  # ends at W
        assert spec.sample(make_rng(3), 2)[1].tolist() == [W, W]
        spec = SingleLifetime(ppf=lambda u: u * 2 * W, mean_measure=LIFE)
        u = make_rng(8).uniform(size=1000)
        item, age = spec.sample(make_rng(8), 1000)
        assert item.tolist() == np.flatnonzero(u * 2 * W <= W).tolist()
        assert np.array_equal(age, u[item] * 2 * W)

    def test_negative_lifetime_rejected(self):
        spec = SingleLifetime(ppf=lambda u: u - 0.5, mean_measure=LIFE)
        with pytest.raises(DomainError):
            spec.sample(make_rng(1), 100)


def oracle_realize(sales, per_item, sizes, rebate, horizon):
    """Independent enumerator over every (sale, claim) pair."""
    o, t, w = horizon.offset, horizon.period, horizon.warranty
    prorata = rebate.kind != "free_replacement"
    count = 0
    cost = 0.0
    next_size = 0
    for j in range(len(sales)):
        pts = sorted(per_item[j])
        if prorata:
            pts = pts[:1]
        for c in pts:
            in_warranty = 0.0 <= c <= w
            in_window = o <= sales[j] + c <= t + o
            if in_warranty and in_window:
                count += 1
                if prorata:
                    cost += rebate.unit_price * float(rebate(c))
                else:
                    cost += float(sizes[next_size])
                    next_size += 1
    return count, cost


def realized(study, seed, rep):
    """Claim count and cost of one replication, scored by realize_cost."""
    sales, item, age, sizes = run_replication(study, seed, rep)
    order = np.lexsort((age, item))
    return realize_cost(sales, item[order], age[order], sizes, study.rebate, study.horizon)


class TestRealizeCost:
    def test_no_sales(self):
        got = realize_cost(np.array([]), *columns([]), np.array([]), FREE, HORIZON)
        assert got == (0, 0.0)

    def test_single_claim(self):
        h = TimeHorizon(1096, 91, 0, 1)
        count, cost = realize_cost(
            np.array([0.0]),
            *columns([(5.0,)]),
            np.array([10.0]),
            RebateFunction.free_replacement(1096),
            h,
        )
        assert (count, cost) == (1, 10.0)

    def test_prorata_pays_only_each_items_first_claim(self):
        rebate = RebateFunction.linear(W, unit_price=10.0)
        # item 0 has three in-window claims, item 1 one, item 2 none in
        # warranty; only the first (youngest) claim of an item can pay
        sales = np.array([0.0, -10.0, 5.0])
        item, age = columns([(20.0, 5.0, 30.0), (15.0,), ()])
        count, cost = realize_cost(sales, item, age, None, rebate, HORIZON)
        assert count == 2
        assert cost == pytest.approx(10.0 * (1 - 5.0 / W) + 10.0 * (1 - 15.0 / W))
        # the first claim missing the window leaves the item unpaid
        count, cost = realize_cost(
            np.array([-W + 1.0]), *columns([(2.0, W - 1.0)]), None, rebate, HORIZON
        )
        assert (count, cost) == (0, 0.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        rebates = [FREE, RebateFunction.linear(W, unit_price=7.5)]
        for trial in range(1000):
            k = int(rng.integers(0, 11))
            sales = rng.uniform(-W, T, size=k)
            per_item = [rng.uniform(0, W, size=rng.integers(0, 4)) for _ in range(k)]
            sizes = rng.lognormal(1.0, 1.0, size=3 * k + 5)
            rebate = rebates[trial % 2]
            got = realize_cost(sales, *columns(per_item), sizes, rebate, HORIZON)
            want = oracle_realize(sales, per_item, sizes, rebate, HORIZON)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_size_stream_exhaustion(self):
        with pytest.raises(DomainError):
            realize_cost(
                np.array([0.0]),
                *columns([(1.0, 2.0)]),
                np.array([5.0]),
                FREE,
                HORIZON,
            )

    def test_missing_size_stream_is_empty(self):
        # a claim outside the window consumes no size; one landing needs one
        got = realize_cost(np.array([0.0]), *columns([(T + 1.0,)]), None, FREE, HORIZON)
        assert got == (0, 0.0)
        with pytest.raises(DomainError, match="need 1, have 0"):
            realize_cost(np.array([0.0]), *columns([(1.0,)]), None, FREE, HORIZON)

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            realize_cost(np.array([0.0]), np.array([0]), np.array([]), None, FREE, HORIZON)
        with pytest.raises(DomainError):  # item index past the sales
            realize_cost(np.array([0.0]), *columns([(), (1.0,)]), None, FREE, HORIZON)

    def test_unsorted_columns_rejected(self):
        for item, age in (([1, 0], [1.0, 1.0]), ([0, 0], [2.0, 1.0])):
            with pytest.raises(DomainError):
                realize_cost(
                    np.zeros(2), np.array(item), np.array(age), np.ones(2),
                    FREE, HORIZON,
                )


class TestScoreBlock:
    def test_matches_oracle_on_blocks_of_unsorted_claims(self):
        # blocks of 1..16 scenarios, each scenario's claims shuffled; ages
        # include both edges, so an item can hold tied earliest claims
        rng = np.random.default_rng(2026)
        rebates = [FREE, RebateFunction.linear(W, unit_price=7.5)]
        horizons = [HORIZON, TimeHorizon(W, T, T, 300)]
        for trial in range(400):
            rebate, horizon = rebates[trial % 2], horizons[trial // 2 % 2]
            block, want = [], []
            for _ in range(int(rng.integers(1, 17))):
                k = int(rng.integers(0, 11))
                sales = rng.uniform(-W, 2 * T, size=k)
                per_item = [
                    rng.choice([0.0, rng.uniform(0, W), float(W)], size=rng.integers(0, 4))
                    for _ in range(k)
                ]
                sizes = rng.lognormal(1.0, 1.0, size=3 * k + 5)
                item, age = columns(per_item)
                count, cost = oracle_realize(sales, per_item, sizes, rebate, horizon)
                one = realize_cost(sales, item, age, sizes, rebate, horizon)
                assert one[0] == count and one[1] == pytest.approx(cost, abs=1e-9)
                if rebate is FREE:  # numpy's pairwise sum of the size prefix
                    assert one[1] == float(np.sum(sizes[:count]))
                want.append(one)  # the block must give these bits
                shuffle = rng.permutation(len(item))
                block.append((sales, item[shuffle], age[shuffle], sizes))
            counts, costs = _score(block, rebate, horizon)
            assert list(zip(counts.tolist(), costs.tolist())) == want

    def test_block_size_leaves_the_report_unchanged(self, monkeypatch):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=RebateFunction.linear(W, unit_price=2.0),
            horizon=TimeHorizon(W, T, 0, 200),
            theorem="prorata",
        )
        reports = []
        for block in (1, 7, 16, 300):
            monkeypatch.setattr(sim, "_BLOCK", block)
            reports.append(monte_carlo_validate(study, reps=130, seed=4))
        assert all(r == reports[0] for r in reports)


def paper_shaped_measure(warranty):
    """Linear density with end atoms, scaled to a small test horizon."""
    return MeanClaimsMeasure(
        slope=-0.5e-5,
        intercept=6e-3,
        atom0=0.12,
        atomW=0.05,
        warranty=warranty,
    )


class TestTheoreticalLimit:
    def test_poisson_claims_have_equal_rate_constants(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )
        lp = theoretical_limit(study)
        assert lp.claims_var == pytest.approx(lp.claims_mean, rel=1e-12)
        assert lp.fluct_mean == 0.0
        assert lp.fluct_var > 0.0

    def test_renewal_and_poisson_linear_shares_agree_on_c1(self):
        # a renewal process with mean 1/(W+T) spread and the linear-share
        # Poisson process share the same deterministic curve
        study_p = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )
        study_r = MonteCarloStudy(
            sales=RenewalSales(mean=float(W + T), var=0.5),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )
        assert theoretical_limit(study_p).claims_mean == pytest.approx(
            theoretical_limit(study_r).claims_mean, rel=1e-12
        )

    def test_single_lifetime_variance_below_mean(self):
        # one claim at most: var = E[r^2 1] - mean^2 < mean for r <= 1
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=SingleLifetime(ppf=lambda u: u * 2 * W, mean_measure=LIFE),
            rebate=RebateFunction.linear(W, unit_price=3.0),
            horizon=HORIZON,
            theorem="prorata",
        )
        lp = theoretical_limit(study)
        assert 0.0 < lp.claims_var < lp.claims_mean


    @pytest.mark.parametrize(
        "sales",
        [NhppSales(LinearShare(W, W + 2 * T)), RenewalSales(mean=3.0, var=4.0)],
        ids=["nhpp", "renewal"],
    )
    def test_second_window_matches_first(self, sales):
        # both sales laws have stationary increments, so shifting the
        # window by T leaves every limit parameter unchanged
        base = dict(
            sales=sales,
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=RebateFunction.linear(W, unit_price=2.0),
            theorem="prorata",
        )
        first = theoretical_limit(MonteCarloStudy(horizon=HORIZON, **base))
        second = theoretical_limit(
            MonteCarloStudy(horizon=replace(HORIZON, offset=T), **base)
        )
        assert second.horizon.offset == T
        for name in ("claims_mean", "claims_var", "fluct_mean", "fluct_var"):
            want = getattr(first, name)
            assert getattr(second, name) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert first.fluct_var > 0.0


class TestMonteCarloValidate:
    def test_count_study_on_second_window(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + 2 * T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=TimeHorizon(W, T, T, 300),
            theorem="count",
        )
        report = monte_carlo_validate(study, reps=100, seed=3)
        assert not report.degenerate
        assert np.isfinite(report.ks_distance)
        assert report.ks_distance < 0.2


    def test_zero_intensity_reports_degenerate(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(MeanClaimsMeasure(0.0, 0.0, warranty=W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )
        report = monte_carlo_validate(study, reps=100, seed=1)
        assert report.degenerate
        assert report.dkw_band == 1.36 / 10.0

    def test_limit_law_that_cannot_be_built_fails_before_any_replication(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=RebateFunction.linear(W, unit_price=1e200),
            horizon=HORIZON,
            theorem="prorata",
        )
        with mock.patch.object(sim, "run_replication", wraps=sim.run_replication) as spy:
            with pytest.raises(NumericalError, match="not finite"):
                monte_carlo_validate(study, reps=4000, seed=1)
        assert not spy.called

    def test_claims_drawn_without_a_positive_claim_rate_have_no_limit_law(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=RebateFunction.linear(W),
            horizon=HORIZON,
            theorem="count",
        )
        limit = sim.theoretical_limit(study)
        with mock.patch.object(
            sim, "theoretical_limit", return_value=replace(limit, claims_mean=0.0)
        ):
            with pytest.raises(DomainError, match="c1 is not positive"):
                monte_carlo_validate(study, reps=100, seed=1)

    def test_deterministic_and_worker_invariant(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=TimeHorizon(W, T, 0, 120),
            theorem="count",
        )
        r1 = monte_carlo_validate(study, reps=120, seed=42)
        r2 = monte_carlo_validate(study, reps=120, seed=42)
        r3 = monte_carlo_validate(study, reps=120, seed=42, workers=2)
        assert r1 == r2 == r3
        assert r1.dkw_band == 1.36 / np.sqrt(120)

    def test_minimum_reps_enforced(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )
        with pytest.raises(DomainError):
            monte_carlo_validate(study, reps=50, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_seed_rejected_before_any_replication(self, monkeypatch, workers):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )

        def no_replications(*args, **kwargs):
            raise AssertionError("replications ran")

        monkeypatch.setattr("claimcast.sim._replicate_block", no_replications)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_replications)
        with pytest.raises(DomainError, match="non-negative seed, got -1"):
            monte_carlo_validate(study, reps=100, seed=-1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected_before_any_replication(self, monkeypatch, workers):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
            theorem="count",
        )

        def no_replications(*args, **kwargs):
            raise AssertionError("replications ran")

        monkeypatch.setattr("claimcast.sim._replicate_block", no_replications)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_replications)
        with pytest.raises(DomainError, match=f"at least one worker, got {workers}"):
            monte_carlo_validate(study, reps=100, seed=1, workers=workers)

    @pytest.mark.slow
    def test_heavy_tail_cost_limit_quantiles(self):
        # Pareto(1.5) sizes at the car-study geometry: the standardized
        # cost's upper quantiles track the stable limit within 10%
        w, t = 1096, 91
        measure = MeanClaimsMeasure(
            -0.8872e-6, 0.1479e-2 - 0.8872e-6 / 2.0, 0.1330, 0.0420, w
        )
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(w, w + t)),
            claims=PoissonClaims(measure),
            rebate=RebateFunction.free_replacement(w),
            horizon=TimeHorizon(w, t, 0, 500),
            theorem="stable_1_2",
            sizes=ParetoSizes(alpha=1.5),
        )
        report = monte_carlo_validate(study, reps=2000, seed=1096, workers=2)
        assert report.ks_distance <= 0.05
        i90 = report.quantile_levels.index(0.9)
        emp, lim = report.empirical_quantiles[i90], report.limit_quantiles[i90]
        assert abs(emp - lim) / abs(lim) <= 0.10

    @pytest.mark.slow
    def test_infinite_mean_cost_limit(self):
        # alpha < 1: centering at n c1 e(n) pairs with the intensity-c1
        # stable law (the published c1^(1/alpha) centering drifts by
        # (c1^(1/alpha) - c1) alpha/(1-alpha); see cost_approx_stable)
        w, t = 1096, 91
        measure = MeanClaimsMeasure(
            -0.8872e-6, 0.1479e-2 - 0.8872e-6 / 2.0, 0.1330, 0.0420, w
        )
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(w, w + t)),
            claims=PoissonClaims(measure),
            rebate=RebateFunction.free_replacement(w),
            horizon=TimeHorizon(w, t, 0, 500),
            theorem="stable_0_1",
            sizes=ParetoSizes(alpha=0.7),
        )
        report = monte_carlo_validate(study, reps=600, seed=1096, workers=2)
        assert report.ks_distance <= 0.07

    @pytest.mark.slow
    def test_engine_infinite_mean_law_fits_raw_costs(self):
        # the law a report publishes at alpha = 0.7, scored on the raw
        # simulated costs as it stands: no recentering, no standardization
        w, t = 1096, 91
        measure = MeanClaimsMeasure(
            -0.8872e-6, 0.1479e-2 - 0.8872e-6 / 2.0, 0.1330, 0.0420, w
        )
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(w, w + t)),
            claims=PoissonClaims(measure),
            rebate=RebateFunction.free_replacement(w),
            horizon=TimeHorizon(w, t, 0, 500),
            theorem="stable_0_1",
            sizes=ParetoSizes(alpha=0.7),
        )
        reps = 1000
        costs = np.array([realized(study, 7, r)[1] for r in range(reps)])
        approx = cost_approx_stable(theoretical_limit(study), 0.7)
        assert _ks_against(approx, costs) < 1.36 / np.sqrt(reps)

    @pytest.mark.slow
    def test_unit_alpha_cost_limit(self):
        # alpha = 1: (S - n c1 log n) / n tends to the intensity-c1 law
        # itself, with no further c1 log c1 shift
        w, t = 1096, 91
        measure = MeanClaimsMeasure(
            -0.8872e-6, 0.1479e-2 - 0.8872e-6 / 2.0, 0.1330, 0.0420, w
        )
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(w, w + t)),
            claims=PoissonClaims(measure),
            rebate=RebateFunction.free_replacement(w),
            horizon=TimeHorizon(w, t, 0, 500),
            theorem="stable_0_1",
            sizes=ParetoSizes(alpha=1.0),
        )
        report = monte_carlo_validate(study, reps=600, seed=1096, workers=2)
        assert report.ks_distance <= 0.07

    @pytest.mark.slow
    def test_count_limit_smoke(self):
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=TimeHorizon(W, T, 0, 600),
            theorem="count",
        )
        report = monte_carlo_validate(study, reps=400, seed=5)
        assert report.ks_distance < 0.12

    def test_unknown_theorem_rejected(self):
        with pytest.raises(DomainError, match="unknown theorem tag 'stable_2_3'"):
            MonteCarloStudy(
                sales=NhppSales(LinearShare(W, W + T)),
                claims=PoissonClaims(paper_shaped_measure(W)),
                rebate=FREE,
                horizon=HORIZON,
                theorem="stable_2_3",
                sizes=ParetoSizes(alpha=1.5),
            )

    @pytest.mark.parametrize(
        "theorem, alpha",
        [("stable_1_2", 0.7), ("stable_1_2", 1.0), ("stable_1_2", 2.0),
         ("stable_0_1", 1.5)],
    )
    def test_stable_study_checks_the_tail_index(self, theorem, alpha):
        with pytest.raises(DomainError, match="alpha"):
            MonteCarloStudy(
                sales=NhppSales(LinearShare(W, W + T)),
                claims=PoissonClaims(paper_shaped_measure(W)),
                rebate=FREE,
                horizon=HORIZON,
                theorem=theorem,
                sizes=ParetoSizes(alpha=alpha),
            )

    @pytest.mark.parametrize(
        "sizes", [ParetoSizes(alpha=3.0), LognormalSizes(0.0, 0.0), None],
        ids=["pareto", "fixed_size", "none"],
    )
    def test_normal_study_requires_lognormal_sizes(self, sizes):
        # the cost is standardized by sqrt(n V), so the size law must state a
        # positive variance; the study fails at construction, before any
        # replication is simulated
        with pytest.raises(DomainError, match="lognormal"):
            MonteCarloStudy(
                sales=NhppSales(LinearShare(W, W + T)),
                claims=PoissonClaims(paper_shaped_measure(W)),
                rebate=FREE,
                horizon=HORIZON,
                theorem="normal",
                sizes=sizes,
            )

    def test_stable_study_requires_pareto(self):
        with pytest.raises(DomainError):
            MonteCarloStudy(
                sales=NhppSales(LinearShare(W, W + T)),
                claims=PoissonClaims(paper_shaped_measure(W)),
                rebate=FREE,
                horizon=HORIZON,
                theorem="stable_1_2",
                sizes=LognormalSizes(),
            )

    @pytest.mark.parametrize(
        "theorem, sizes, rebate",
        [
            ("count", None, FREE),
            ("normal", LognormalSizes(0.3, 0.6), FREE),
            ("prorata", None, RebateFunction.linear(W, unit_price=3.0)),
            ("stable_1_2", ParetoSizes(alpha=1.5, xm=2.0), FREE),
            ("stable_0_1", ParetoSizes(alpha=0.7, xm=2.0), FREE),
            ("stable_0_1", ParetoSizes(alpha=1.0, xm=2.0), FREE),
        ],
        ids=["count", "normal", "prorata", "stable_1_2", "stable_0_1-0.7",
             "stable_0_1-1.0"],
    )
    def test_reference_approximation_closed_forms(self, theorem, sizes, rebate):
        # the standardized limit law of each theorem in closed form; a
        # nonzero fluctuation mean exercises the normal laws' locations
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=rebate,
            horizon=HORIZON,
            theorem=theorem,
            sizes=sizes,
        )
        lp = replace(theoretical_limit(study), fluct_mean=0.3)
        c1, c2, mu, s2 = lp.claims_mean, lp.claims_var, lp.fluct_mean, lp.fluct_var
        stable = None
        if theorem in ("count", "prorata"):
            location, scale = mu, np.sqrt(c2 + s2)
        elif theorem == "normal":
            e, v = sizes.mean, sizes.var
            location, scale = e * mu / np.sqrt(v), np.sqrt(c1 + e**2 / v * (c2 + s2))
        elif theorem == "stable_1_2":
            location, scale = 0.0, c1 ** (1.0 / sizes.alpha)
            stable = params_mean_case(sizes.alpha)
        elif sizes.alpha < 1.0:
            location, scale = 0.0, 1.0
            stable = params_zero_one_case(sizes.alpha, c1)
        else:  # alpha = 1: the intensity-c1 law, no c1 log c1 shift
            location, scale = 0.0, 1.0
            stable = params_eq_one_case(c1)
        got = _limit_law(study, lp)[2]
        close = dict(rel=1e-12, abs=1e-12)
        assert got.location == pytest.approx(location, **close)
        assert got.scale == pytest.approx(scale, **close)
        if stable is None:
            assert got.stable is None
        else:
            for name in ("alpha", "beta", "sigma", "mu"):
                want = getattr(stable, name)
                assert getattr(got.stable, name) == pytest.approx(want, **close)


class TestKsAgainst:
    def test_stable_law_exact_supremum(self):
        approx = CostApproximation(location=1.0, scale=2.0, stable=params_mean_case(1.5))
        sample = 1.0 + 2.0 * make_rng(8).standard_t(2.0, size=50)
        got = _ks_against(approx, sample)
        # brute force: the limit CDF against the empirical CDF just below
        # and at every sample point
        x = np.sort(sample)
        n = len(x)
        want = 0.0
        for v in x:
            cdf = stable_cdf(approx.stable, (v - 1.0) / 2.0)
            below, at = np.sum(x < v) / n, np.sum(x <= v) / n
            want = max(want, abs(cdf - below), abs(cdf - at))
        assert got == pytest.approx(want, abs=1e-15)
        # a 401-level quantile grid only samples the supremum from below
        # (up to the 1e-8 quantile tolerance)
        ps = np.linspace(0.0025, 0.9975, 401)
        grid = approx_quantile(approx, ps)
        grid_ks = np.max(np.abs(np.searchsorted(x, grid, side="right") / n - ps))
        assert got >= grid_ks - 1e-8


class TestSizeLaws:
    def test_lognormal_moments(self):
        law = LognormalSizes(0.3, 0.6)
        rng = make_rng(1)
        x = law.sample(rng, 200_000)
        assert np.mean(x) == pytest.approx(law.mean, rel=0.02)
        assert np.var(x) == pytest.approx(law.var, rel=0.06)

    def test_pareto_tail_and_mean(self):
        law = ParetoSizes(alpha=1.5, xm=2.0)
        rng = make_rng(2)
        x = law.sample(rng, 100_000)
        assert np.min(x) >= 2.0
        assert law.mean == pytest.approx(2.0 * 3.0)
        assert np.mean(np.log(x / 2.0)) == pytest.approx(1.0 / 1.5, rel=0.02)

    @pytest.mark.parametrize(
        "mu_log,sigma_log", [(np.nan, 0.5), (np.inf, 0.5), (0.0, np.nan), (0.0, np.inf),
                             (0.0, -1.0)]
    )
    def test_lognormal_needs_finite_parameters(self, mu_log, sigma_log):
        with pytest.raises(DomainError, match="finite"):
            LognormalSizes(mu_log, sigma_log)

    @pytest.mark.parametrize(
        "alpha,xm", [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0), (1.5, np.nan),
                     (1.5, np.inf), (1.5, -1.0)]
    )
    def test_pareto_needs_finite_positive_parameters(self, alpha, xm):
        with pytest.raises(DomainError, match="alpha"):
            ParetoSizes(alpha, xm)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_pareto_mean_undefined_at_or_below_alpha_one(self, alpha):
        with pytest.raises(DomainError, match="mean undefined for alpha <= 1"):
            ParetoSizes(alpha, 2.0).mean
