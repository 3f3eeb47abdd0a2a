import numpy as np
import pytest

from claimcast.core import ClaimsMeasure, MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.errors import DomainError
from claimcast.sim import (
    LinearShare,
    LognormalSizes,
    MonteCarloStudy,
    NhppSales,
    ParetoSizes,
    PoissonClaims,
    RenewalSales,
    SingleLifetime,
    make_rng,
    monte_carlo_validate,
    realize_cost,
    reference_approximation,
    simulate_claims_measure,
    simulate_sales,
    theoretical_limit,
)

W, T = 200, 40
HORIZON = TimeHorizon(W, T, 0, 300)
FREE = RebateFunction.free_replacement(W)


class TestSimulateSales:
    def test_deterministic_gaps_are_equally_spaced(self):
        h = TimeHorizon(W, T, 0, 1)
        spec = RenewalSales(mean=10.0, var=0.0)
        s = simulate_sales(spec, h, 7)
        gaps = np.diff(s)
        assert np.allclose(gaps, 10.0)
        assert s[0] == pytest.approx(-W + 10.0)
        assert s[-1] <= T

    def test_sales_confined_to_clock(self):
        for spec in (
            RenewalSales(mean=3.0, var=4.0),
            NhppSales(LinearShare(W, W + T)),
        ):
            s = simulate_sales(spec, HORIZON, 11)
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
            s = simulate_sales(spec, HORIZON, seed)
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
            s = simulate_sales(spec, h, make_rng(31, r))
            counts[r] = np.sum((s > lo) & (s <= hi))
        want = h.scale * float(share(np.array(hi)) - share(np.array(lo)))
        se = np.std(counts, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(counts) - want) <= 3.0 * se

    def test_reproducible(self):
        spec = RenewalSales(mean=2.0, var=1.0)
        assert np.array_equal(
            simulate_sales(spec, HORIZON, 5), simulate_sales(spec, HORIZON, 5)
        )


class TestSimulateClaimsMeasure:
    def test_zero_intensity_always_empty(self):
        spec = PoissonClaims(MeanClaimsMeasure(0.0, 0.0, warranty=W))
        for seed in range(20):
            assert len(simulate_claims_measure(spec, seed)) == 0

    def test_constant_density_mean_mass(self):
        c = 2.0 / W
        spec = PoissonClaims(MeanClaimsMeasure(0.0, c, warranty=W))
        rng = make_rng(99)
        totals = [len(spec.sample(rng)) for _ in range(100_000)]
        assert np.mean(totals) == pytest.approx(c * W, rel=0.01)

    def test_atoms_sampled_at_edges(self):
        spec = PoissonClaims(
            MeanClaimsMeasure(0.0, 0.0, atom0=0.5, atomW=0.25, warranty=W)
        )
        rng = make_rng(7)
        zero_mass = 0
        edge_mass = 0
        reps = 20_000
        for _ in range(reps):
            m = spec.sample(rng)
            zero_mass += m.points.count(0.0)
            edge_mass += m.points.count(float(W))
        assert zero_mass / reps == pytest.approx(0.5, rel=0.05)
        assert edge_mass / reps == pytest.approx(0.25, rel=0.05)

    def test_degenerate_lifetime(self):
        spec = SingleLifetime(ppf=lambda u: W / 2.0, warranty=W)
        for seed in range(5):
            assert simulate_claims_measure(spec, seed).points == (W / 2.0,)

    def test_lifetime_beyond_warranty_drops_claim(self):
        spec = SingleLifetime(ppf=lambda u: W + 1.0, warranty=W)
        assert len(simulate_claims_measure(spec, 3)) == 0


def oracle_realize(sales, measures, sizes, rebate, horizon):
    """Independent enumerator over every (sale, claim) pair."""
    o, t, w = horizon.offset, horizon.period, horizon.warranty
    prorata = rebate.kind != "free_replacement"
    count = 0
    cost = 0.0
    next_size = 0
    for j in range(len(sales)):
        pts = list(measures[j].points)
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


class TestRealizeCost:
    def test_no_sales(self):
        assert realize_cost(np.array([]), [], np.array([]), FREE, HORIZON) == (0, 0.0)

    def test_single_claim(self):
        h = TimeHorizon(1096, 91, 0, 1)
        count, cost = realize_cost(
            np.array([0.0]),
            [ClaimsMeasure((5.0,))],
            np.array([10.0]),
            RebateFunction.free_replacement(1096),
            h,
        )
        assert (count, cost) == (1, 10.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        rebates = [FREE, RebateFunction.linear(W, unit_price=7.5)]
        for trial in range(1000):
            k = int(rng.integers(0, 11))
            sales = rng.uniform(-W, T, size=k)
            measures = [
                ClaimsMeasure(tuple(rng.uniform(0, W, size=rng.integers(0, 4))))
                for _ in range(k)
            ]
            sizes = rng.lognormal(1.0, 1.0, size=3 * k + 5)
            rebate = rebates[trial % 2]
            got = realize_cost(sales, measures, sizes, rebate, HORIZON)
            want = oracle_realize(sales, measures, sizes, rebate, HORIZON)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_size_stream_exhaustion(self):
        with pytest.raises(DomainError):
            realize_cost(
                np.array([0.0]),
                [ClaimsMeasure((1.0, 2.0))],
                np.array([5.0]),
                FREE,
                HORIZON,
            )

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            realize_cost(np.array([0.0]), [], None, FREE, HORIZON)


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
        life = MeanClaimsMeasure(0.0, 1.0 / (2 * W), warranty=W)
        study = MonteCarloStudy(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=SingleLifetime(ppf=lambda u: u * 2 * W, warranty=W,
                                  mean_measure=life),
            rebate=RebateFunction.linear(W, unit_price=3.0),
            horizon=HORIZON,
            theorem="prorata",
        )
        lp = theoretical_limit(study)
        assert 0.0 < lp.claims_var < lp.claims_mean


class TestMonteCarloValidate:
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
        # (c1^(1/alpha) - c1) alpha/(1-alpha); see the simulator notes)
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

    def test_reference_approximation_kinds(self):
        base = dict(
            sales=NhppSales(LinearShare(W, W + T)),
            claims=PoissonClaims(paper_shaped_measure(W)),
            rebate=FREE,
            horizon=HORIZON,
        )
        normal = reference_approximation(
            MonteCarloStudy(theorem="normal", sizes=LognormalSizes(), **base)
        )
        assert normal.kind == "normal"
        stable = reference_approximation(
            MonteCarloStudy(
                theorem="stable_1_2", sizes=ParetoSizes(alpha=1.5), **base
            )
        )
        assert stable.kind == "stable"
        assert stable.stable.alpha == 1.5


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

    def test_empirical_bootstrap_resamples_data(self):
        from claimcast.sim import EmpiricalSizes

        law = EmpiricalSizes(data=(1.0, 2.0, 3.0))
        rng = make_rng(3)
        x = law.sample(rng, 1000)
        assert set(np.unique(x)) <= {1.0, 2.0, 3.0}
