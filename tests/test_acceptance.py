"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line, or rely
on the captured output pytest shows for failures.  Monte Carlo criteria use
the pre-committed seed 1096 (the warranty length) and never scan seeds.
"""

import functools
import itertools
import operator
import time

import numpy as np
import pytest
from scipy import special

from claimcast.claims import moment_grids
from claimcast.core import (
    MeanClaimsMeasure,
    RebateFunction,
    TimeHorizon,
)
from claimcast.engine import (
    LimitParams,
    approx_cdf,
    approx_quantile,
    cost_approx_normal,
    cost_approx_stable,
    extremeness,
    rate_constants,
)
from claimcast.sales import BassParams, fit_bass
from claimcast.sim import (
    LinearShare,
    MonteCarloStudy,
    NhppSales,
    LognormalSizes,
    PoissonClaims,
    SingleLifetime,
    monte_carlo_validate,
    realize_cost,
)
from claimcast.stable import StableParams, params_mean_case, stable_cdf, stable_quantile
from claimcast.tails import qq_tail_index
from claimcast.claims import fit_mean_measure

W, T, N = 1096, 91, 34807
MC_SEED = 1096  # pre-committed: the warranty length; not tuned
MC_WORKERS = 2

E_SIZE, V_SIZE = 47.53, 18273.14
ALPHA_HAT = 1.52

LIMITS = {
    0: LimitParams(0.0614, 0.0887, 1.0210, 1.5568, TimeHorizon(W, T, 0, N)),
    T: LimitParams(0.0540, 0.0818, 0.8817, 0.9712, TimeHorizon(W, T, T, N)),
}

NORMAL_COLUMN = {
    0: {
        0.50: 110_694.91,
        0.75: 119_449.01,
        0.80: 121_618.18,
        0.85: 124_146.62,
        0.90: 127_327.97,
        0.95: 132_043.22,
        0.99: 140_888.23,
    },
    T: {
        0.50: 97_219.87,
        0.75: 104_532.99,
        0.80: 106_345.11,
        0.85: 108_457.35,
        0.90: 111_115.03,
        0.95: 115_054.12,
        0.99: 122_443.19,
    },
}

STABLE_COLUMN = {
    0: {
        0.50: 101_448.27,
        0.75: 101_791.20,
        0.80: 101_897.93,
        0.85: 102_040.29,
        0.90: 102_258.94,
        0.95: 102_723.28,
        0.99: 104_857.40,
    },
    T: {
        0.50: 89_224.58,
        0.75: 89_539.76,
        0.80: 89_637.85,
        0.85: 89_768.68,
        0.90: 89_969.64,
        0.95: 90_396.39,
        0.99: 92_357.76,
    },
}


def emit(number, ok, detail):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def paper_mean_measure():
    return MeanClaimsMeasure(
        slope=-0.8872e-6,
        intercept=0.1479e-2 - 0.8872e-6 / 2.0,
        atom0=0.1330,
        atomW=0.0420,
        warranty=W,
    )


def test_criterion_01_normal_quantile_regression():
    t0 = time.perf_counter()
    worst = 0.0
    for offset, column in NORMAL_COLUMN.items():
        approx = cost_approx_normal(LIMITS[offset], E_SIZE, V_SIZE)
        for p, want in column.items():
            got = approx_quantile(approx, p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    emit(1, ok, f"normal column worst rel err {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 1e-3
    assert elapsed < 1.0


def test_criterion_02_stable_quantile_regression():
    t0 = time.perf_counter()
    worst = 0.0
    for offset, column in STABLE_COLUMN.items():
        approx = cost_approx_stable(LIMITS[offset], ALPHA_HAT, E_SIZE)
        for p, want in column.items():
            got = approx_quantile(approx, p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 5.0
    emit(2, ok, f"stable column worst rel err {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 5e-3
    assert elapsed < 5.0


def test_criterion_03_stable_scale_closed_form():
    sigma = params_mean_case(1.52).sigma
    ok = abs(sigma - 1.8688) <= 5e-4
    emit(3, ok, f"sigma(1.52) = {sigma:.5f} vs 1.8688")
    assert sigma == pytest.approx(1.8688, abs=5e-4)


def test_criterion_04_sanity_check_arithmetic():
    checks = []
    for u, want in ((0.5381, 0.9238), (0.0029, 0.0058)):
        got = extremeness(u)
        checks.append((f"extremeness({u})", got, want, 1e-12))

    table5 = []
    a_norm0 = cost_approx_normal(LIMITS[0], E_SIZE, V_SIZE)
    table5.append(("normal cdf [0,T]", approx_cdf(a_norm0, 148_180.60), 0.9981))
    a_norm1 = cost_approx_normal(LIMITS[T], E_SIZE, V_SIZE)
    table5.append(("normal cdf [T,2T]", approx_cdf(a_norm1, 98_992.90), 0.5649))
    a_st0 = cost_approx_stable(LIMITS[0], ALPHA_HAT, E_SIZE)
    table5.append(("stable cdf [0,T]", approx_cdf(a_st0, 148_180.60), 0.9998))
    a_st1 = cost_approx_stable(LIMITS[T], ALPHA_HAT, E_SIZE)
    table5.append(("stable cdf [T,2T]", approx_cdf(a_st1, 98_992.90), 0.9983))
    for name, got, want in table5:
        checks.append((name, got, want, 2e-3))

    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = "; ".join(
        f"{name}={got:.4f} (want {want}, err {abs(got - want):.4f})"
        for name, got, want, _ in checks
    )
    emit(4, ok, detail)
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, (
            f"{name}: {got:.5f} vs {want} exceeds {tol}"
            " (see the README paragraph on the two failing acceptance checks:"
            " the mid-distribution entry is not reproducible to 0.002 from"
            " inputs rounded at 4 decimals: over their rounding box it spans"
            " [0.56402, 0.57083], as"
            " test_criterion_04_rounding_box_holds_the_published_value computes)"
        )


def test_criterion_04_rounding_box_holds_the_published_value():
    """The [T, 2T] normal CDF at 98 992.90 over every rounding of its inputs.

    The published inputs are rounded: c1, c2, mu and sigma^2 to 4 decimals,
    E and V to 2.  Moving each by minus, none and plus half its last digit
    (3^6 combinations) moves the CDF over [0.56402, 0.57083], which holds
    the published 0.5649 although the unmoved inputs give 0.5674, 0.0025
    from it: criterion 4's 2e-3 cannot separate the two.
    """
    base = LIMITS[T]
    rounded = (base.claims_mean, base.claims_var, base.fluct_mean, base.fluct_var)
    values = []
    for moves in itertools.product((-5e-5, 0.0, 5e-5), repeat=4):
        limits = LimitParams(*(x + d for x, d in zip(rounded, moves)), base.horizon)
        for e, v in itertools.product((-5e-3, 0.0, 5e-3), repeat=2):
            approx = cost_approx_normal(limits, E_SIZE + e, V_SIZE + v)
            values.append(approx_cdf(approx, 98_992.90))
    low, high = min(values), max(values)
    emit(4, low <= 0.5649 <= high, f"rounding box [{low:.5f}, {high:.5f}] holds 0.5649")
    assert len(values) == 3**6
    assert low == pytest.approx(0.56402, abs=1e-5)
    assert high == pytest.approx(0.57083, abs=1e-5)
    assert low <= 0.5649 <= high


def test_criterion_05_stable_numerics_oracle():
    t0 = time.perf_counter()
    # Cauchy closed form on a 100-point grid
    cauchy = StableParams(1.0, 0.0, 1.0, 0.0)
    xs = np.linspace(-40.0, 40.0, 100)
    cauchy_err = float(
        np.max(np.abs(stable_cdf(cauchy, xs) - (0.5 + np.arctan(xs) / np.pi)))
    )
    # one-sided law: S1(1/2, 1, sigma, mu) has cdf erfc(sqrt(sigma/(2(x-mu))))
    levy = StableParams(0.5, 1.0, 2.0, 3.0)
    lx = 3.0 + 2.0 * np.array([1e-2, 0.1, 0.5, 1.0, 4.0, 30.0, 900.0])
    levy_err = float(
        np.max(
            np.abs(
                stable_cdf(levy, lx)
                - special.erfc(np.sqrt(2.0 / (2.0 * (lx - 3.0))))
            )
        )
    )
    # quantile( cdf(x) ) round trips
    rt_err = 0.0
    for alpha in (0.6, 1.0, 1.52, 1.9):
        for beta in (0.0, 1.0):
            params = StableParams(alpha, beta, 1.0, 0.0)
            for x in np.linspace(-4.0, 10.0, 8):
                c = stable_cdf(params, float(x))
                if 1e-4 < c < 1.0 - 1e-4:
                    rt_err = max(
                        rt_err, abs(stable_quantile(params, c) - float(x))
                    )
    elapsed = time.perf_counter() - t0
    ok = cauchy_err <= 1e-8 and levy_err <= 1e-6 and rt_err <= 1e-6 and elapsed < 10.0
    emit(
        5,
        ok,
        f"cauchy {cauchy_err:.1e}, one-sided {levy_err:.1e}, "
        f"round trip {rt_err:.1e} in {elapsed:.1f}s",
    )
    assert cauchy_err <= 1e-8
    assert levy_err <= 1e-6
    assert rt_err <= 1e-6
    assert elapsed < 10.0


def _poisson_sales_base(n_scale):
    return dict(
        sales=NhppSales(LinearShare(W, W + T)),
        claims=PoissonClaims(paper_mean_measure()),
        rebate=RebateFunction.free_replacement(W),
        horizon=TimeHorizon(W, T, 0, n_scale),
    )


def test_criterion_06_monte_carlo_cost_and_count_limits():
    t0 = time.perf_counter()
    base = _poisson_sales_base(500)
    cost_report = monte_carlo_validate(
        MonteCarloStudy(theorem="normal", sizes=LognormalSizes(0.0, 0.5), **base),
        reps=2000,
        seed=MC_SEED,
        workers=MC_WORKERS,
    )
    count_report = monte_carlo_validate(
        MonteCarloStudy(theorem="count", **base),
        reps=2000,
        seed=MC_SEED,
        workers=MC_WORKERS,
    )
    elapsed = time.perf_counter() - t0
    ok = (
        cost_report.ks_distance <= 0.05
        and count_report.ks_distance <= 0.05
        and elapsed < 60.0
    )
    emit(
        6,
        ok,
        f"KS cost {cost_report.ks_distance:.4f}, "
        f"KS count {count_report.ks_distance:.4f} "
        f"(2000 reps, seed {MC_SEED}) in {elapsed:.0f}s",
    )
    assert elapsed < 60.0
    assert cost_report.ks_distance <= 0.05
    assert count_report.ks_distance <= 0.05, (
        f"count KS {count_report.ks_distance:.4f} > 0.05: the integer count"
        " at n=500 carries point masses ~0.054, so the exact law already"
        " sits at KS 0.038 from the limit and 2000 replications cannot"
        " reliably resolve that against 0.05 (see the README paragraph on"
        " the two failing acceptance checks)"
    )


def test_criterion_07_monte_carlo_prorata_limit():
    t0 = time.perf_counter()
    lifetime_measure = MeanClaimsMeasure(0.0, 1.0 / (2.0 * W), warranty=W)
    study = MonteCarloStudy(
        sales=NhppSales(LinearShare(W, W + T)),
        claims=SingleLifetime(
            ppf=functools.partial(operator.mul, 2.0 * W), mean_measure=lifetime_measure
        ),
        rebate=RebateFunction.linear(W, unit_price=100.0),
        horizon=TimeHorizon(W, T, 0, 500),
        theorem="prorata",
    )
    report = monte_carlo_validate(study, reps=2000, seed=MC_SEED, workers=MC_WORKERS)
    elapsed = time.perf_counter() - t0
    ok = report.ks_distance <= 0.05
    emit(7, ok, f"KS prorata {report.ks_distance:.4f} in {elapsed:.0f}s")
    assert report.ks_distance <= 0.05


def test_criterion_08_estimator_recovery():
    # Bass curve from noiseless daily increments
    truth = BassParams(p=4.0149e-4, q=1.6738e-2 - 4.0149e-4, n=N, origin=-1116)
    days = np.arange(-1115, 1)
    counts = truth.n * (truth.share(days) - truth.share(days - 1))
    fit = fit_bass(counts, truth.n, first_day=-1115)
    bass_err = max(
        abs(fit.p - truth.p) / truth.p,
        abs((fit.p + fit.q) - (truth.p + truth.q)) / (truth.p + truth.q),
    )

    # QQ tail index across 100 fixed seeds
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sample = rng.uniform(size=50_000) ** (-1.0 / 1.5)
        if 1.4 <= qq_tail_index(sample, 5000) <= 1.6:
            hits += 1

    # mean-measure line from noiseless bins
    a, b = -0.9e-6, 1.6e-3
    i = np.arange(0, W + 1, dtype=float)
    bins = a * i + b - a / 2.0
    bins[0], bins[W] = 0.2, 0.05
    fit_m = fit_mean_measure(bins)
    line_err = max(abs(fit_m.slope - a) / abs(a), abs(fit_m.intercept - b) / b)

    ok = bass_err <= 1e-6 and hits >= 95 and line_err <= 1e-12
    emit(
        8,
        ok,
        f"bass rel err {bass_err:.1e}, tail hits {hits}/100, "
        f"line rel err {line_err:.1e}",
    )
    assert bass_err <= 1e-6
    assert hits >= 95
    assert line_err <= 1e-12


def test_criterion_09_realization_oracle_equivalence():
    horizon = TimeHorizon(W, T, 0, 100)
    rebates = [
        RebateFunction.free_replacement(W),
        RebateFunction.linear(W, unit_price=3.0),
    ]
    rng = np.random.default_rng(909)
    mismatches = 0
    worst_gap = 0.0
    for trial in range(1000):
        k = int(rng.integers(0, 11))
        sales = rng.uniform(-W, T, size=k)
        per_item = [
            sorted(rng.uniform(0, W, size=rng.integers(0, 4))) for _ in range(k)
        ]
        sizes = rng.lognormal(2.0, 1.0, size=3 * k + 4)
        rebate = rebates[trial % 2]
        item = np.repeat(np.arange(k), [len(pts) for pts in per_item])
        age = np.array([c for pts in per_item for c in pts], dtype=float)
        count, cost = realize_cost(sales, item, age, sizes, rebate, horizon)

        # independent enumerator over every (sale, claim) pair
        want_count, want_cost, cursor = 0, 0.0, 0
        for j in range(k):
            pts = per_item[j]
            if rebate.kind != "free_replacement":
                pts = pts[:1]
            for c in pts:
                if 0.0 <= c <= W and 0.0 <= sales[j] + c <= T:
                    want_count += 1
                    if rebate.kind == "free_replacement":
                        want_cost += float(sizes[cursor])
                        cursor += 1
                    else:
                        want_cost += rebate.unit_price * float(rebate(c))
        if count != want_count:
            mismatches += 1
        worst_gap = max(worst_gap, abs(cost - want_cost))
    ok = mismatches == 0 and worst_gap <= 1e-9
    emit(9, ok, f"{mismatches} count mismatches, worst cost gap {worst_gap:.1e}")
    assert mismatches == 0
    assert worst_gap <= 1e-9


def test_criterion_10_trapezoid_exactness_on_constants():
    kappa = 0.8251
    horizon = TimeHorizon(W, T, 0, 50)
    curve = BassParams(p=3e-4, q=1.4e-2, n=50, origin=-W - 30)

    class FlatGrids:
        days = horizon.sale_days
        mean = np.full(W + T + 1, kappa)
        var = np.full(W + T + 1, 0.5 * kappa)

    grids = FlatGrids()
    c1, c2 = rate_constants(grids.mean, grids.var, curve.share(grids.days))
    span = curve.share(T) - curve.share(-W)
    err = max(abs(c1 - kappa * span), abs(c2 - 0.5 * kappa * span))
    ok = err <= 1e-12
    emit(10, ok, f"constant-grid quadrature abs err {err:.1e}")
    assert err <= 1e-12
