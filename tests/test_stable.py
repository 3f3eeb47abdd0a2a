import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq

import claimcast.stable as stable_mod
from claimcast import _quadrature
from claimcast.errors import DomainError, NumericalError
from claimcast.sim import make_rng
from claimcast.stable import (
    StableParams,
    _brent_steps,
    params_eq_one_case,
    params_mean_case,
    params_zero_one_case,
    stable_cdf,
    stable_quantile,
)


def sample_stable(params: StableParams, size: int, rng: np.random.Generator):
    """Polar-transform sampler for S1 stable laws (the cross-check oracle)."""
    a, b = params.alpha, params.beta
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = rng.exponential(size=size)
    if abs(a - 1.0) < 1e-12:
        half_pi = np.pi / 2.0
        x = (
            (half_pi + b * u) * np.tan(u)
            - b * np.log((half_pi * e * np.cos(u)) / (half_pi + b * u))
        ) * (2.0 / np.pi)
        # scaling a standard alpha = 1 law shifts location by (2/pi) b s log s
        return (
            params.sigma * x
            + params.mu
            + (2.0 / np.pi) * b * params.sigma * np.log(params.sigma)
        )
    shift = np.arctan(b * np.tan(np.pi * a / 2.0)) / a
    scale = (1.0 + b**2 * np.tan(np.pi * a / 2.0) ** 2) ** (1.0 / (2.0 * a))
    x = (
        scale
        * np.sin(a * (u + shift))
        / np.cos(u) ** (1.0 / a)
        * (np.cos(u - a * (u + shift)) / e) ** ((1.0 - a) / a)
    )
    return params.sigma * x + params.mu


class TestParamsMeanCase:
    def test_car_study_sigma(self):
        p = params_mean_case(1.52)
        assert p.sigma == pytest.approx(1.8688, abs=5e-5)
        assert p.mu == 0.0
        assert p.beta == 1.0

    def test_alpha_three_halves_closed_form(self):
        # -Gamma(0.5)/0.5 * cos(0.75 pi) = sqrt(pi) * sqrt(2) = sqrt(2 pi),
        # so sigma = (2 pi)^(1/3)
        p = params_mean_case(1.5)
        assert p.sigma == pytest.approx((2.0 * np.pi) ** (1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.5])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            params_mean_case(alpha)

    def test_sigma_positive_across_range(self):
        for alpha in np.linspace(1.01, 1.99, 25):
            assert params_mean_case(float(alpha)).sigma > 0.0


class TestParamsZeroOneCase:
    def test_half_alpha_closed_form(self):
        # Gamma(0.5) cos(pi/4) = sqrt(pi) sqrt(2)/2 = sqrt(pi/2); squared = pi/2
        p = params_zero_one_case(0.5, 1.0)
        assert p.mu == pytest.approx(-1.0)
        assert p.sigma == pytest.approx(np.pi / 2.0, rel=1e-12)
        assert p.beta == 1.0

    def test_intensity_scaling_homogeneity(self):
        alpha = 0.7
        base = params_zero_one_case(alpha, 1.3)
        scaled = params_zero_one_case(alpha, 5.0 * 1.3)
        assert scaled.sigma == pytest.approx(
            5.0 ** (1.0 / alpha) * base.sigma, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            params_zero_one_case(1.2, 1.0)
        with pytest.raises(DomainError):
            params_zero_one_case(0.5, 0.0)


class TestParamsEqOneCase:
    def test_sigma_linear_in_intensity(self):
        assert params_eq_one_case(2.0).sigma == pytest.approx(np.pi)

    def test_location_integral_two_independent_schemes(self):
        # scheme 1: integrate by parts, tail = sin(1) - Ci(1)
        head = quad(lambda z: (np.sin(z) - z) / z**2, 0.0, 1.0, epsabs=1e-14)[0]
        by_parts = head + np.sin(1.0) - special.sici(1.0)[1]
        # scheme 2: power series of (sin z - z)/z^2 on [0, 1] plus the same
        # closed-form tail computed from scratch
        k = np.arange(1, 30)
        series = np.sum((-1.0) ** k / ((2 * k) * special.factorial(2 * k + 1)))
        tail = np.sin(1.0) - special.sici(1.0)[1]
        assert by_parts == pytest.approx(series + tail, abs=1e-12)
        got = params_eq_one_case(1.0).mu
        assert got == pytest.approx(by_parts, abs=1e-10)
        # the integral happens to equal 1 - Euler-Mascheroni; keep as anchor
        assert got == pytest.approx(1.0 - np.euler_gamma, abs=1e-9)
        assert got == pytest.approx(0.4227843350984672, abs=1e-9)

    def test_location_linear_in_intensity(self):
        assert params_eq_one_case(3.0).mu == pytest.approx(
            3.0 * params_eq_one_case(1.0).mu
        )

    @pytest.mark.parametrize("c1", [0.0, -1.0])
    def test_nonpositive_intensity_rejected(self, c1):
        with pytest.raises(DomainError, match="c1 must be positive"):
            params_eq_one_case(c1)


class TestStableParamsValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            StableParams(2.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            StableParams(1.5, 1.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            StableParams(1.5, 0.0, 0.0, 0.0)


class TestCauchyClosedForm:
    def test_cdf_on_grid(self):
        p = StableParams(1.0, 0.0, 1.0, 0.0)
        xs = np.linspace(-40.0, 40.0, 100)
        want = 0.5 + np.arctan(xs) / np.pi
        got = stable_cdf(p, xs)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_scaled_shifted(self):
        p = StableParams(1.0, 0.0, 2.5, -3.0)
        xs = np.linspace(-30.0, 30.0, 41)
        want = 0.5 + np.arctan((xs + 3.0) / 2.5) / np.pi
        assert np.max(np.abs(stable_cdf(p, xs) - want)) < 1e-8

    def test_quantile_closed_form(self):
        p = StableParams(1.0, 0.0, 1.0, 0.0)
        assert stable_quantile(p, 0.75) == pytest.approx(1.0, abs=1e-9)
        assert stable_quantile(p, 0.5) == pytest.approx(0.0, abs=1e-9)
        p2 = StableParams(1.0, 0.0, 2.0, 5.0)
        for lvl in (0.1, 0.3, 0.9):
            want = 5.0 + 2.0 * np.tan(np.pi * (lvl - 0.5))
            assert stable_quantile(p2, lvl) == pytest.approx(want, abs=1e-8)


class TestLevyClosedForm:
    # S1(alpha=1/2, beta=1, sigma, mu) is the one-sided law with scale sigma
    # shifted to start at mu: cdf(x) = erfc(sqrt(sigma / (2 (x - mu))))
    @pytest.mark.parametrize("sigma,mu", [(1.0, 0.0), (2.0, 3.0), (0.5, -1.0)])
    def test_cdf_matches(self, sigma, mu):
        p = StableParams(0.5, 1.0, sigma, mu)
        xs = mu + sigma * np.array([1e-3, 0.05, 0.3, 1.0, 5.0, 40.0, 1e3, 1e5])
        want = special.erfc(np.sqrt(sigma / (2.0 * (xs - mu))))
        got = stable_cdf(p, xs)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_support_edge(self):
        p = StableParams(0.5, 1.0, 2.0, 3.0)
        assert stable_cdf(p, 3.0) < 1e-8
        assert stable_cdf(p, 2.0) == 0.0
        assert stable_cdf(p, -50.0) == 0.0

    def test_mirrored_support(self):
        p = StableParams(0.5, -1.0, 2.0, 3.0)
        assert stable_cdf(p, 3.0) > 1.0 - 1e-8
        assert stable_cdf(p, 50.0) == 1.0


class TestNanPoints:
    @pytest.mark.parametrize(
        "params",
        [params_mean_case(1.5), params_zero_one_case(0.6, 1.0), params_eq_one_case(0.5)],
    )
    def test_nan_gives_nan(self, params):
        assert math.isnan(stable_cdf(params, math.nan))

    def test_nan_among_other_points(self):
        params = params_mean_case(1.5)
        got = stable_cdf(params, np.array([np.nan, 0.0, np.inf, -np.inf]))
        assert math.isnan(got[0])
        assert got[1] == stable_cdf(params, 0.0)
        assert got[2:].tolist() == [1.0, 0.0]


class TestAgainstScipy:
    """scipy's independent stable implementation as an extra oracle."""

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1.52, 1.0), (1.9, 0.0), (0.6, 1.0), (1.0, 1.0), (0.8, -0.4), (1.3, 0.5)],
    )
    def test_cdf_grid(self, alpha, beta):
        from scipy.stats import levy_stable

        old = levy_stable.parameterization
        try:
            levy_stable.parameterization = "S1"
            p = StableParams(alpha, beta, 1.3, 0.4)
            xs = np.array([-8.0, -2.0, -0.5, 0.0, 0.4, 1.0, 3.0, 9.0, 60.0])
            want = levy_stable.cdf(xs, alpha, beta, loc=0.4, scale=1.3)
            got = stable_cdf(p, xs)
            assert np.max(np.abs(got - want)) < 5e-8
        finally:
            levy_stable.parameterization = old

    def test_s0_location_conversion(self):
        # same law expressed in S0 coordinates: mu0 = mu1 + beta sigma tan(pi a/2)
        from scipy.stats import levy_stable

        alpha, beta, sigma, mu1 = 1.52, 1.0, 1.8688, 0.7
        mu0 = mu1 + beta * sigma * np.tan(np.pi * alpha / 2.0)
        old = levy_stable.parameterization
        try:
            levy_stable.parameterization = "S0"
            want = levy_stable.cdf([0.0, 2.0, 10.0], alpha, beta, loc=mu0, scale=sigma)
        finally:
            levy_stable.parameterization = old
        got = stable_cdf(StableParams(alpha, beta, sigma, mu1), [0.0, 2.0, 10.0])
        assert np.max(np.abs(got - want)) < 5e-8


class TestCdfShape:
    @pytest.mark.parametrize(
        "params",
        [
            StableParams(1.52, 1.0, 1.8688, 0.0),
            StableParams(0.6, 1.0, 1.0, 0.0),
            StableParams(1.9, 0.0, 1.0, 0.0),
        ],
    )
    def test_monotone_and_limits(self, params):
        xs = np.linspace(-60.0, 120.0, 200)
        cdf = stable_cdf(params, xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] < 0.05
        assert cdf[-1] > 0.9
        assert stable_cdf(params, -1e9) < 1e-8
        assert stable_cdf(params, 1e12) > 1.0 - 1e-6


class TestQuantileRoundTrip:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.52, 1.9])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_quantile_cdf_round_trip(self, alpha, beta):
        params = StableParams(alpha, beta, 1.0, 0.0)
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            q = stable_quantile(params, p)
            assert stable_cdf(params, q) == pytest.approx(p, abs=1e-6)

    def test_cdf_quantile_round_trip_on_x_grid(self):
        params = StableParams(1.52, 1.0, 1.8688, 0.0)
        for x in np.linspace(-4.0, 18.0, 9):
            c = stable_cdf(params, x)
            if 1e-8 < c < 1.0 - 1e-8:
                assert stable_quantile(params, c) == pytest.approx(x, abs=1e-6)

    def test_quantile_monotone(self):
        params = StableParams(0.8, 1.0, 2.0, 1.0)
        qs = [stable_quantile(params, p) for p in np.linspace(0.05, 0.95, 10)]
        assert np.all(np.diff(qs) > 0.0)

    def test_left_skewed_quantiles_stay_below_the_support_edge(self):
        # alpha < 1 and beta = -1: the law lives on (-inf, mu], so the
        # quantile search is bracketed from above at mu
        params = StableParams(0.5, -1.0, 2.0, 3.0)
        levels = np.array([1e-6, 0.01, 0.25, 0.5, 0.9, 0.999999])
        q = stable_quantile(params, levels)
        assert np.all(q <= params.mu)
        assert np.all(np.diff(q) > 0.0)
        assert np.max(np.abs(stable_cdf(params, q) - levels)) <= 1e-8

    def test_level_domain(self):
        params = StableParams(1.5, 0.0, 1.0, 0.0)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                stable_quantile(params, bad)


class TestSamplerCrossCheck:
    """The polar-transform sampler and the quadrature CDF must agree."""

    @pytest.mark.parametrize(
        "params",
        [
            StableParams(1.52, 1.0, 1.8688, 0.0),
            StableParams(0.7, 1.0, 1.0, -0.5),
            StableParams(1.0, 1.0, np.pi / 2.0, 0.42),
        ],
    )
    def test_ks_within_one_percent(self, params):
        rng = make_rng(4242, int(1000 * params.alpha))
        draws = np.sort(sample_stable(params, 1_000_000, rng))
        ps = np.linspace(0.005, 0.995, 199)
        grid = np.array([stable_quantile(params, p) for p in ps])
        emp = np.searchsorted(draws, grid, side="right") / len(draws)
        assert np.max(np.abs(emp - ps)) < 0.01


class TestQuadrature:
    @pytest.mark.parametrize(
        "x,want",
        [
            (7557.12, 0.9999984778217145),
            (30228.48, 0.9999998097277143),
            (120913.92, 0.9999999762159643),
        ],
    )
    def test_far_tail_on_the_bracket_expansion_path(self, x, want):
        # where the quantile search expands its bracket; the transition
        # there is too narrow for the fixed nodes without bisection
        assert stable_cdf(params_mean_case(1.5), x) == pytest.approx(want, abs=5e-8)

    @pytest.mark.parametrize("n", [16, 32])
    def test_gauss_legendre_rule(self, n):
        nodes, weights = _quadrature.gauss_legendre(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - want_nodes)) < 1e-14
        assert np.max(np.abs(weights - want_weights)) < 1e-14

    def test_error_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(stable_mod, "_CDF_ERROR_BUDGET", 0.0)
        with pytest.raises(NumericalError, match="error estimate"):
            stable_cdf(params_mean_case(1.5), 1.0)
        with pytest.raises(NumericalError, match="error estimate"):
            stable_cdf(params_mean_case(1.5), np.array([-3.0, 1.0, 40.0]))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@st.composite
def cdf_batches(draw):
    """(law, points) with points on both sides of zeta, at zeta, past a
    support edge and repeated, in batches around the chunk size."""
    guard = stable_mod.ALPHA_ONE_GUARD
    alpha = draw(st.one_of(st.floats(0.05, 1.95), st.floats(1.0 - 0.9 * guard, 1.0 + 0.9 * guard)))
    beta = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
    params = StableParams(alpha, beta, draw(st.floats(0.1, 10.0)), draw(st.floats(-5.0, 5.0)))
    mu0 = stable_mod._s1_to_s0_location(alpha, beta, params.sigma, params.mu)
    zeta = 0.0 if abs(alpha - 1.0) < guard else -beta * np.tan(np.pi * alpha / 2.0)
    marked = [
        float(mu0 + params.sigma * zeta),  # at zeta (exactly so for beta = 0)
        params.mu,  # the support edge of a totally skewed law with alpha < 1
        params.mu - params.sigma,  # beyond it
        params.mu + params.sigma,
    ]
    spread = params.sigma * 10.0 ** draw(st.floats(-3.0, 6.0))
    point = st.one_of(
        st.sampled_from(marked),
        st.floats(params.mu - spread, params.mu + spread),
    )
    chunk = _quadrature.CHUNK
    size = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]))
    xs = draw(st.lists(point, min_size=size, max_size=size))
    if xs:
        xs[-1] = xs[0]  # a repeat
    return params, np.array(xs, dtype=float)


class TestBatchedCdf:
    @settings(
        derandomize=True,
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cdf_batches())
    @example((StableParams(0.5, 0.0, 1.0, 0.0), np.zeros(3)))  # at zeta
    @example((StableParams(0.6, 1.0, 1.0, 2.0), np.array([2.0, 1.0, -1e9, 2.5])))
    @example((StableParams(0.6, -1.0, 1.0, 2.0), np.array([2.0, 3.0, 1e9, 1.5])))
    def test_array_bit_identical_to_scalar_calls(self, batch):
        params, xs = batch
        got = stable_cdf(params, xs)
        assert got.shape == xs.shape
        assert _bits(got) == _bits([stable_cdf(params, float(x)) for x in xs])

    def test_memory_bounded_by_the_chunk(self):
        params = params_mean_case(1.5)
        xs = make_rng(7, 0).standard_cauchy(1000) * 10.0
        stable_cdf(params, xs[:2])  # per-law set-up outside the measurement
        tracemalloc.start()
        try:
            stable_cdf(params, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one point alone peaks near 0.09 MB; all 1000 at once would take
        # about 20 MB
        assert peak < 1_000_000


class TestBatchedQuantiles:
    @pytest.mark.parametrize(
        "params,levels",
        [
            (params_mean_case(1.52), np.linspace(0.0025, 0.9975, 401)),
            (params_zero_one_case(0.6, 0.3), np.linspace(0.01, 0.99, 50)),
            (params_eq_one_case(0.5), np.linspace(0.01, 0.99, 50)),
            (StableParams(1.9, -0.5, 2.0, 3.0), np.linspace(0.01, 0.99, 50)),
            # unsorted, with repeats
            (params_mean_case(1.2), np.array([0.9, 0.1, 0.5, 0.9, 0.01, 0.5, 0.99])),
        ],
    )
    def test_array_matches_scalar_calls(self, params, levels):
        got = stable_quantile(params, levels)
        want = np.array([stable_quantile(params, float(p)) for p in levels])
        assert got.shape == levels.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_shape_and_repeated_levels(self):
        params = params_mean_case(1.52)
        levels = np.array([[0.9, 0.1], [0.5, 0.9]])
        got = stable_quantile(params, levels)
        assert got.shape == (2, 2)
        assert got[0, 0] == got[1, 1]
        assert got[0, 1] == stable_quantile(params, 0.1)
        assert stable_quantile(params, np.array([])).shape == (0,)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            stable_quantile(params_mean_case(1.52), np.array([0.2, 1.0]))

    def test_levels_searched_in_lockstep(self, monkeypatch):
        params = params_mean_case(1.5)
        levels = np.array([0.005, 0.025, 0.1, 0.5, 0.9, 0.975, 0.995])
        calls = []
        kernel = stable_mod._cdf

        def counting(law, x):
            calls.append(x.size)
            return kernel(law, x)

        monkeypatch.setattr(stable_mod, "_cdf", counting)
        stable_quantile(params, levels)
        together = len(calls)
        alone = []
        for p in levels:
            calls.clear()
            stable_quantile(params, p)
            alone.append(len(calls))
        # one kernel call per round for all levels, not one per level per step
        assert together <= max(alone) < sum(alone)

    @pytest.mark.parametrize(
        "levels, split_bracket_rounds",
        [((0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99), 12),
         ((0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99), 13)],
        ids=["report", "validate_stable"],
    )
    def test_starting_bracket_in_one_round(self, monkeypatch, levels, split_bracket_rounds):
        # the law both report windows and validate_stable invert; the
        # rounds counted when each bracket end took a round of its own
        params = params_mean_case(1.5)
        calls = []
        kernel = stable_mod._cdf

        def recording(law, x):
            calls.append(x.tolist())
            return kernel(law, x)

        monkeypatch.setattr(stable_mod, "_cdf", recording)
        got = stable_quantile(params, np.array(levels))
        assert calls[0] == [-4.0 * params.sigma, 4.0 * params.sigma]
        assert len(calls) == split_bracket_rounds - 1
        monkeypatch.undo()
        assert got.tobytes() == np.array([stable_quantile(params, p) for p in levels]).tobytes()


def _brentq(f, xa, xb, xtol, rtol=8.9e-16, maxiter=100):
    """Root of f on [xa, xb]: ``_brent_steps`` with f evaluated at each step."""
    steps = _brent_steps(xa, xb, f(xa), f(xb), xtol, rtol, maxiter)
    try:
        (x,) = next(steps)
        while True:
            (x,) = steps.send([f(x)])
    except StopIteration as done:
        return done.value


def _scipy_brentq(f, xa, xb, xtol, rtol=8.9e-16, maxiter=100):
    return brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)


def _grid_law(alpha):
    if alpha < 1.0:
        return params_zero_one_case(alpha, 0.8)
    if alpha == 1.0:
        return params_eq_one_case(0.8)
    return params_mean_case(alpha)


class TestBrentRootFinder:
    """The Brent port against scipy's ``brentq`` as the oracle."""

    LEVELS = np.array(
        [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999]
    )

    @pytest.mark.parametrize(
        "alpha", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.3, 1.5, 1.7, 1.95]
    )
    def test_quantiles_bit_identical_to_scipy(self, alpha, monkeypatch):
        params = _grid_law(alpha)
        brackets = []
        steps = stable_mod._brent_steps

        def recording(xa, xb, fa, fb, xtol, *args):
            brackets.append((xa, xb, xtol))
            return steps(xa, xb, fa, fb, xtol, *args)

        monkeypatch.setattr(stable_mod, "_brent_steps", recording)
        ours = stable_quantile(params, self.LEVELS)
        together = sorted(brackets)
        brackets.clear()
        for p in self.LEVELS:
            stable_quantile(params, float(p))
        assert sorted(brackets) == together  # the lockstep run used these too
        for q, p, (xa, xb, xtol) in zip(ours, self.LEVELS, brackets):
            want = _scipy_brentq(lambda x, p=p: stable_cdf(params, x) - p, xa, xb, xtol)
            assert _bits([q]) == _bits([want])

    @pytest.mark.parametrize(
        "f,lo,hi",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 100.0, -10.0, 10.0),
            (lambda x: math.atan(x - 0.3), -4.0, 50.0),
        ],
    )
    def test_same_steps_as_scipy(self, f, lo, hi):
        steps = ([], [])

        def recorder(seen):
            return lambda x: seen.append(x) or f(x)

        ours = _brentq(recorder(steps[0]), lo, hi, 1e-13)
        want = _scipy_brentq(recorder(steps[1]), lo, hi, 1e-13)
        assert ours == want
        assert steps[0] == steps[1]

    def test_root_at_a_bracket_end(self):
        assert _brentq(lambda x: x - 2.0, 2.0, 3.0, 1e-13) == 2.0
        assert _brentq(lambda x: x - 3.0, 2.0, 3.0, 1e-13) == 3.0

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalError, match="no sign change"):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-13)

    def test_iteration_budget_raises(self):
        with pytest.raises(NumericalError, match="did not converge"):
            _brentq(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-13, maxiter=3)
