"""Synthetic sales processes, claim measures and sizes; exact realizations;
Monte Carlo validation of the distributional approximations.

Randomness policy: every stream is a Philox (counter-based) generator keyed
through ``numpy.random.SeedSequence``, so identical seeds reproduce results
bit-for-bit and replication r of a run seeded s draws from the independent
stream keyed (s, r).  A replication draws its sale times, then the claims of
all items as one batch of (item, age) columns, then one size per claim.
Because every replication has its own stream, a validation draws a block
of replications one after another and scores the whole block in one pass.

A validation standardizes in one place, ``_limit_law``: it gives the
theorem's center and norm and the limit law of (statistic - center) / norm,
against which the standardized replications are scored.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that out of
# the first validation, whose make_rng uses it
import numpy.random

from .core import FluctuationIncrements, MeanClaimsMeasure, RebateFunction, TimeHorizon
from .engine import (
    CostApproximation,
    LimitParams,
    approx_cdf,
    approx_quantile,
    cost_approx_normal,
    cost_approx_stable,
    fluctuation_moments,
    rate_constants,
)
from .errors import DomainError
from .tails import sample_quantiles, tail_scalers

logger = logging.getLogger(__name__)

__all__ = [
    "LinearShare",
    "RenewalSales",
    "NhppSales",
    "PoissonClaims",
    "SingleLifetime",
    "LognormalSizes",
    "ParetoSizes",
    "make_rng",
    "realize_cost",
    "MonteCarloStudy",
    "ValidationReport",
    "theoretical_limit",
    "monte_carlo_validate",
]


def make_rng(*key) -> np.random.Generator:
    """Philox generator keyed by an arbitrary tuple (documented stream policy)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class LinearShare:
    """Sales share rising linearly from 0 at day -W to 1 at day span - W.

    Picklable (unlike a lambda), so studies built on it can run on worker
    pools; a homogeneous Poisson sales process is NhppSales(LinearShare(...)).
    """

    warranty: int
    span: float

    def __call__(self, days):
        return np.clip(
            (np.asarray(days, dtype=float) + self.warranty) / self.span, 0.0, None
        )


# --------------------------------------------------------------------------
# sales processes


@dataclass(frozen=True)
class RenewalSales:
    """Renewal sales: iid inter-arrival gaps with the given mean/variance.

    Gaps are gamma distributed (degenerate when var == 0).  The raw renewal
    epochs on [0, n (W + T + offset)] map onto the day clock via
    s = S/n - W, so the limiting share is nu(s) = (s + W) / mean and the
    fluctuation is Brownian with rate var / mean^3.
    """

    mean: float
    var: float

    def __post_init__(self):
        if self.mean <= 0.0 or self.var < 0.0:
            raise DomainError("need mean > 0 and var >= 0")

    def share_on(self, days, horizon: TimeHorizon) -> np.ndarray:
        return (np.asarray(days, dtype=float) + horizon.warranty) / self.mean

    def increment_var(self, horizon: TimeHorizon) -> np.ndarray:
        """Fluctuation variance of each day -W+1 .. T+offset: var / mean^3."""
        days = horizon.warranty + horizon.period + horizon.offset
        return np.full(days, self.var / self.mean**3)

    def sample(self, horizon: TimeHorizon, rng: np.random.Generator) -> np.ndarray:
        n = horizon.scale
        span = horizon.warranty + horizon.period + horizon.offset
        budget = float(n * span)
        target = budget / self.mean
        batch_size = int(target + 6.0 * np.sqrt(target + 1.0)) + 16
        epochs: List[np.ndarray] = []
        total = 0.0
        while total <= budget:
            if self.var == 0.0:
                gaps = np.full(batch_size, self.mean)
            else:
                shape = self.mean**2 / self.var
                gaps = rng.gamma(shape, self.var / self.mean, size=batch_size)
            batch = total + np.cumsum(gaps)
            epochs.append(batch)
            total = float(batch[-1])
        s = np.concatenate(epochs)
        s = s[s <= budget] / n - horizon.warranty
        return np.sort(s)


@dataclass(frozen=True)
class NhppSales:
    """Non-homogeneous Poisson sales: unit-rate Poisson time-changed by n*share.

    ``share`` must be non-decreasing on the integer days -W .. T+offset
    (``DomainError`` otherwise); its inverse is taken piecewise-linearly on
    those days, exact when the share itself is piecewise linear between them.
    """

    share: Callable[[np.ndarray], np.ndarray]

    def share_on(self, days, horizon: TimeHorizon) -> np.ndarray:
        return np.asarray(self.share(np.asarray(days, dtype=float)), dtype=float)

    def _daily_share(self, horizon: TimeHorizon) -> Tuple[np.ndarray, np.ndarray]:
        """Days -W .. T+offset and the share on them, checked non-decreasing.

        Kept on the instance for the last horizon asked, so that the
        replications of a study build and check the share once.
        """
        memo = self.__dict__.get("_daily")
        if memo is None or memo[0] != horizon:
            days = np.arange(
                -horizon.warranty, horizon.period + horizon.offset + 1, dtype=float
            )
            nu = self.share_on(days, horizon)
            if not np.all(np.diff(nu) >= 0.0):
                raise DomainError("NHPP sales share must be non-decreasing")
            memo = (horizon, days, nu)
            object.__setattr__(self, "_daily", memo)
        return memo[1], memo[2]

    def increment_var(self, horizon: TimeHorizon) -> np.ndarray:
        """Fluctuation variance of each day -W+1 .. T+offset: the share's
        increment over the day."""
        return np.diff(self._daily_share(horizon)[1])

    def sample(self, horizon: TimeHorizon, rng: np.random.Generator) -> np.ndarray:
        days, nu = self._daily_share(horizon)
        total = horizon.scale * (nu[-1] - nu[0])
        count = rng.poisson(total)
        epochs = np.sort(rng.uniform(nu[0], nu[-1], size=count))
        return np.interp(epochs, nu, days)


SalesSpec = Union[RenewalSales, NhppSales]


# --------------------------------------------------------------------------
# claims measures and claim sizes


@dataclass(frozen=True)
class PoissonClaims:
    """Poisson random measure of claim ages with the given mean measure.

    Interior points come from thinning a homogeneous proposal at the linear
    density's maximum; the age-0 and age-W atoms contribute independent
    Poisson-distributed batches, so the realized measure is Poisson with
    intensity exactly the mean measure and the variance grid equals the
    r^2-weighted mean grid.
    """

    mean_measure: MeanClaimsMeasure

    @functools.cached_property
    def _peak(self) -> float:
        """The thinning bound: the linear density's maximum on [0, W]."""
        m = self.mean_measure
        return max(0.0, float(m.density(0.0)), float(m.density(float(m.warranty))))

    def sample(self, rng, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Claims of ``size`` items as unsorted ``(item, age)`` columns: one
        Poisson draw of proposal counts for all items, thinning over the
        concatenated proposals, one Poisson draw per atom.  The columns hold
        the kept proposals, then the age-0 atoms, then the age-W atoms, each
        group in item order."""
        m = self.mean_measure
        w = float(m.warranty)
        peak = self._peak
        items = np.arange(size)
        proposals = rng.poisson(peak * w, size)
        u = rng.uniform(0.0, w, size=proposals.sum())
        keep = rng.uniform(0.0, peak, size=len(u)) < m.density(u)
        at0, at_w = rng.poisson(m.atom0, size), rng.poisson(m.atomW, size)
        atom_item = np.repeat(np.tile(items, 2), np.concatenate([at0, at_w]))
        item = np.concatenate([np.repeat(items, proposals)[keep], atom_item])
        age = np.concatenate([u[keep], np.repeat([0.0, w], [at0.sum(), at_w.sum()])])
        return item, age

    def window_moment_grids(self, rebate: RebateFunction, horizon: TimeHorizon):
        window = horizon.claim_window(horizon.sale_days)
        m = self.mean_measure
        return m.mass(*window, rebate), m.mass(*window, rebate, power=2)


@dataclass(frozen=True)
class SingleLifetime:
    """At most one claim per item: the lifetime drawn by ``ppf`` produces a
    claim only when it ends within the warranty.

    ``ppf`` maps an array of uniforms to lifetimes.  ``mean_measure``
    describes the lifetime law restricted to [0, W] and fixes W; sampling
    reads only W from it, the exact theory grids read all of it.
    """

    ppf: Callable[[np.ndarray], np.ndarray]
    mean_measure: MeanClaimsMeasure

    def sample(self, rng, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Claims of ``size`` items as ``(item, age)`` columns: one uniform
        per item, in item order, mapped through ``ppf``; lifetimes past W
        produce no claim."""
        u = rng.uniform(size=size)
        life = np.broadcast_to(np.asarray(self.ppf(u), dtype=float), u.shape)
        if np.any(life < 0.0):
            raise DomainError("lifetimes must be non-negative")
        claimed = life <= self.mean_measure.warranty
        return np.flatnonzero(claimed), life[claimed]

    def window_moment_grids(self, rebate: RebateFunction, horizon: TimeHorizon):
        window = horizon.claim_window(horizon.sale_days)
        m = self.mean_measure
        mean = m.mass(*window, rebate)
        return mean, m.mass(*window, rebate, power=2) - mean**2


ClaimsSpec = Union[PoissonClaims, SingleLifetime]


@dataclass(frozen=True)
class LognormalSizes:
    mu_log: float = 0.0
    sigma_log: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.mu_log) and 0.0 <= self.sigma_log < np.inf):
            raise DomainError("need a finite mu_log and a finite sigma_log >= 0")
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.mean) and np.isfinite(self.var)
        if not finite:
            raise DomainError("lognormal sizes need a finite mean and variance")

    def sample(self, rng, size):
        return rng.lognormal(self.mu_log, self.sigma_log, size=size)

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu_log + self.sigma_log**2 / 2.0))

    @property
    def var(self) -> float:
        m = self.mean
        return float((np.exp(self.sigma_log**2) - 1.0) * m * m)


@dataclass(frozen=True)
class ParetoSizes:
    """Survival (xm / x)^alpha on [xm, inf)."""

    alpha: float
    xm: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < np.inf and 0.0 < self.xm < np.inf):
            raise DomainError("need finite alpha > 0 and xm > 0")

    def sample(self, rng, size):
        return self.xm * rng.uniform(size=size) ** (-1.0 / self.alpha)

    @property
    def mean(self) -> float:
        if self.alpha <= 1.0:
            raise DomainError("mean undefined for alpha <= 1")
        return self.xm * self.alpha / (self.alpha - 1.0)


SizeSpec = Union[LognormalSizes, ParetoSizes]


# --------------------------------------------------------------------------
# exact realization of scenarios

# one realized replication: sale times, claim (item, age) columns with item
# indexing the sales, and the claim-size stream
Scenario = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


def _score(
    scenarios: List[Scenario], rebate: RebateFunction, horizon: TimeHorizon
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact claim counts and costs of a block of scenarios, in one pass
    that does not depend on the order of any scenario's claims.

    The block's sales and claims are stacked, one window test scores every
    claim and ``np.bincount`` tallies the hits per scenario.  Under free
    replacement a scenario's cost is the sum of its first ``count`` sizes;
    under a rebate schedule only each item's earliest claim can pay, at
    ``unit_price * r(age)``, summed in item order.  Each sum covers one
    scenario's values alone, so it has the bits of a one-scenario block.
    """
    n_sales = np.array([len(s[0]) for s in scenarios])
    n_claims = np.array([len(s[1]) for s in scenarios])
    sales = np.concatenate([s[0] for s in scenarios])
    item = np.concatenate([s[1] for s in scenarios])
    item += np.repeat(np.cumsum(n_sales) - n_sales, n_claims)  # index the stack
    age = np.concatenate([s[2] for s in scenarios])
    prorata = rebate.kind != "free_replacement"
    if prorata:  # each item's earliest claim, in item order
        earliest = np.full(len(sales), np.inf)
        np.minimum.at(earliest, item, age)
        item = np.flatnonzero(earliest < np.inf)
        age = earliest[item]
    hit = horizon.lands_in_window(sales[item], age)
    owner = np.repeat(np.arange(len(scenarios)), n_sales)  # scenario of each sale
    counts = np.bincount(owner[item[hit]], minlength=len(scenarios))
    if prorata:
        paid = rebate.unit_price * rebate(age[hit])  # scenario by scenario
        parts = np.split(paid, np.cumsum(counts)[:-1])
        return counts, np.array([np.sum(part) for part in parts])
    costs = np.empty(len(scenarios))
    for k, ((*_, sizes), count) in enumerate(zip(scenarios, counts)):
        sizes = np.asarray(() if sizes is None else sizes, dtype=float)
        if len(sizes) < count:
            raise DomainError(f"size stream exhausted: need {count}, have {len(sizes)}")
        costs[k] = np.sum(sizes[:count])
    return counts, costs


def realize_cost(
    sales: np.ndarray,
    item: np.ndarray,
    age: np.ndarray,
    sizes: Optional[np.ndarray],
    rebate: RebateFunction,
    horizon: TimeHorizon,
) -> Tuple[int, float]:
    """Exact claim count and cost of one realized scenario.

    Claim k is raised by the item sold at ``sales[item[k]]`` at age
    ``age[k]``; the columns must be sorted by (item, age).  Under free
    replacement every claim landing in the window consumes the next entry
    of the ``sizes`` stream, None being an empty one; under a rebate
    schedule only each item's first claim can pay, at ``unit_price *
    r(age)``.  This is the block scoring of :func:`monte_carlo_validate` on
    a block of one checked scenario.
    """
    sales = np.asarray(sales, dtype=float)
    item = np.asarray(item, dtype=np.int64)
    age = np.asarray(age, dtype=float)
    if item.shape != age.shape or item.ndim != 1:
        raise DomainError("need one item index per claim age")
    if len(item) and (item[0] < 0 or item[-1] >= len(sales)):
        raise DomainError("claim item index outside the sales")
    step = np.diff(item, prepend=-1)  # > 0 exactly at each item's first claim
    if np.any((step < 0) | ((step == 0) & (np.diff(age, prepend=0.0) < 0))):
        raise DomainError("claims must be sorted by (item, age)")
    counts, costs = _score([(sales, item, age, sizes)], rebate, horizon)
    return int(counts[0]), float(costs[0])


# --------------------------------------------------------------------------
# Monte Carlo validation


_THEOREMS = ("count", "normal", "stable_1_2", "stable_0_1", "prorata")


@dataclass(frozen=True)
class MonteCarloStudy:
    """Full pipeline specification for one validation experiment.

    ``theorem`` picks the engine approximation the check scores and the
    standardization that carries it onto the limit's scale:

    * ``"count"``      - claim count against its normal limit
    * ``"normal"``     - cost against the finite-variance normal limit
      (sizes must be lognormal, whose variance is known in closed form)
    * ``"stable_1_2"`` - cost against the 1 < alpha < 2 stable limit
    * ``"stable_0_1"`` - cost against the alpha <= 1 stable limit
      (both stable theorems need Pareto sizes so the normalizing
      sequences are exact)
    * ``"prorata"``    - rebate cost against its normal limit
    """

    sales: SalesSpec
    claims: ClaimsSpec
    rebate: RebateFunction
    horizon: TimeHorizon
    theorem: str
    sizes: Optional[SizeSpec] = None

    def __post_init__(self):
        if self.theorem not in _THEOREMS:
            raise DomainError(f"unknown theorem tag {self.theorem!r}")
        if self.theorem == "normal":
            # standardized by sqrt(n V): a fixed size (V = 0) has no normal limit
            if not isinstance(self.sizes, LognormalSizes) or self.sizes.var <= 0.0:
                raise DomainError("normal validation needs lognormal sizes with V > 0")
        if self.theorem.startswith("stable"):
            if not isinstance(self.sizes, ParetoSizes):
                raise DomainError("stable validation needs Pareto sizes")
            alpha = self.sizes.alpha
            if self.theorem == "stable_1_2" and not 1.0 < alpha < 2.0:
                raise DomainError("stable_1_2 validation needs 1 < alpha < 2")
            if self.theorem == "stable_0_1" and alpha > 1.0:
                raise DomainError("stable_0_1 validation needs 0 < alpha <= 1")


def theoretical_limit(study: MonteCarloStudy) -> LimitParams:
    """Limit parameters computed from the generating model, not from data.

    The claim grids integrate the known mean measure in closed form and
    the sales fluctuation limit is the exact one for the sales law
    (independent increments of zero mean).
    """
    horizon = study.horizon
    mean_grid, var_grid = study.claims.window_moment_grids(study.rebate, horizon)
    days = horizon.sale_days
    nu = study.sales.share_on(days, horizon)
    c1, c2 = rate_constants(mean_grid, var_grid, nu)
    # independent increments over days -W+1 .. T + offset, wider than the
    # sale days when offset > 0
    var = study.sales.increment_var(horizon)
    increments = FluctuationIncrements(
        mean=np.zeros(len(var)),
        scale=np.sqrt(var),
        acf=np.r_[1.0, np.zeros(len(var) - 1)],
    )
    mu_t, sig2_t = fluctuation_moments(
        increments, study.claims.mean_measure, study.rebate, horizon
    )
    return LimitParams(
        claims_mean=c1,
        claims_var=c2,
        fluct_mean=mu_t,
        fluct_var=sig2_t,
        horizon=horizon,
    )


def _limit_law(
    study: MonteCarloStudy, lp: LimitParams
) -> Tuple[float, float, CostApproximation]:
    """The (center, norm) that standardize the theorem's raw statistic, and
    its limit law: the engine's approximation under x -> (x - center) / norm."""
    n = study.horizon.scale
    c1 = lp.claims_mean
    sizes = study.sizes
    if study.theorem == "count":
        center, norm, approx = n * c1, np.sqrt(n), cost_approx_normal(lp)
    elif study.theorem == "prorata":
        cb = study.rebate.unit_price
        center, norm, approx = n * cb * c1, cb * np.sqrt(n), cost_approx_normal(lp, cb)
    elif study.theorem == "normal":
        e, v = sizes.mean, sizes.var
        center, norm, approx = n * c1 * e, np.sqrt(n * v), cost_approx_normal(lp, e, v)
    elif study.theorem == "stable_1_2":
        center, norm = n * c1 * sizes.mean, tail_scalers(sizes.alpha, n, sizes.xm)[0]
        approx = cost_approx_stable(lp, sizes.alpha, sizes.mean, sizes.xm)
    else:
        approx = cost_approx_stable(lp, sizes.alpha, size_scale=sizes.xm)
        center, norm = approx.location, approx.scale
    return center, norm, replace(
        approx, location=(approx.location - center) / norm, scale=approx.scale / norm
    )


def run_replication(study: MonteCarloStudy, seed: int, rep: int) -> Scenario:
    """The realized scenario ``(sales, item, age, sizes)`` of replication
    ``rep``, drawn from its own Philox stream in the documented order; the
    claim columns come in the claims sampler's order, unsorted."""
    rng = make_rng(seed, rep)
    sales = study.sales.sample(study.horizon, rng)
    item, age = study.claims.sample(rng, len(sales))
    if study.sizes is not None:
        sizes = study.sizes.sample(rng, len(age))
    else:
        sizes = np.zeros(len(age))  # count-only study: the cost is ignored
    return sales, item, age, sizes


_BLOCK = 16  # replications scored together; larger blocks raise peak memory


def _replicate_block(
    study: MonteCarloStudy, seed: int, reps: range
) -> Tuple[np.ndarray, np.ndarray]:
    """Claim counts and costs of replications ``reps``, each drawn by
    :func:`run_replication` and all scored in one pass."""
    scenarios = [run_replication(study, seed, r) for r in reps]
    return _score(scenarios, study.rebate, study.horizon)


@dataclass(frozen=True)
class ValidationReport:
    """Comparison of the simulated law against the theorem's limit.

    ``dkw_band`` is the 95% Dvoretzky-Kiefer-Wolfowitz half-width
    1.36/sqrt(reps): the KS distance of ``reps`` draws from their own
    continuous law stays below it with probability at least 0.95, so a KS
    excess smaller than the band is not resolvable at this replication
    count.
    """

    theorem: str
    reps: int
    seed: int
    ks_distance: float
    dkw_band: float
    quantile_levels: tuple
    empirical_quantiles: tuple
    limit_quantiles: tuple
    coverage: tuple
    degenerate: bool


_REPORT_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def _ks_against(approx: CostApproximation, sample: np.ndarray) -> float:
    """Exact KS distance between the sample and the limit law: the supremum
    over the sorted sample points of the gap between the limit CDF and the
    empirical CDF on either side of each point."""
    cdf = approx_cdf(approx, np.sort(sample))
    n = len(cdf)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(cdf - lower, upper - cdf)))


def monte_carlo_validate(
    study: MonteCarloStudy,
    reps: int,
    seed: int,
    workers: int = 1,
) -> ValidationReport:
    """Simulate ``reps`` replications and compare against the limit law.

    Replications are independent streams keyed (seed, rep), drawn and
    scored in fixed-size blocks; with ``workers > 1`` the blocks are farmed
    out in contiguous chunks and reduced in replication order, so the
    report depends neither on the worker count nor on the block size.
    The limit law is built before the first replication, where the claim
    rate c1 is positive, so a law that cannot be built fails at once; a
    run that draws claims where c1 is not positive has no limit law.
    """
    if reps < 100:
        raise DomainError("need at least 100 replications")
    if seed < 0:
        raise DomainError(f"need a non-negative seed, got {seed}")
    if workers < 1:
        raise DomainError(f"need at least one worker, got {workers}")
    lp = theoretical_limit(study)
    law = _limit_law(study, lp) if lp.claims_mean > 0 else None
    blocks = [range(r, min(r + _BLOCK, reps)) for r in range(0, reps, _BLOCK)]
    replicate = functools.partial(_replicate_block, study, seed)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = -(-len(blocks) // workers)  # contiguous chunks, one per worker
            scored = list(pool.map(replicate, blocks, chunksize=chunk))
    else:
        scored = list(map(replicate, blocks))
    counts = np.concatenate([c for c, _ in scored]).astype(float)
    costs = np.concatenate([c for _, c in scored])

    degenerate = bool(np.all(counts == 0.0))
    if degenerate:
        logger.warning("every replication produced zero claims; report degenerate")
        nan_row = (float("nan"),) * len(_REPORT_LEVELS)
        ks, limit_q, coverage = float("nan"), nan_row, nan_row
        emp_q = (0.0,) * len(_REPORT_LEVELS)
    else:
        if law is None:
            raise DomainError("claims were drawn, but the claim rate c1 is not positive")
        center, norm, approx = law
        z = ((counts if study.theorem == "count" else costs) - center) / norm
        ks = _ks_against(approx, z)
        limit_q = tuple(approx_quantile(approx, np.array(_REPORT_LEVELS)).tolist())
        emp_q = tuple(sample_quantiles(z, _REPORT_LEVELS).tolist())
        coverage = tuple(float(np.mean(z <= q)) for q in limit_q)
    return ValidationReport(
        theorem=study.theorem,
        reps=reps,
        seed=seed,
        ks_distance=ks,
        dkw_band=float(1.36 / np.sqrt(reps)),
        quantile_levels=_REPORT_LEVELS,
        empirical_quantiles=emp_q,
        limit_quantiles=limit_q,
        coverage=coverage,
        degenerate=degenerate,
    )
