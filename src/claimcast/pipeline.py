"""End-to-end orchestration: records in, fitted parameters and quantile
tables out.

The pipeline mirrors the estimation procedure end to end: fit the mean
claims measure on the tables as loaded, anchor the sales onto the forecast
clock, fit the sales curve and its fluctuation limit, diagnose the
claim-size tail, assemble the limit parameters per forecast window and
evaluate the distributional approximations.  Its result is the plain dict
that ``report.json`` holds, the one statement of the report's fields;
:func:`report_text` renders it for people.  Identical config and inputs
produce byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar, Optional, Tuple

import numpy as np

from . import claims as claims_mod
from . import dataio
from .claims import ClaimsTable, JoinedClaims, SalesTable
from .core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from .engine import (
    LimitParams,
    approx_cdf,
    approx_quantile,
    cost_approx_normal,
    cost_approx_stable,
    extremeness,
    fluctuation_moments,
    rate_constants,
)
from .errors import DomainError
from .sales import (
    assemble_fluctuation,
    compute_residuals,
    decompose_residuals,
    fit_bass,
)
from .stable import stable_quantile
from .tails import Regime, diagnose, qq_plot_data

QUANTILE_LEVELS = (0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)

__all__ = ["RunConfig", "report_text", "run_pipeline", "synthesize_dataset"]


@dataclass(frozen=True)
class RunConfig:
    """Pipeline knobs; defaults follow the car-study setup.

    The class-level tuples list the values each choice field accepts
    (``regime_override`` also accepts None); the CLI offers the same.
    """

    N_POLICIES: ClassVar[Tuple[str, ...]] = ("observed_total", "explicit")
    POLICIES: ClassVar[Tuple[str, ...]] = ("free_replacement", "prorata")
    REBATE_KINDS: ClassVar[Tuple[str, ...]] = ("linear", "quadratic")
    REGIME_OVERRIDES: ClassVar[Tuple[str, ...]] = ("finite_variance",)

    warranty: int = 1096
    period: int = 91
    periods: Tuple[int, ...] = (0, 1)  # window k covers [kT, (k+1)T]
    n_policy: str = "observed_total"
    n_explicit: Optional[int] = None
    policy: str = "free_replacement"
    rebate_kind: str = "linear"  # pro-rata schedule shape
    unit_price: float = 1.0
    qq_k: int = 5000
    ma_window: int = 15
    poly_degree: int = 3
    stationary: bool = False
    regime_override: Optional[str] = None
    seed: int = 0
    reps: int = 2000
    workers: int = 1

    def __post_init__(self):
        TimeHorizon(self.warranty, self.period)  # the clock's rule, checked early
        if self.n_policy not in self.N_POLICIES:
            raise DomainError(f"unknown n policy {self.n_policy!r}")
        if self.n_policy == "explicit" and (self.n_explicit or 0) < 1:
            raise DomainError("explicit n policy needs n_explicit >= 1")
        if self.n_policy == "observed_total" and self.n_explicit is not None:
            raise DomainError("n_explicit needs the explicit n policy")
        if self.policy not in self.POLICIES:
            raise DomainError(f"unknown policy {self.policy!r}")
        if self.rebate_kind not in self.REBATE_KINDS:
            raise DomainError(f"unsupported rebate kind {self.rebate_kind!r}")
        if not self.periods or any(k not in (0, 1) for k in self.periods):
            raise DomainError("periods must be a non-empty selection from {0, 1}")
        if self.regime_override not in (None, *self.REGIME_OVERRIDES):
            raise DomainError(f"unknown regime override {self.regime_override!r}")
        for name, least in (("qq_k", 2), ("ma_window", 1), ("poly_degree", 0)):
            if getattr(self, name) < least:  # a later stage's rule, checked early
                raise DomainError(f"{name} must be at least {least}")
        self.rebate()  # RebateFunction's unit-price rule, checked early

    def items_sold(self, observed: int) -> int:
        """The scale n: the observed sales count or the explicit figure."""
        return observed if self.n_policy == "observed_total" else int(self.n_explicit)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def rebate(self) -> RebateFunction:
        """The policy's rebate schedule; it carries the unit price, which
        free replacement does not use."""
        kind = self.rebate_kind if self.policy == "prorata" else "free_replacement"
        return RebateFunction(kind, self.warranty, self.unit_price)


def report_text(report: dict, period: int) -> str:
    """The printed forecast: ``report.txt`` and the stdout of ``claimcast
    report``, rendered from the :func:`run_pipeline` payload; ``period`` is
    the forecast length T, which the payload does not hold."""
    provenance, curve = report["provenance"], report["sales_curve"]
    measure, tail = report["mean_measure"], report["tail"]
    lines = [
        "warranty cost forecast",
        "======================",
        f"config {provenance['config']}  seed {provenance['seed']}",
        f"items sold (n): {report['n']}; clock anchored at raw day {report['anchor']}",
        f"sales curve: p={curve['p']:.6e}  q={curve['q']:.6e}",
        (
            "mean claims measure: "
            f"slope={measure['slope']:.6e} "
            f"intercept={measure['intercept']:.6e} "
            f"atom0={measure['atom0']:.4f} "
            f"atomW={measure['atomW']:.4f}"
        ),
    ]
    if tail["alpha"] is not None:
        lines.append(
            f"claim sizes: mean={tail['size_mean']:.2f} "
            f"variance={tail['size_variance']:.2f} "
            f"tail index={tail['alpha']:.2f} regime={tail['regime']}"
        )
    if report["rejected_claims"]:
        lines.append(
            f"quarantined claims (unknown vehicles): {report['rejected_claims']}"
        )
    for res in report["periods"]:
        limits, quantiles, sanity = res["limits"], res["quantiles"], res["sanity"]
        lines.append("")
        lines.append(f"period [{res['offset']}, {res['offset'] + period}]")
        lines.append(
            "  limits: "
            f"c1={limits['claims_mean']:.4f} c2={limits['claims_var']:.4f} "
            f"fluct mean={limits['fluct_mean']:.4f} "
            f"fluct var={limits['fluct_var']:.4f}"
        )
        kinds = sorted(quantiles)
        lines.append("  p      " + "  ".join(f"{k:>14s}" for k in kinds))
        for p in QUANTILE_LEVELS:
            cells = [f"{quantiles[kind][str(p)]:14,.2f}" for kind in kinds]
            lines.append(f"  {p:4.2f}   " + "  ".join(cells))
        for key in sorted(sanity):
            lines.append(f"  {key}: {sanity[key]:.4f}")
    return "\n".join(lines) + "\n"


def _daily_counts(sales: SalesTable) -> Tuple[np.ndarray, int]:
    """Sales per day from the first sale day on, and that first day."""
    first = int(sales.day.min())
    return np.bincount(sales.day - first).astype(float), first


def _fit_claims(
    sales: SalesTable, claims: ClaimsTable, warranty: int, n: int
) -> Tuple[JoinedClaims, np.ndarray, MeanClaimsMeasure]:
    """Join the claims onto the n sold items, same-day claims merged, bin
    the ages and fit the mean claims measure."""
    joined = claims_mod.join_claims(sales, claims, warranty)
    bins = claims_mod.empirical_mean_measure(joined.age, n, warranty)
    return joined, bins, claims_mod.fit_mean_measure(bins)


def realized_window_totals(
    sales: SalesTable, joined: JoinedClaims, horizon: TimeHorizon
) -> Tuple[int, float]:
    """Actual claim count and cost that landed in the forecast window."""
    hit = horizon.lands_in_window(sales.day[joined.item], joined.age)
    return int(np.count_nonzero(hit)), float(np.sum(joined.amount[hit]))


def run_pipeline(
    config: RunConfig,
    sales: SalesTable,
    claims: ClaimsTable,
    out_dir: Optional[Path] = None,
) -> dict:
    """Full estimation: sales curve, fluctuation limit, mean measure, tail
    diagnosis, limit parameters and quantiles per requested period.

    Returns the payload that ``report.json`` holds, which
    :func:`report_text` renders; ``out_dir``, if given, receives both
    report files and the plot-data series behind every figure.  All claims
    present in the input participate in estimating the mean measure (as in
    the study the defaults mirror); claims falling inside a forecast window
    additionally feed that window's sanity-check block.
    """
    if len(sales) == 0:
        raise DomainError("no sales records")
    n = config.items_sold(len(sales))
    rebate = config.rebate()
    # the join reads day differences, so it takes the tables as loaded
    joined, bins, fitted = _fit_claims(sales, claims, config.warranty, n)
    sales, anchor = dataio.anchor_day_zero(sales)

    counts, first_day = _daily_counts(sales)
    bass = fit_bass(counts, n, first_day)
    resid = compute_residuals(counts, first_day, bass)
    decomposition = decompose_residuals(
        resid, first_day, halfwidth=config.ma_window, stationary=config.stationary
    )

    sizes = joined.amount
    tail = None
    if config.policy == "free_replacement":
        override = config.regime_override == "finite_variance"
        tail = diagnose(sizes, config.qq_k, finite_variance_override=override)

    report = {
        "provenance": {"config": config.digest(), "seed": config.seed},
        "n": n,
        "anchor": anchor,
        "sales_curve": {"p": bass.p, "q": bass.q},
        "mean_measure": {
            "slope": fitted.slope,
            "intercept": fitted.intercept,
            "atom0": fitted.atom0,
            "atomW": fitted.atomW,
        },
        "tail": {
            "alpha": tail.alpha_hat if tail else None,
            "regime": tail.regime.value if tail else None,
            "size_mean": tail.mean if tail else None,
            "size_variance": tail.variance if tail else None,
        },
        "rejected_claims": joined.quarantined,
        "variance_floor_count": 0,
        "periods": [],
    }
    horizons = [
        TimeHorizon(config.warranty, config.period, k * config.period, n)
        for k in sorted(set(config.periods))
    ]
    grids = claims_mod.moment_grids(joined, fitted, rebate, horizons)
    # the last window's record covers every earlier window too
    increments = assemble_fluctuation(decomposition, horizons[-1], config.poly_degree)
    levels = np.array(QUANTILE_LEVELS)
    standard = {}  # stable law -> its quantile column: one call per distinct law
    for horizon, (mean, var, floored) in zip(horizons, grids):
        report["variance_floor_count"] += floored
        c1, c2 = rate_constants(mean, var, bass.share(horizon.sale_days))
        mu_t, sig2_t = fluctuation_moments(increments, fitted, rebate, horizon)
        limits = dict(claims_mean=c1, claims_var=c2, fluct_mean=mu_t, fluct_var=sig2_t)
        lp = LimitParams(horizon=horizon, **limits)

        approxes = {}
        if config.policy == "prorata":
            approxes["prorata"] = cost_approx_normal(lp, config.unit_price)
        else:
            if tail.regime in (Regime.FINITE_VARIANCE, Regime.STABLE_1_2):
                approxes["normal"] = cost_approx_normal(lp, tail.mean, tail.variance)
            if tail.regime is not Regime.FINITE_VARIANCE:
                alpha = 1.0 if tail.regime is Regime.STABLE_EQ_1 else tail.alpha_hat
                approxes["stable"] = cost_approx_stable(lp, alpha, tail.mean)
        quantiles = {}
        for kind, approx in approxes.items():
            if approx.stable is None:
                column = approx_quantile(approx, levels)
            else:
                # for 1 < alpha < 2 every window shares the standard law
                if approx.stable not in standard:
                    standard[approx.stable] = stable_quantile(approx.stable, levels)
                column = approx.location + approx.scale * standard[approx.stable]
            quantiles[kind] = dict(zip(map(str, QUANTILE_LEVELS), column.tolist()))

        sanity = {}
        actual_count, actual_cost = realized_window_totals(sales, joined, horizon)
        if actual_count > 0:
            sanity["actual_count"] = float(actual_count)
            sanity["actual_cost"] = actual_cost
            # under pro-rata the moment grids are rebate-weighted, so lp
            # is the law of the summed rebates, not of the claim count
            if config.policy == "free_replacement":
                count_cdf = approx_cdf(cost_approx_normal(lp), actual_count)
                sanity["count_cdf"] = count_cdf
                sanity["count_extremeness"] = extremeness(count_cdf)
            for kind, approx in approxes.items():
                cost_cdf = approx_cdf(approx, actual_cost)
                sanity[f"cost_cdf_{kind}"] = cost_cdf
                sanity[f"cost_extremeness_{kind}"] = extremeness(cost_cdf)
        report["periods"].append(
            dict(
                offset=horizon.offset, limits=limits, quantiles=quantiles, sanity=sanity
            )
        )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report_text(report, config.period))
        dataio.write_json_report(report, out_dir / "report.json")
        ages = np.arange(config.warranty + 1)
        dataio.write_series(
            out_dir / "mean_measure_bins.csv", "age", ages, "mass", bins
        )
        dataio.write_series(
            out_dir / "mean_measure_fit.csv", "age", ages, "mass", fitted.bin_masses()
        )
        days = first_day + np.arange(len(counts))
        dataio.write_series(out_dir / "daily_sales.csv", "day", days, "count", counts)
        fit_curve = bass.n * (bass.share(days) - bass.share(days - 1))
        dataio.write_series(out_dir / "sales_fit.csv", "day", days, "count", fit_curve)
        dataio.write_series(
            out_dir / "residuals.csv", "day", days, "std_resid", decomposition.std_resid
        )
        if tail is not None:
            hist, edges = np.histogram(
                sizes, bins=min(200, max(10, len(sizes) // 50)), density=True
            )
            centers = 0.5 * (edges[:-1] + edges[1:])
            dataio.write_series(
                out_dir / "size_density.csv", "size", centers, "density", hist
            )
            pts = qq_plot_data(sizes, config.qq_k)
            dataio.write_series(
                out_dir / "size_qq.csv",
                "exp_quantile",
                pts[:, 0],
                "log_order_stat",
                pts[:, 1],
            )
    return report


def synthesize_dataset(
    out_sales,
    out_claims,
    n: int = 5000,
    warranty: int = RunConfig.warranty,
    span: int = 1116,
    bass_p: float = 4.0149e-4,
    bass_q: float = 1.6738e-2 - 4.0149e-4,
    density_slope: float = -0.8872e-6,
    density_intercept: float = 0.1479e-2,
    atom0: float = 0.1330,
    atomW: float = 0.0420,
    size_mu_log: float = 3.0,
    size_sigma_log: float = 1.0,
    seed: int = 0,
) -> Tuple[int, int]:
    """Write a synthetic sales/claims CSV pair shaped like the car study.

    Sales follow a Bass-curve Poisson process over ``span`` days of raw
    dates 1..span; each car gets a Poisson claims measure (linear density
    with end atoms) and lognormal claim amounts, all cars' claims drawn in
    one batch.  Returns the number of sales and claim rows written.

    The defaults are the car study's at a smaller n: RunConfig's warranty,
    the paper's Bass curve over 1116 days and its mean claims measure,
    which ``claimcast validate`` also takes as its default.  ``claimcast
    report`` runs on them with its own defaults.
    """
    from .sales import BassParams
    from .sim import LognormalSizes, PoissonClaims, make_rng

    if seed < 0:
        raise DomainError(f"need a non-negative seed, got {seed}")
    if span < 1:
        raise DomainError(f"need a span of at least one day, got {span}")
    rng = make_rng(seed)
    curve = BassParams(p=bass_p, q=bass_q, n=n, origin=0)
    share = curve.share(np.arange(span + 1, dtype=float))
    weights = np.diff(share)
    weights = weights / weights.sum()
    sale_days = 1 + rng.choice(span, size=n, p=weights)
    claims_law = PoissonClaims(
        MeanClaimsMeasure(
            density_slope, density_intercept, atom0, atomW, warranty
        )
    )
    size_law = LognormalSizes(size_mu_log, size_sigma_log)

    item, age = claims_law.sample(rng, n)
    order = np.lexsort((age, item))  # rows by car, then age; amounts in that order
    item, age = item[order], age[order]
    amounts = size_law.sample(rng, len(age))
    vids = [f"V{i:06d}" for i in range(n)]

    out_sales = Path(out_sales)
    out_claims = Path(out_claims)
    out_sales.parent.mkdir(parents=True, exist_ok=True)
    out_claims.parent.mkdir(parents=True, exist_ok=True)
    claim_days = sale_days[item] + np.round(age).astype(np.int64)
    with out_sales.open("w", newline="") as sf, out_claims.open(
        "w", newline=""
    ) as cf:
        sw = csv.writer(sf)
        cw = csv.writer(cf)
        sw.writerow(["vehicle_id", "sale_date"])
        sw.writerows(zip(vids, sale_days.tolist()))
        cw.writerow(["vehicle_id", "claim_date", "claim_id", "amount"])
        rows = zip(item.tolist(), claim_days.tolist(), amounts.tolist())
        for k, (i, day, amount) in enumerate(rows, 1):
            cw.writerow([vids[i], day, f"C{k:07d}", f"{amount:.2f}"])
    return n, len(age)
