"""Command-line interface.

Subcommands mirror the pipeline stages: ``fit-sales``, ``fit-claims``,
``diagnose-tail``, ``estimate``, ``quantiles``, ``report`` run on CSV
inputs; ``simulate`` writes a synthetic dataset; ``validate`` runs the
Monte Carlo check of a distributional limit.

A JSON config file (``--config`` or the ``CLAIMCAST_CONFIG`` environment
variable) overrides any command-line flags it names.  Exit codes: 0 on
success, 2 for input/validation problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import dataio, pipeline
from .claims import ClaimsTable, aggregate_daily_claims
from .core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from .errors import DomainError, FitError, LoadError, NumericalError, ValidationError
from .pipeline import RunConfig, run_pipeline, synthesize_dataset
from .sales import compute_residuals, fit_bass
from .tails import diagnose

CONFIG_ENV = "CLAIMCAST_CONFIG"

_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; its entries override flags")
    parser.add_argument("--warranty", type=int, default=1096, help="warranty days (W)")
    parser.add_argument("--period", type=int, default=91, help="forecast days (T)")
    parser.add_argument(
        "--periods",
        default="0,1",
        help="comma-separated window indices (0 -> [0,T], 1 -> [T,2T])",
    )
    parser.add_argument(
        "--n-policy", choices=("observed_total", "explicit"), default="observed_total"
    )
    parser.add_argument("--n", dest="n_explicit", type=int, default=None)
    parser.add_argument(
        "--policy", choices=("free_replacement", "prorata"), default="free_replacement"
    )
    parser.add_argument(
        "--rebate-kind", choices=("linear", "quadratic"), default="linear"
    )
    parser.add_argument("--unit-price", type=float, default=1.0)
    parser.add_argument("--qq-k", type=int, default=5000)
    parser.add_argument("--ma-window", type=int, default=15)
    parser.add_argument("--poly-degree", type=int, default=3)
    parser.add_argument(
        "--stationary",
        action="store_true",
        help="treat the sales residuals as already stationary",
    )
    parser.add_argument(
        "--regime",
        dest="regime_override",
        choices=("finite_variance",),
        default=None,
        help="force the finite-variance limit regardless of the tail index",
    )
    parser.add_argument("--seed", type=int, default=0)


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged = {
        "warranty": args.warranty,
        "period": args.period,
        "periods": tuple(int(k) for k in str(args.periods).split(",") if k != ""),
        "n_policy": args.n_policy,
        "n_explicit": args.n_explicit,
        "policy": args.policy,
        "rebate_kind": args.rebate_kind,
        "unit_price": args.unit_price,
        "qq_k": args.qq_k,
        "ma_window": args.ma_window,
        "poly_degree": args.poly_degree,
        "stationary": args.stationary,
        "regime_override": args.regime_override,
        "seed": args.seed,
    }
    if args.n_explicit is not None:
        merged["n_policy"] = "explicit"
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        try:
            overrides = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LoadError(f"cannot read config {path}: {exc}") from exc
        unknown = set(overrides) - _CONFIG_FIELDS
        if unknown:
            raise LoadError(f"unknown config keys in {path}: {sorted(unknown)}")
        if "periods" in overrides:
            overrides["periods"] = tuple(overrides["periods"])
        merged.update(overrides)
    return RunConfig(**merged)


def _load_inputs(args):
    sales, sales_issues = dataio.load_sales(args.sales)
    claims, claim_issues = dataio.load_claims(args.claims)
    for issue in sales_issues + claim_issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    return sales, claims


def cmd_fit_sales(args) -> int:
    config = _build_config(args)
    sales, issues = dataio.load_sales(args.sales)
    for issue in issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    anchored, _, anchor = dataio.anchor_day_zero(sales, ClaimsTable([], [], []))
    counts, first = pipeline._daily_counts(anchored)
    n = config.items_sold(len(sales))
    params = fit_bass(counts, n, first, bin_width=args.bin_width)
    resid = compute_residuals(counts, first, params)
    print(f"n = {n} sales over {len(counts)} days (anchor raw day {anchor})")
    print(f"innovation p = {params.p:.6e}")
    print(f"imitation  q = {params.q:.6e}")
    print(f"total rate p+q = {params.p + params.q:.6e}")
    print(f"residual std (scaled) = {float(np.std(resid)):.6f}")
    return 0


def cmd_fit_claims(args) -> int:
    config = _build_config(args)
    sales, claims = _load_inputs(args)
    sales, claims, _ = dataio.anchor_day_zero(sales, claims)
    aggregated, joined, _, fitted = pipeline._fit_claims(
        sales, claims, config.warranty, config.items_sold(len(sales))
    )
    print(f"items: {len(sales)}; aggregated claims: {len(aggregated)}")
    print(f"density slope     = {fitted.slope:.6e}")
    print(f"density intercept = {fitted.intercept:.6e}")
    print(f"atom at age 0     = {fitted.atom0:.6f}")
    print(f"atom at age W     = {fitted.atomW:.6f}")
    if joined.quarantined:
        print(f"quarantined claims: {joined.quarantined}", file=sys.stderr)
    return 0


def cmd_diagnose_tail(args) -> int:
    config = _build_config(args)
    claims, issues = dataio.load_claims(args.claims)
    for issue in issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    aggregated = aggregate_daily_claims(claims)
    sizes = aggregated.amount
    if args.truncate_above is not None:
        sizes = sizes[sizes < args.truncate_above]
    k = min(config.qq_k, len(sizes))
    result = diagnose(
        sizes, k, finite_variance_override=config.regime_override == "finite_variance"
    )
    print(f"claims: {len(sizes)} (aggregated per vehicle and day)")
    print(f"mean = {result.mean:.2f}  variance = {result.variance:.2f}")
    q25, q50, q75 = result.quartiles
    print(f"quartiles = {q25:.2f} / {q50:.2f} / {q75:.2f}")
    print(f"tail index (k={k}) = {result.alpha_hat:.2f}")
    print(f"regime = {result.regime.value}")
    return 0


def _run_report(args) -> pipeline.Report:
    config = _build_config(args)
    sales, claims = _load_inputs(args)
    out_dir = Path(args.out_dir) if getattr(args, "out_dir", None) else None
    return run_pipeline(config, sales, claims, out_dir=out_dir)


def cmd_estimate(args) -> int:
    report = _run_report(args)
    print(f"n = {report.n}")
    print(f"sales curve p = {report.bass_p:.6e}, q = {report.bass_q:.6e}")
    if report.tail_alpha is not None:
        print(f"tail index = {report.tail_alpha:.3f} ({report.tail_regime})")
    for res in report.periods:
        t = res.limits.horizon.period
        print(
            f"period [{res.offset}, {res.offset + t}]: "
            f"c1={res.limits.claims_mean:.4f} c2={res.limits.claims_var:.4f} "
            f"fluct_mean={res.limits.fluct_mean:.4f} "
            f"fluct_var={res.limits.fluct_var:.4f}"
        )
    return 0


def cmd_quantiles(args) -> int:
    report = _run_report(args)
    print(report.to_text(), end="")
    return 0


def cmd_report(args) -> int:
    report = _run_report(args)
    print(report.to_text(), end="")
    print(f"\nartifacts written to {args.out_dir}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    n_sales, n_claims = synthesize_dataset(
        out / "sales.csv",
        out / "claims.csv",
        n=args.n_items,
        warranty=args.warranty,
        period=args.period,
        span=args.span,
        bass_p=args.bass_p,
        bass_q=args.bass_q,
        density_slope=args.density_slope,
        density_intercept=args.density_intercept,
        atom0=args.atom0,
        atomW=args.atomW,
        size_mu_log=args.size_mu_log,
        size_sigma_log=args.size_sigma_log,
        seed=args.seed,
    )
    print(f"wrote {n_sales} sales and {n_claims} claims under {out}")
    return 0


def cmd_validate(args) -> int:
    from .sim import (
        LinearShare,
        LognormalSizes,
        MonteCarloStudy,
        NhppSales,
        ParetoSizes,
        PoissonClaims,
        SingleLifetime,
        monte_carlo_validate,
    )

    w, t = args.warranty, args.period
    horizon = TimeHorizon(w, t, 0, args.n_scale)
    share = LinearShare(w, w + t)
    measure = MeanClaimsMeasure(
        args.density_slope, args.density_intercept, args.atom0, args.atomW, w
    )
    if args.theorem == "prorata":
        lifetime = MeanClaimsMeasure(0.0, 1.0 / (2.0 * w), warranty=w)
        study = MonteCarloStudy(
            sales=NhppSales(share),
            claims=SingleLifetime(
                ppf=_UniformLifetime(2.0 * w), warranty=w, mean_measure=lifetime
            ),
            rebate=RebateFunction.linear(w, unit_price=args.unit_price),
            horizon=horizon,
            theorem="prorata",
        )
    else:
        sizes = None
        if args.theorem == "normal":
            sizes = LognormalSizes(args.size_mu_log, args.size_sigma_log)
        elif args.theorem in ("stable_1_2", "stable_0_1"):
            sizes = ParetoSizes(alpha=args.pareto_alpha)
        study = MonteCarloStudy(
            sales=NhppSales(share),
            claims=PoissonClaims(measure),
            rebate=RebateFunction.free_replacement(w),
            horizon=horizon,
            theorem=args.theorem,
            sizes=sizes,
        )
    report = monte_carlo_validate(
        study, reps=args.reps, seed=args.seed, workers=args.workers
    )
    if report.degenerate:
        print("degenerate study: every replication produced zero claims")
        return 0
    print(f"theorem {report.theorem}: {report.reps} replications, seed {report.seed}")
    print(f"KS distance = {report.ks_distance:.4f} (95% DKW band {report.dkw_band:.4f})")
    print("  p      empirical      limit    coverage")
    for lvl, emp, lim, cov in zip(
        report.quantile_levels,
        report.empirical_quantiles,
        report.limit_quantiles,
        report.coverage,
    ):
        print(f"  {lvl:4.2f}  {emp:10.4f}  {lim:10.4f}    {cov:6.4f}")
    if args.json_out:
        payload = asdict(report)
        del payload["degenerate"]
        dataio.write_json_report(payload, args.json_out)
    return 0


class _UniformLifetime:
    """Picklable uniform-[0, top] lifetime quantile function."""

    def __init__(self, top: float):
        self.top = top

    def __call__(self, u):
        return self.top * u


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcast",
        description="forecast the distribution of warranty-claim expenditure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-sales", help="fit the Bass sales curve")
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--bin-width", type=int, default=1)
    p.set_defaults(func=cmd_fit_sales)

    p = sub.add_parser("fit-claims", help="fit the mean claims measure")
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)
    p.set_defaults(func=cmd_fit_claims)

    p = sub.add_parser("diagnose-tail", help="claim-size summary and tail index")
    _add_config_flags(p)
    p.add_argument("--claims", required=True)
    p.add_argument("--truncate-above", type=float, default=None)
    p.set_defaults(func=cmd_diagnose_tail)

    p = sub.add_parser("estimate", help="estimate all limit parameters")
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("quantiles", help="print cost quantile tables")
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)
    p.set_defaults(func=cmd_quantiles)

    p = sub.add_parser("report", help="full report plus plot-data files")
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="write a synthetic sales/claims dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-items", type=int, default=2000)
    p.add_argument("--warranty", type=int, default=200)
    p.add_argument("--period", type=int, default=30)
    p.add_argument("--span", type=int, default=240)
    p.add_argument("--bass-p", type=float, default=2e-3)
    p.add_argument("--bass-q", type=float, default=2.5e-2)
    p.add_argument("--density-slope", type=float, default=-0.5e-5)
    p.add_argument("--density-intercept", type=float, default=5e-3)
    p.add_argument("--atom0", type=float, default=0.1)
    p.add_argument("--atomW", type=float, default=0.04)
    p.add_argument("--size-mu-log", type=float, default=3.0)
    p.add_argument("--size-sigma-log", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="Monte Carlo check of a limit theorem")
    p.add_argument(
        "--theorem",
        choices=("count", "normal", "stable_1_2", "stable_0_1", "prorata"),
        default="normal",
    )
    p.add_argument("--warranty", type=int, default=1096)
    p.add_argument("--period", type=int, default=91)
    p.add_argument("--n-scale", type=int, default=500)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--density-slope", type=float, default=-0.8872e-6)
    p.add_argument("--density-intercept", type=float, default=0.1479e-2)
    p.add_argument("--atom0", type=float, default=0.1330)
    p.add_argument("--atomW", type=float, default=0.0420)
    p.add_argument("--size-mu-log", type=float, default=0.0)
    p.add_argument("--size-sigma-log", type=float, default=0.5)
    p.add_argument("--pareto-alpha", type=float, default=1.5)
    p.add_argument("--unit-price", type=float, default=1.0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValidationError, LoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
