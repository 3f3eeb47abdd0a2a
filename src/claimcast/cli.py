"""Command-line interface.

Subcommands mirror the pipeline stages: ``fit-sales``, ``fit-claims`` and
``diagnose-tail`` run single stages on CSV inputs; ``report`` runs the whole
estimation, prints the forecast and, given ``--out-dir``, writes the report
files and plot data; ``simulate`` writes a synthetic dataset; ``validate``
runs the Monte Carlo check of a distributional limit.

A JSON config file named by ``--config`` overrides any command-line flags
it names; flags left out take their defaults from :class:`RunConfig`
(``simulate``: from :func:`synthesize_dataset`).  Exit codes: 0 on
success, 2 for input/validation problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import operator
import sys
from dataclasses import asdict
from pathlib import Path
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from . import dataio, pipeline
from .claims import ClaimsTable, aggregate_daily_claims
from .core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from .errors import DomainError, FitError, LoadError, NumericalError, ValidationError
from .pipeline import RunConfig, report_text, run_pipeline, synthesize_dataset
from .sales import compute_residuals, fit_bass
from .tails import diagnose

_CONFIG_TYPES = {  # the fields, without the tuples of allowed values
    name: hint
    for name, hint in get_type_hints(RunConfig).items()
    if get_origin(hint) is not ClassVar
}


def _json_fits(value, hint) -> bool:
    """Whether a config file's JSON value fits a RunConfig field's type:
    bools only where a bool is meant, ints also for floats, lists for
    tuples, and null for the optional fields."""
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float))
    if hint in (int, str):
        return isinstance(value, hint)
    inner = get_args(hint)[0]
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_fits(v, inner) for v in value)
    return value is None or _json_fits(value, inner)  # Optional[inner]


def _periods(raw: str) -> tuple:
    return tuple(int(k) for k in raw.split(",") if k != "")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """RunConfig flags; the parser suppresses absent ones, so their
    defaults are RunConfig's."""
    parser.add_argument("--config", help="JSON config file; its entries override flags")
    parser.add_argument("--warranty", type=int, help="warranty days (W)")
    parser.add_argument("--period", type=int, help="forecast days (T)")
    parser.add_argument(
        "--periods",
        type=_periods,
        help="comma-separated window indices (0 -> [0,T], 1 -> [T,2T])",
    )
    parser.add_argument("--n-policy", choices=RunConfig.N_POLICIES)
    parser.add_argument(
        "--n", dest="n_explicit", type=int, help="items sold; selects the explicit policy"
    )
    parser.add_argument("--policy", choices=RunConfig.POLICIES)
    parser.add_argument("--rebate-kind", choices=RunConfig.REBATE_KINDS)
    parser.add_argument("--unit-price", type=float)
    parser.add_argument("--qq-k", type=int)
    parser.add_argument("--ma-window", type=int)
    parser.add_argument("--poly-degree", type=int)
    parser.add_argument(
        "--stationary",
        action="store_true",
        help="treat the sales residuals as already stationary",
    )
    parser.add_argument(
        "--regime",
        dest="regime_override",
        choices=RunConfig.REGIME_OVERRIDES,
        help="force the finite-variance limit regardless of the tail index",
    )
    parser.add_argument("--seed", type=int)


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The given flags, overridden by the config file's entries; a named
    ``n_explicit`` selects the explicit n policy unless one is named."""
    merged = {k: v for k, v in vars(args).items() if k in _CONFIG_TYPES}
    path = getattr(args, "config", None)
    if path:
        try:
            overrides = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LoadError(f"cannot read config {path}: {exc}") from exc
        unknown = set(overrides) - set(_CONFIG_TYPES)
        if unknown:
            raise LoadError(f"unknown config keys in {path}: {sorted(unknown)}")
        for key, value in overrides.items():
            if not _json_fits(value, _CONFIG_TYPES[key]):
                raise LoadError(f"config key {key!r} in {path}: wrong type {value!r}")
        if "periods" in overrides:
            overrides["periods"] = tuple(overrides["periods"])
        merged.update(overrides)
    if merged.get("n_explicit") is not None:
        merged.setdefault("n_policy", "explicit")
    return RunConfig(**merged)


def _print_row_issues(issues) -> None:
    for issue in issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)


def _load_inputs(args):
    sales, sales_issues = dataio.load_sales(args.sales)
    claims, claim_issues = dataio.load_claims(args.claims)
    _print_row_issues(sales_issues + claim_issues)
    return sales, claims


def cmd_fit_sales(args) -> int:
    config = _build_config(args)
    sales, issues = dataio.load_sales(args.sales)
    _print_row_issues(issues)
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
    _print_row_issues(issues)
    aggregated = aggregate_daily_claims(claims)
    sizes = aggregated.amount
    if args.truncate_above is not None:
        sizes = sizes[sizes < args.truncate_above]
    result = diagnose(
        sizes,
        config.qq_k,
        finite_variance_override=config.regime_override == "finite_variance",
    )
    print(f"claims: {len(sizes)} (aggregated per vehicle and day)")
    print(f"mean = {result.mean:.2f}  variance = {result.variance:.2f}")
    q25, q50, q75 = result.quartiles
    print(f"quartiles = {q25:.2f} / {q50:.2f} / {q75:.2f}")
    print(f"tail index (k={config.qq_k}) = {result.alpha_hat:.2f}")
    print(f"regime = {result.regime.value}")
    return 0


def cmd_report(args) -> int:
    config = _build_config(args)
    sales, claims = _load_inputs(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    report = run_pipeline(config, sales, claims, out_dir=out_dir)
    print(report_text(report, config.period), end="")
    if out_dir is not None:
        print(f"\nartifacts written to {args.out_dir}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    given = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")
    }
    out = Path(args.out_dir)
    n_sales, n_claims = synthesize_dataset(out / "sales.csv", out / "claims.csv", **given)
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
        # lifetimes uniform on [0, 2W]: u -> 2W u, a partial so that it pickles
        lifetime = MeanClaimsMeasure(0.0, 1.0 / (2.0 * w), warranty=w)
        study = MonteCarloStudy(
            sales=NhppSales(share),
            claims=SingleLifetime(
                ppf=functools.partial(operator.mul, 2.0 * w), mean_measure=lifetime
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcast",
        description="forecast the distribution of warranty-claim expenditure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        # flags without an explicit default stay out of the namespace, so
        # RunConfig and synthesize_dataset state every default once
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("fit-sales", "fit the Bass sales curve", cmd_fit_sales)
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--bin-width", type=int, default=1)

    p = command("fit-claims", "fit the mean claims measure", cmd_fit_claims)
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)

    p = command("diagnose-tail", "claim-size summary and tail index", cmd_diagnose_tail)
    _add_config_flags(p)
    p.add_argument("--claims", required=True)
    p.add_argument("--truncate-above", type=float, default=None)

    p = command("report", "forecast report, plus plot data with --out-dir", cmd_report)
    _add_config_flags(p)
    p.add_argument("--sales", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--out-dir", default=None, help="directory for report and plot files")

    p = command("simulate", "write a synthetic sales/claims dataset", cmd_simulate)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-items", dest="n", metavar="N_ITEMS", type=int)
    for flag in ("--warranty", "--span", "--seed"):
        p.add_argument(flag, type=int)
    for flag in ("--bass-p", "--bass-q", "--density-slope", "--density-intercept",
                 "--atom0", "--atomW", "--size-mu-log", "--size-sigma-log"):
        p.add_argument(flag, type=float)

    p = command("validate", "Monte Carlo check of a limit theorem", cmd_validate)
    p.add_argument(
        "--theorem",
        choices=("count", "normal", "stable_1_2", "stable_0_1", "prorata"),
        default="normal",
    )
    p.add_argument("--warranty", type=int, default=RunConfig.warranty)
    p.add_argument("--period", type=int, default=RunConfig.period)
    p.add_argument("--n-scale", type=int, default=500)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    # the car-study claims measure, as simulated datasets have it
    dataset = inspect.signature(synthesize_dataset).parameters
    for flag in ("--density-slope", "--density-intercept", "--atom0", "--atomW"):
        default = dataset[flag[2:].replace("-", "_")].default
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--size-mu-log", type=float, default=0.0)
    p.add_argument("--size-sigma-log", type=float, default=0.5)
    p.add_argument("--pareto-alpha", type=float, default=1.5)
    p.add_argument("--unit-price", type=float, default=1.0)
    p.add_argument("--json-out", default=None)

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
