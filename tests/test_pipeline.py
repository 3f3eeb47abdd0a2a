import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from claimcast import engine, pipeline
from claimcast.claims import (
    ClaimsTable,
    SalesTable,
    aggregate_daily_claims,
    join_claims,
)
from claimcast.core import RebateFunction, TimeHorizon
from claimcast.dataio import load_claims, load_sales
from claimcast.engine import approx_quantile
from claimcast.errors import DomainError
from claimcast.pipeline import (
    QUANTILE_LEVELS,
    RunConfig,
    realized_window_totals,
    report_text,
    run_pipeline,
    synthesize_dataset,
)
from claimcast.stable import stable_quantile
from series_csv import read_series

CONFIG = RunConfig(
    warranty=200,
    period=30,
    periods=(0, 1),
    qq_k=400,
    ma_window=10,
    poly_degree=2,
    seed=7,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    synthesize_dataset(
        root / "sales.csv",
        root / "claims.csv",
        n=1500,
        warranty=200,
        span=240,
        bass_p=2e-3,
        bass_q=2.5e-2,
        density_slope=-0.5e-5,
        density_intercept=5e-3,
        atom0=0.1,
        atomW=0.04,
        seed=11,
    )
    return root


@pytest.fixture(scope="module")
def dataset(dataset_dir):
    sales, _ = load_sales(dataset_dir / "sales.csv")
    claims, _ = load_claims(dataset_dir / "claims.csv")
    return sales, claims


class TestRunConfig:
    def test_unknown_n_policy_rejected(self):
        with pytest.raises(DomainError, match="unknown n policy 'shipped_total'"):
            RunConfig(n_policy="shipped_total")

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(n_policy="explicit")
        for n in (0, -5):  # a count of items sold is at least 1
            with pytest.raises(DomainError, match="n_explicit >= 1"):
                RunConfig(n_policy="explicit", n_explicit=n)
        with pytest.raises(DomainError):
            RunConfig(policy="warranty-of-the-month")
        with pytest.raises(DomainError):
            RunConfig(periods=(0, 3))
        with pytest.raises(DomainError):
            RunConfig(regime_override="stable_0_1")
        for policy in RunConfig.POLICIES:  # the rule --rebate-kind applies
            with pytest.raises(DomainError):
                RunConfig(policy=policy, rebate_kind="free_replacement")

    @pytest.mark.parametrize(
        "clock",
        [dict(warranty=2), dict(warranty=2, period=1), dict(warranty=100),
         dict(warranty=182), dict(period=0), dict(period=-3)],
        ids=lambda clock: ",".join(f"{k}={v}" for k, v in clock.items()),
    )
    def test_clock_outside_the_horizon_rule_rejected(self, clock):
        # the rule TimeHorizon applies, before any load: T >= 1, 2T < W
        with pytest.raises(DomainError, match="period"):
            RunConfig(**clock)

    @pytest.mark.parametrize(
        "setting",
        [dict(qq_k=1), dict(qq_k=-5), dict(ma_window=0), dict(poly_degree=-1),
         dict(unit_price=0.0), dict(unit_price=-2.5), dict(unit_price=float("nan"))],
        ids=lambda setting: ",".join(f"{k}={v}" for k, v in setting.items()),
    )
    def test_stage_settings_rejected_before_any_load(self, setting):
        with pytest.raises(DomainError, match="must be"):
            RunConfig(**setting)

    def test_smallest_stage_settings_accepted(self):
        config = RunConfig(qq_k=2, ma_window=1, poly_degree=0, unit_price=1e-9)
        assert config.qq_k == 2 and config.poly_degree == 0

    def test_smallest_clocks_accepted(self):
        assert RunConfig(warranty=3, period=1).warranty == 3
        assert RunConfig(warranty=183).period == 91

    def test_empty_periods_rejected(self):
        # a report with no forecast window forecasts nothing
        with pytest.raises(DomainError, match="non-empty"):
            RunConfig(periods=())

    def test_digest_stable_and_sensitive(self):
        assert RunConfig().digest() == RunConfig().digest()
        assert RunConfig().digest() != RunConfig(seed=1).digest()

    @pytest.mark.parametrize(
        "setting, want",
        [
            (dict(), RebateFunction.free_replacement(1096)),
            (dict(unit_price=250.0), RebateFunction("free_replacement", 1096, 250.0)),
            (dict(policy="prorata"), RebateFunction.linear(1096, 1.0)),
            (
                dict(policy="prorata", rebate_kind="quadratic", unit_price=250.0),
                RebateFunction.quadratic(1096, 250.0),
            ),
        ],
        ids=["free_replacement", "free_replacement-priced", "linear", "quadratic"],
    )
    def test_rebate_follows_the_policy_and_kind(self, setting, want):
        assert RunConfig(**setting).rebate() == want


class TestRunPipeline:
    def test_report_structure(self, dataset):
        sales, claims = dataset
        report = run_pipeline(CONFIG, sales, claims)
        assert report["n"] == len(sales)
        assert report["sales_curve"]["p"] > 0.0
        assert len(report["periods"]) == 2
        for res in report["periods"]:
            assert res["limits"]["claims_mean"] > 0.0
            assert set(res["quantiles"])  # at least one approximation column
            for column in res["quantiles"].values():
                qs = [column[str(p)] for p in QUANTILE_LEVELS]
                assert np.all(np.diff(qs) > 0.0)

    def test_quantile_block_matches_engine_outputs(self, dataset):
        # plumbing identity: the table is exactly the approximations'
        # quantiles at the stated levels
        sales, claims = dataset
        report = run_pipeline(CONFIG, sales, claims)
        from claimcast.engine import LimitParams, cost_approx_normal, cost_approx_stable

        res, tail = report["periods"][0], report["tail"]
        horizon = TimeHorizon(CONFIG.warranty, CONFIG.period, 0, report["n"])
        limits = LimitParams(horizon=horizon, **res["limits"])
        quantiles = res["quantiles"]
        if "normal" in quantiles:
            size_var = tail["size_variance"]
            approx = cost_approx_normal(limits, tail["size_mean"], size_var)
            for p, q in quantiles["normal"].items():
                assert q == pytest.approx(approx_quantile(approx, float(p)), rel=1e-12)
        if "stable" in quantiles:
            approx = cost_approx_stable(limits, tail["alpha"], tail["size_mean"])
            for p, q in quantiles["stable"].items():
                assert q == pytest.approx(approx_quantile(approx, float(p)), rel=1e-9)

    def test_deterministic_artifacts(self, dataset, tmp_path):
        sales, claims = dataset
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_pipeline(CONFIG, sales, claims, out_dir=out1)
        run_pipeline(CONFIG, sales, claims, out_dir=out2)
        for name in ("report.txt", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_artifact_series_round_trip(self, dataset, tmp_path):
        sales, claims = dataset
        out = tmp_path / "artifacts"
        run_pipeline(CONFIG, sales, claims, out_dir=out)
        expected = {
            "mean_measure_bins.csv",
            "mean_measure_fit.csv",
            "daily_sales.csv",
            "sales_fit.csv",
            "residuals.csv",
            "size_density.csv",
            "size_qq.csv",
            "report.txt",
            "report.json",
        }
        assert {p.name for p in out.iterdir()} == expected
        days, counts = read_series(out / "daily_sales.csv")
        assert counts.sum() == len(sales)
        payload = json.loads((out / "report.json").read_text())
        assert payload["n"] == len(sales)
        assert len(payload["periods"]) == 2
        # every emitted series re-parses to the exact same bytes
        for csv_file in sorted(out.glob("*.csv")):
            x, y = read_series(csv_file)
            clone = out / f"clone_{csv_file.name}"
            from claimcast.dataio import write_series

            header = csv_file.read_text().splitlines()[0].split(",")
            write_series(clone, header[0], x, header[1], y)
            assert clone.read_bytes() == csv_file.read_bytes()
            clone.unlink()

    def test_prorata_policy_single_column(self, dataset):
        sales, claims = dataset
        config = RunConfig(
            warranty=200,
            period=30,
            periods=(0,),
            policy="prorata",
            rebate_kind="linear",
            unit_price=400.0,
            qq_k=400,
            ma_window=10,
            poly_degree=2,
        )
        report = run_pipeline(config, sales, claims)
        assert set(report["periods"][0]["quantiles"]) == {"prorata"}
        assert report["tail"]["alpha"] is None

    def test_prorata_sanity_omits_the_count_law(self, dataset):
        # the r-weighted moments give the law of the summed rebates, which
        # says nothing about the claim count
        sales, claims = dataset
        config = RunConfig(
            warranty=200,
            period=30,
            periods=(0,),
            policy="prorata",
            unit_price=250.0,
            qq_k=400,
            ma_window=10,
            poly_degree=2,
        )
        sanity = run_pipeline(config, sales, claims)["periods"][0]["sanity"]
        assert set(sanity) == {
            "actual_count",
            "actual_cost",
            "cost_cdf_prorata",
            "cost_extremeness_prorata",
        }

    def test_regime_override_forces_normal_only(self, dataset):
        sales, claims = dataset
        config = RunConfig(
            warranty=200,
            period=30,
            periods=(0,),
            qq_k=400,
            ma_window=10,
            poly_degree=2,
            regime_override="finite_variance",
        )
        report = run_pipeline(config, sales, claims)
        assert set(report["periods"][0]["quantiles"]) == {"normal"}
        assert report["tail"]["regime"] == "finite_variance"

    def test_sanity_block_present_when_window_claims_exist(self, dataset):
        # synthetic claims extend past the last sale date, so the first
        # forecast window has realized claims to check against
        sales, claims = dataset
        sanity = run_pipeline(CONFIG, sales, claims)["periods"][0]["sanity"]
        assert "count_cdf" in sanity
        assert 0.0 <= sanity["count_cdf"] <= 1.0
        assert sanity["count_extremeness"] == pytest.approx(
            2.0 * min(sanity["count_cdf"], 1.0 - sanity["count_cdf"])
        )

    def test_empty_sales_rejected(self):
        with pytest.raises(DomainError):
            run_pipeline(CONFIG, SalesTable([], []), ClaimsTable([], [], []))

    def test_heavy_tailed_sizes_produce_both_columns(self):
        # Pareto(1.5) claim amounts put the tail index inside (1, 2); the
        # report then carries the normal and stable columns side by side
        config = replace(HEAVY_CONFIG, periods=(0,))
        report = run_pipeline(config, *heavy_tailed_tables(1.5))
        assert report["tail"]["regime"] == "stable_1_2"
        quantiles = report["periods"][0]["quantiles"]
        assert set(quantiles) == {"normal", "stable"}
        text = report_text(report, config.period)
        assert "normal" in text and "stable" in text
        # heavy tail: extreme stable quantiles stay below the normal ones'
        # growth only near the center; both columns must be monotone
        for column in quantiles.values():
            qs = [column[str(p)] for p in QUANTILE_LEVELS]
            assert np.all(np.diff(qs) > 0)

    @pytest.mark.parametrize(
        "tail_index, regime, calls", [(1.5, "stable_1_2", 1), (0.7, "stable_0_1", 2)]
    )
    def test_one_stable_quantile_call_per_distinct_law(self, tail_index, regime, calls):
        # for 1 < alpha < 2 both windows share the standard law; below 1 the
        # law depends on each window's claim rate c1
        spy = mock.Mock(wraps=stable_quantile)
        with mock.patch.object(pipeline, "stable_quantile", spy), mock.patch.object(
            engine, "stable_quantile", spy
        ):
            report = run_pipeline(HEAVY_CONFIG, *heavy_tailed_tables(tail_index))
        assert report["tail"]["regime"] == regime
        assert len(report["periods"]) == 2
        assert spy.call_count == calls


HEAVY_CONFIG = RunConfig(
    warranty=200, period=30, periods=(0, 1), qq_k=500, ma_window=10, poly_degree=2
)


def heavy_tailed_tables(tail_index):
    """3000 sold items, about 0.9 claims each, Pareto(tail_index) amounts."""
    rng = np.random.default_rng(55)
    span, w = 240, 200
    sales = []
    claims = []
    for i in range(3000):
        vid = f"H{i:05d}"
        day = int(rng.integers(1, span + 1))
        sales.append((vid, day))
        for _ in range(int(rng.poisson(0.9))):
            age = int(rng.integers(0, w + 1))
            amount = float(20.0 * rng.uniform() ** (-1.0 / tail_index))
            claims.append((vid, day + age, amount))
    return SalesTable(*zip(*sales)), ClaimsTable(*zip(*claims))


def brute_force_window_totals(sales, claims, horizon):
    """Per-claim filter over merged same-day claims of known vehicles."""
    sold = dict(zip(sales.vehicle_id.tolist(), sales.day.tolist()))
    merged = {}
    for vid, day, amount in zip(
        claims.vehicle_id.tolist(), claims.day.tolist(), claims.amount.tolist()
    ):
        merged[(vid, day)] = merged.get((vid, day), 0.0) + amount
    o, t, w = horizon.offset, horizon.period, horizon.warranty
    count, cost = 0, 0.0
    for (vid, day), amount in merged.items():
        if vid not in sold:
            continue
        age = min(max(day - sold[vid], 0), w)
        if o <= sold[vid] + age <= t + o:
            count += 1
            cost += amount
    return count, cost


def report_files(config, root, out):
    """The files ``run_pipeline`` writes from the CSV pair in ``root``."""
    sales, _ = load_sales(root / "sales.csv")
    claims, _ = load_claims(root / "claims.csv")
    run_pipeline(config, sales, claims, out_dir=out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestVehicleIdSpelling:
    """Only which rows share a vehicle id reaches the report, not how the
    ids are spelled: renamed ids give the same files byte for byte."""

    @pytest.mark.parametrize("policy", ["free_replacement", "prorata"])
    @pytest.mark.parametrize(
        "spelling",
        ["VEHICLE-V", "Ü", "ÜV"],
        # 15 bytes, compared as bytes; 8 bytes of UTF-8 from csv.reader,
        # packed; 9 bytes from csv.reader, compared as bytes
        ids=["past_8_bytes", "non_ascii_packed", "non_ascii_past_8_bytes"],
    )
    def test_renamed_ids_give_the_same_report(self, dataset_dir, tmp_path, policy, spelling):
        config = replace(CONFIG, policy=policy, unit_price=250.0)
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for name in ("sales.csv", "claims.csv"):
            lines = (dataset_dir / name).read_bytes().splitlines(keepends=True)
            assert all(line.startswith(b"V") for line in lines[1:])
            body = b"".join(spelling.encode() + line[1:] for line in lines[1:])
            (renamed / name).write_bytes(lines[0] + body)
        sales, _ = load_sales(renamed / "sales.csv")
        assert sales.vehicle_id.dtype.itemsize == len(spelling.encode()) + 6
        want = report_files(config, dataset_dir, tmp_path / "original")
        assert len(want) >= 7
        assert report_files(config, renamed, tmp_path / "out") == want


class TestRealizedWindowTotals:
    def test_hand_cases(self):
        w, t = 200, 30
        horizon = TimeHorizon(w, t)
        sales = SalesTable(["A", "B", "C", "D"], [-10, -5, -190, -250])
        claims = ClaimsTable(
            ["A", "A", "A", "B", "C", "GHOST", "D"],
            # A: two claims on day 3 merge, one dated before its sale;
            # B: dated past W, clipped to age W (day 195, outside [0, 30]);
            # C: dated past W, clipped to age W (day 10, inside);
            # D: sold before -W, never in the window
            [3, 3, -20, 400, 50, 5, 0],
            [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        )
        joined = join_claims(sales, aggregate_daily_claims(claims), w)
        # A at day 3 (3.0), A before the sale -> age 0, day -10 (out),
        # C clipped to day 10 (16.0)
        assert realized_window_totals(sales, joined, horizon) == (2, 19.0)
        assert brute_force_window_totals(sales, claims, horizon) == (2, 19.0)

    @pytest.mark.parametrize("offset", [0, 30])
    def test_matches_brute_force(self, offset):
        w, t = 200, 30
        horizon = TimeHorizon(w, t, offset)
        rng = np.random.default_rng(60 + offset)
        sales = SalesTable(
            [f"v{i}" for i in range(60)], rng.integers(-260, 0, size=60)
        )
        k = 400
        vids = [f"v{i}" for i in rng.integers(0, 70, size=k)]  # some unknown
        days = rng.integers(-300, 2 * t + 40, size=k)
        days[:40] = days[40:80]  # same-day duplicates
        vids[:40] = vids[40:80]
        claims = ClaimsTable(vids, days, rng.uniform(0, 10, size=k))
        joined = join_claims(sales, aggregate_daily_claims(claims), w)
        count, cost = realized_window_totals(sales, joined, horizon)
        want_count, want_cost = brute_force_window_totals(sales, claims, horizon)
        assert count == want_count > 0
        assert cost == pytest.approx(want_cost, rel=1e-12)
