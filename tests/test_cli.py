import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from claimcast.claims import aggregate_daily_claims
from claimcast.cli import _build_config, build_parser, main
from claimcast.dataio import load_claims, load_sales
from claimcast.errors import DomainError
from claimcast.pipeline import RunConfig, report_text, run_pipeline, synthesize_dataset

COMMON = ["--warranty", "200", "--period", "30", "--qq-k", "300", "--ma-window", "10",
          "--poly-degree", "2"]

# the Bass curve and claims measure of a 200-day warranty study, which COMMON
# assumes; simulate's defaults are the car study's
SMALL_STUDY = ["--bass-p", "2e-3", "--bass-q", "2.5e-2", "--density-slope=-0.5e-5",
               "--density-intercept", "5e-3", "--atom0", "0.1", "--atomW", "0.04"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = main(
        [
            "simulate",
            "--out-dir",
            str(root),
            "--n-items",
            "1200",
            "--warranty",
            "200",
            "--span",
            "240",
            "--seed",
            "3",
            *SMALL_STUDY,
        ]
    )
    assert rc == 0
    return root


def data_args(root):
    return ["--sales", str(root / "sales.csv"), "--claims", str(root / "claims.csv")]


@pytest.fixture(scope="module")
def ghost_dir(dataset_dir, tmp_path_factory):
    """The CLI dataset with one more claim, on a vehicle that was never sold."""
    root = tmp_path_factory.mktemp("cli_ghost")
    (root / "sales.csv").write_bytes((dataset_dir / "sales.csv").read_bytes())
    claims = (dataset_dir / "claims.csv").read_bytes() + b"GHOST01,100,C_GHOST,5.00\r\n"
    (root / "claims.csv").write_bytes(claims)
    return root


class TestSubcommands:
    def test_fit_sales(self, dataset_dir, capsys):
        rc = main(["fit-sales", "--sales", str(dataset_dir / "sales.csv"), *COMMON])
        assert rc == 0
        out = capsys.readouterr().out
        assert "innovation p" in out
        assert "total rate p+q" in out

    def test_fit_claims(self, dataset_dir, capsys):
        rc = main(["fit-claims", *data_args(dataset_dir), *COMMON])
        assert rc == 0
        out = capsys.readouterr().out
        assert "density slope" in out
        assert "atom at age 0" in out

    def test_fit_claims_reports_quarantined_claims(self, ghost_dir, capsys):
        assert main(["fit-claims", *data_args(ghost_dir), *COMMON]) == 0
        assert capsys.readouterr().err == "quarantined claims: 1\n"

    def test_report_prints_quarantined_claims(self, ghost_dir, capsys):
        assert main(["report", *data_args(ghost_dir), *COMMON]) == 0
        assert "\nquarantined claims (unknown vehicles): 1\n" in capsys.readouterr().out

    def test_diagnose_tail_truncates_above(self, dataset_dir, capsys):
        claims, _ = load_claims(dataset_dir / "claims.csv")
        amount = aggregate_daily_claims(claims).amount
        cut = float(np.median(amount))
        argv = ["diagnose-tail", "--claims", str(dataset_dir / "claims.csv"), *COMMON]
        assert main([*argv, "--qq-k", "100", "--truncate-above", str(cut)]) == 0
        kept = int(np.count_nonzero(amount < cut))
        assert 0 < kept < len(amount)
        out = capsys.readouterr().out
        assert out.startswith(f"claims: {kept} (aggregated per vehicle and day)\n")

    def test_diagnose_tail(self, dataset_dir, capsys):
        rc = main(
            ["diagnose-tail", "--claims", str(dataset_dir / "claims.csv"), *COMMON]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tail index" in out
        assert "regime" in out

    def test_estimate(self, dataset_dir, capsys):
        # report without --out-dir prints the c1 and fluctuation estimates
        rc = main(["report", *data_args(dataset_dir), *COMMON])
        assert rc == 0
        out = capsys.readouterr().out
        assert "c1=" in out and "fluct var=" in out

    def test_quantiles(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # report without --out-dir prints the quantiles and writes nothing
        monkeypatch.chdir(tmp_path)
        rc = main(["report", *data_args(dataset_dir), *COMMON])
        assert rc == 0
        captured = capsys.readouterr()
        assert "0.99" in captured.out
        assert "period [0, 30]" in captured.out
        assert "artifacts" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_report_writes_artifacts(self, dataset_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(
            ["report", *data_args(dataset_dir), "--out-dir", str(out_dir), *COMMON]
        )
        assert rc == 0
        assert (out_dir / "report.txt").exists()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["provenance"]["config"]
        assert (out_dir / "size_qq.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [[], ["--policy", "prorata", "--unit-price", "250"]],
        ids=["free_replacement", "prorata"],
    )
    def test_printed_report_is_the_report_file(
        self, dataset_dir, tmp_path, capsys, flags
    ):
        # stdout, report.txt and report_text of the returned payload agree
        argv = ["report", *data_args(dataset_dir), *COMMON, *flags]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == (out_dir / "report.txt").read_bytes()
        config = _build_config(build_parser().parse_args(argv))
        sales, _ = load_sales(dataset_dir / "sales.csv")
        claims, _ = load_claims(dataset_dir / "claims.csv")
        assert report_text(run_pipeline(config, sales, claims), config.period) == printed
        assert ("prorata" in printed) == bool(flags)

    def test_validate_small_run(self, tmp_path, capsys):
        rc = main(
            [
                "validate",
                "--theorem",
                "count",
                "--warranty",
                "200",
                "--period",
                "30",
                "--n-scale",
                "150",
                "--reps",
                "120",
                "--seed",
                "1",
                "--density-slope=-0.5e-5",
                "--density-intercept",
                "5e-3",
                "--atom0",
                "0.1",
                "--atomW",
                "0.04",
                "--json-out",
                str(tmp_path / "validate.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "KS distance" in out
        assert "95% DKW band 0.1242" in out  # 1.36 / sqrt(120)
        payload = json.loads((tmp_path / "validate.json").read_text())
        assert payload["dkw_band"] == pytest.approx(1.36 / 120**0.5, rel=1e-15)

    def test_validate_degenerate_study(self, tmp_path, capsys):
        # no claims at any age: every replication counts zero claims
        zero = ["--density-slope", "0", "--density-intercept", "0", "--atom0", "0",
                "--atomW", "0"]
        out = tmp_path / "validate.json"
        argv = ["validate", "--theorem", "count", "--reps", "100", "--json-out", str(out)]
        assert main([*argv, *zero]) == 0
        printed = capsys.readouterr().out
        assert printed == "degenerate study: every replication produced zero claims\n"
        assert not out.exists()


class TestExitCodes:
    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        rc = main(
            ["fit-sales", "--sales", str(tmp_path / "nope.csv"), *COMMON]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("warranty", [2, 100])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    def test_report_rejects_the_clock_before_loading(
        self, tmp_path, capsys, warranty, via_config
    ):
        # the input files do not exist: the config is rejected first
        argv = ["report", *data_args(tmp_path)]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"warranty": warranty}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--warranty", str(warranty)]
        assert main(argv) == 2
        assert f"need 2*period < warranty, got T=91, W={warranty}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--qq-k", "0"], "qq_k must be at least 2"),
         (["--qq-k", "1"], "qq_k must be at least 2"),
         (["--ma-window", "0"], "ma_window must be at least 1"),
         (["--poly-degree", "-1"], "poly_degree must be at least 0"),
         (["--unit-price", "0"], "unit price must be positive"),
         (["--policy", "prorata", "--unit-price", "-1"], "unit price must be positive"),
         (["--policy", "prorata", "--unit-price", "inf"], "unit price must be positive")],
        ids=["qq_k_0", "qq_k_1", "ma_window_0", "poly_degree_-1", "unit_price_0",
             "prorata_unit_price_-1", "prorata_unit_price_inf"],
    )
    def test_report_rejects_stage_settings_before_loading(
        self, tmp_path, capsys, flags, message
    ):
        # the input files do not exist: the config is rejected first
        assert main(["report", *data_args(tmp_path), *flags]) == 2
        assert message in capsys.readouterr().err

    def test_bin_width_leaving_one_bin_is_validation_error(self, dataset_dir, capsys):
        sales = dataset_dir / "sales.csv"
        rc = main(["fit-sales", "--sales", str(sales), *COMMON, "--bin-width", "200"])
        assert rc == 2
        assert "error: need at least 2 bins of 200 days to fit" in capsys.readouterr().err

    def test_degenerate_bass_fit_is_numerical_failure(self, tmp_path, capsys):
        from test_sales import DEGENERATE_SERIES

        days = np.repeat(np.arange(DEGENERATE_SERIES.size), DEGENERATE_SERIES.astype(int))
        sales = tmp_path / "sales.csv"
        sales.write_text(
            "vehicle_id,sale_date\n"
            + "".join(f"V{i:06d},{day}\n" for i, day in enumerate(days))
        )
        rc = main(["fit-sales", "--sales", str(sales), *COMMON, "--bin-width", "30"])
        assert rc == 3
        assert "numerical failure: Bass fit degenerate" in capsys.readouterr().err

    def test_numerical_failure_is_exit_3(self, dataset_dir, capsys):
        rc = main(
            [
                "report",
                *data_args(dataset_dir),
                "--warranty",
                "200",
                "--period",
                "30",
                "--qq-k",
                "300",
                "--ma-window",
                "10",
                "--poly-degree",
                "500",
            ]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_forecast_is_numerical_failure(self, dataset_dir, capsys):
        rc = main(["report", *data_args(dataset_dir), *COMMON, "--policy", "prorata",
                   "--unit-price", "1e200"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: cost approximation not finite" in err

    def test_overflowing_stable_scalers_are_numerical_failure(self, capsys):
        # b(n) = n^100 overflows at n = 34807: exit 3, not an OverflowError
        rc = main(["validate", "--theorem", "stable_0_1", "--pareto-alpha", "0.01",
                   "--n-scale", "34807", "--reps", "100"])
        assert rc == 3
        assert "numerical failure: stable scaler b(n) overflows" in capsys.readouterr().err

    def test_overflowing_validation_is_numerical_failure(self, capsys):
        rc = main(["validate", "--theorem", "prorata", "--unit-price", "1e200",
                   "--reps", "100"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: cost approximation not finite" in err

    def test_bad_qq_k_is_validation_error(self, dataset_dir, capsys):
        rc = main(
            [
                "diagnose-tail",
                "--claims",
                str(dataset_dir / "claims.csv"),
                "--warranty",
                "200",
                "--period",
                "30",
                "--qq-k",
                "1",
            ]
        )
        assert rc == 2

    def test_qq_k_above_claim_count_is_validation_error(self, dataset_dir, capsys):
        # the tail index is never taken from fewer order statistics than asked
        claims = str(dataset_dir / "claims.csv")
        rc = main(["diagnose-tail", "--claims", claims, "--qq-k", "100000"])
        assert rc == 2
        assert "need 2 <= k <= sample size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tail",
        [b"V,9,C\xe9,1.0\n", b'V,9,"' + b"x" * 200_000 + b'",1.0\n'],
        ids=["not_utf8", "field_past_csv_limit"],
    )
    def test_unreadable_claims_file_is_validation_error(self, tmp_path, capsys, tail):
        claims = tmp_path / "claims.csv"
        rows = "".join(f"V{i},{100 + i},C{i},1.0\n" for i in range(100))
        header = b"vehicle_id,claim_date,claim_id,amount\n"
        claims.write_bytes(header + rows.encode() + tail)
        rc = main(["diagnose-tail", "--claims", str(claims), "--qq-k", "10"])
        assert rc == 2
        assert f"error: {claims}: read failed after line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "day, error",
        [
            (9_223_372_036_854_775_807, "day 0 is past int64"),
            (900_000_000_000, "they span more than the 3652059 days of ISO dates"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit-sales", "report"])
    def test_extreme_sale_day_is_validation_error(
        self, dataset_dir, tmp_path, capsys, command, day, error
    ):
        sales = tmp_path / "sales.csv"
        first = int(load_sales(dataset_dir / "sales.csv")[0].day.min())
        extreme = f"X000001,{day}\r\n".encode()
        sales.write_bytes((dataset_dir / "sales.csv").read_bytes() + extreme)
        claims = ["--claims", str(dataset_dir / "claims.csv")] if command == "report" else []
        rc = main([command, "--sales", str(sales), *claims, *COMMON])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: cannot anchor sale days {first} to {day}: {error}"
        )

    @pytest.mark.parametrize(
        "rows,issues,error",
        [
            (["A,1", ",2", "C,x", "D,4"],
             ["line 3: empty vehicle_id", "line 4: unparseable sale_date 'x'"],
             "2 of 4 rows malformed (over the 1% budget)"),
            ([f"V{i},{i}" for i in range(200)] + [",5", "V7,9"],
             ["line 202: empty vehicle_id"], "duplicate sales rows for vehicle 'V7'"),
            ([f"V{i},{i}" for i in range(200)] + [",5", "V\xe9,9"],
             ["line 202: empty vehicle_id"], "read failed after line 202"),
        ],
        ids=["over_budget", "repeated_id", "read_error"],
    )
    def test_failed_load_prints_its_row_issues(self, tmp_path, capsys, rows, issues, error):
        # the issues found before the load failed come first, then the error
        sales = tmp_path / "sales.csv"
        body = "vehicle_id,sale_date\n" + "".join(row + "\n" for row in rows)
        sales.write_bytes(body.encode("latin-1"))
        rc = main(["fit-sales", "--sales", str(sales), *COMMON])
        assert rc == 2
        *warnings, last = capsys.readouterr().err.splitlines()
        assert warnings == [f"warning: {issue}" for issue in issues]
        assert last.startswith(f"error: {sales}: ") and error in last

    def test_negative_explicit_n_is_validation_error(self, dataset_dir, capsys):
        rc = main(["fit-sales", "--sales", str(dataset_dir / "sales.csv"), "--n", "-5"])
        assert rc == 2
        assert "error: explicit n policy needs n_explicit >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("periods", ["", ","])
    def test_empty_periods_is_validation_error(self, dataset_dir, capsys, periods):
        rc = main(["report", *data_args(dataset_dir), *COMMON, "--periods", periods])
        assert rc == 2
        captured = capsys.readouterr()
        assert "periods must be a non-empty selection" in captured.err
        assert "period [" not in captured.out

    def test_empty_periods_in_config_file_is_validation_error(
        self, dataset_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"periods": []}))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2
        assert "periods must be a non-empty selection" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--theorem", "stable_0_1"],  # the default --pareto-alpha 1.5
            ["--theorem", "stable_1_2", "--pareto-alpha", "0.7"],
        ],
        ids=["stable_0_1", "stable_1_2"],
    )
    def test_pareto_alpha_outside_the_theorem_is_validation_error(self, flags, capsys):
        rc = main(["validate", *flags, "--reps", "100"])
        assert rc == 2
        assert "needs" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, capsys):
        rc = main(["validate", "--seed", "-1", "--reps", "100"])
        assert rc == 2
        assert capsys.readouterr().err == "error: need a non-negative seed, got -1\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_validation_error(self, capsys, workers):
        rc = main(["validate", "--workers", workers, "--reps", "100"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: need at least one worker, got {workers}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--theorem", "prorata", "--unit-price", "nan"],
            ["--theorem", "normal", "--size-sigma-log", "nan"],
            ["--theorem", "normal", "--size-sigma-log", "-1"],
            ["--theorem", "normal", "--size-mu-log", "nan"],
            ["--theorem", "count", "--density-intercept", "nan"],
            ["--atom0", "nan"],
            ["--atomW", "inf"],
            ["--density-slope", "inf"],
            ["--theorem", "stable_1_2", "--pareto-alpha", "nan"],
            ["--theorem", "normal", "--size-mu-log", "800"],  # E = inf
            ["--theorem", "normal", "--size-sigma-log", "30"],  # V = inf
        ],
    )
    def test_bad_model_parameter_rejected_before_any_replication(
        self, flags, capsys, monkeypatch
    ):
        def no_replications(*args, **kwargs):
            raise AssertionError("replications ran")

        monkeypatch.setattr("claimcast.sim.monte_carlo_validate", no_replications)
        rc = main(["validate", *flags, "--reps", "100"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestConfigFile:
    @pytest.mark.parametrize("name", ["missing.json", "not_json.json"])
    def test_unreadable_config_is_validation_error(
        self, dataset_dir, tmp_path, capsys, name
    ):
        (tmp_path / "not_json.json").write_text("{warranty: 200")
        cfg = tmp_path / name
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")

    @pytest.mark.parametrize(
        "entry",
        [{"periods": 5}, {"warranty": "200"}, {"qq_k": 300.5}, {"stationary": "no"}],
        ids=lambda entry: next(iter(entry)),
    )
    def test_wrongly_typed_entry_rejected(self, dataset_dir, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2
        assert repr(next(iter(entry))) in capsys.readouterr().err

    def test_unknown_regime_override_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime_override": "stable_0_1"}))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2
        assert "unknown regime override 'stable_0_1'" in capsys.readouterr().err

    def test_free_replacement_rebate_kind_rejected(self, dataset_dir, tmp_path, capsys):
        # the config file obeys the same rule as --rebate-kind
        cfg = tmp_path / "cfg.json"
        entries = {"policy": "prorata", "rebate_kind": "free_replacement"}
        cfg.write_text(json.dumps(entries))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2
        assert "unsupported rebate kind 'free_replacement'" in capsys.readouterr().err

    def test_ints_for_floats_and_nulls_for_optionals_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        entries = {"unit_price": 2, "n_explicit": None, "regime_override": None,
                   "periods": [0], "stationary": True}
        cfg.write_text(json.dumps(entries))
        argv = ["report", "--sales", "s.csv", "--claims", "c.csv", "--config", str(cfg)]
        assert _build_config(build_parser().parse_args(argv)) == RunConfig(
            unit_price=2.0, periods=(0,), stationary=True
        )

    def test_file_overrides_flags(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"period": 25}))
        rc = main(
            [
                "report",
                *data_args(dataset_dir),
                "--config",
                str(cfg),
                "--warranty",
                "200",
                "--period",
                "30",
                "--qq-k",
                "300",
                "--ma-window",
                "10",
                "--poly-degree",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "period [0, 25]" in out  # config file wins over --period 30

    def test_unknown_config_keys_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"perriod": 25}))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 2


class TestDefaults:
    """Absent flags fall through to RunConfig and synthesize_dataset."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-sales", "--sales", "s.csv"],
            ["fit-claims", "--sales", "s.csv", "--claims", "c.csv"],
            ["diagnose-tail", "--claims", "c.csv"],
            ["report", "--sales", "s.csv", "--claims", "c.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_required_flags_only_build_the_default_config(self, argv):
        assert _build_config(build_parser().parse_args(argv)) == RunConfig()

    def test_simulate_writes_the_default_dataset(self, tmp_path):
        assert main(["simulate", "--out-dir", str(tmp_path / "cli")]) == 0
        synthesize_dataset(tmp_path / "lib" / "sales.csv", tmp_path / "lib" / "claims.csv")
        for name in ("sales.csv", "claims.csv"):
            cli_bytes = (tmp_path / "cli" / name).read_bytes()
            assert cli_bytes == (tmp_path / "lib" / name).read_bytes()

    def test_simulate_then_report_with_defaults(self, tmp_path, capsys):
        # simulate's defaults make a dataset that report's defaults can read
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 0
        assert main(["report", *data_args(tmp_path)]) == 0
        assert "error" not in capsys.readouterr().err

    def test_simulate_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--out-dir", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: need a non-negative seed, got -1\n"
        assert not out.exists()  # nothing drawn, nothing written
        with pytest.raises(DomainError, match="non-negative seed"):
            synthesize_dataset(out / "s.csv", out / "c.csv", seed=-3)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--span", "0"], "need a span of at least one day, got 0"),
            (["--span", "-4"], "need a span of at least one day, got -4"),
            (["--bass-p", "nan"], "need finite p and q, got p = nan"),
            (["--bass-p", "inf"], "need finite p and q, got p = inf"),
            (["--bass-q", "nan"], "need finite p and q, got p = 0.00040149, q = nan"),
            (["--bass-q=-inf"], "need finite p and q, got p = 0.00040149, q = -inf"),
        ],
    )
    def test_simulate_rejects_a_bad_span_or_curve(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["simulate", "--out-dir", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()  # nothing drawn, nothing written

    def test_simulate_has_no_forecast_period(self, tmp_path):
        # the dataset spans sale and claim days only; T belongs to RunConfig
        with pytest.raises(SystemExit):
            main(["simulate", "--out-dir", str(tmp_path), "--period", "5"])
        with pytest.raises(TypeError):
            synthesize_dataset(tmp_path / "s.csv", tmp_path / "c.csv", period=30)


class TestExplicitN:
    def test_config_n_explicit_selects_the_explicit_policy(
        self, dataset_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_explicit": 40000}))
        rc = main(["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON])
        assert rc == 0
        assert "items sold (n): 40000;" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"n_policy": "observed_total", "n_explicit": 40000}, []),
            ({}, ["--n-policy", "observed_total", "--n", "40000"]),
        ],
        ids=["config", "flags"],
    )
    def test_observed_total_with_n_explicit_rejected(
        self, dataset_dir, tmp_path, capsys, config, flags
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(
            ["report", *data_args(dataset_dir), "--config", str(cfg), *COMMON, *flags]
        )
        assert rc == 2
        assert "n_explicit needs the explicit n policy" in capsys.readouterr().err


PINNED = Path(__file__).resolve().parent / "pinned"


@pytest.fixture(scope="module")
def seed3_dir(tmp_path_factory):
    """The default simulated dataset at seed 3 (5 000 cars, W = 1096)."""
    root = tmp_path_factory.mktemp("seed3")
    assert main(["simulate", "--out-dir", str(root), "--seed", "3"]) == 0
    return root


class TestPinnedOutputs:
    """Byte-for-byte outputs: the validation reports and datasets recorded
    before validation scored its replications in blocks and the claims
    sampler stopped sorting, the forecast reports before the join merged
    same-day claims and the moment grids kept only close claim pairs."""

    @pytest.mark.parametrize(
        "policy, flags", [("free", []), ("prorata", ["--policy", "prorata"])]
    )
    def test_forecast_report(self, seed3_dir, tmp_path, capsys, policy, flags):
        argv = ["report", *data_args(seed3_dir), "--periods", "0,1", *flags,
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        got = (tmp_path / "report.json").read_bytes()
        assert got == (PINNED / f"report_{policy}.json").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "theorem, flags",
        [("count", []), ("normal", []), ("stable_1_2", []),
         ("stable_0_1", ["--pareto-alpha", "0.7"]), ("prorata", [])],
        ids=["count", "normal", "stable_1_2", "stable_0_1", "prorata"],
    )
    def test_validation_report(self, tmp_path, capsys, theorem, flags, workers):
        out = tmp_path / "report.json"
        argv = ["validate", "--theorem", theorem, "--reps", "100", "--seed", "0",
                "--workers", workers, "--json-out", str(out), *flags]
        assert main(argv) == 0
        assert out.read_bytes() == (PINNED / f"validate_{theorem}.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, digests",
        [
            ([], ("45f21cf13299990b0d713601761f8e0ef453e1c0ace416d42dae4642462d1e3f",
                  "52e41ff9b18265ed0302c3761f7315617bd400ddb667e6f30d60eef9003957d0")),
            (["--n-items", "2000", "--warranty", "200", "--span", "240", "--seed", "5"],
             ("b0b00fd17aa19bf4a2a3a9aae652a58b0a540e3bb9a5a34c0d1cb09aaa6b91f6",
              "6edaee44cd9abaf22e8819583829af2e1dd9d6ce8ef668ac21335a1abce6e231")),
        ],
        ids=["defaults", "small"],
    )
    def test_simulated_dataset(self, tmp_path, capsys, argv, digests):
        assert main(["simulate", "--out-dir", str(tmp_path), *argv]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sales.csv", "claims.csv")
        )
        assert got == digests
