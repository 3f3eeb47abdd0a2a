import json

import numpy as np
import pytest

from claimcast.cli import _build_config, build_parser, main
from claimcast.dataio import load_claims, load_sales
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


class TestExitCodes:
    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        rc = main(
            ["fit-sales", "--sales", str(tmp_path / "nope.csv"), *COMMON]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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


class TestConfigFile:
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
