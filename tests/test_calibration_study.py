"""Smoke test of the end-to-end calibration study in ``calibration_study``."""

import math

from calibration_study import HEADER, main


def test_two_synthesized_datasets_give_the_full_table(capsys):
    assert main(["--datagen", "0", "--synthesize", "2"]) == 0
    header, rule, *lines = capsys.readouterr().out.splitlines()
    assert header == "| " + " | ".join(HEADER) + " |"
    assert rule == "|" + "---|" * len(HEADER)
    rows = [line.strip("| ").split(" | ") for line in lines]
    assert [row[:4] for row in rows] == [
        ["synthesize", "finite_variance", "0", "count"],
        ["synthesize", "finite_variance", "0", "normal"],
        ["synthesize", "finite_variance", "91", "count"],
        ["synthesize", "finite_variance", "91", "normal"],
        ["synthesize", "prorata", "0", "prorata"],
        ["synthesize", "prorata", "91", "prorata"],
    ]
    for row in rows:
        n, ks, dkw, below, above, z_mean, z_sd = row[4:]
        assert n == "2"  # each window of each dataset saw claims
        assert 0.0 < float(ks) <= 1.0
        assert dkw == f"{1.36 / math.sqrt(2):.3f}"
        assert 0.0 <= float(below) + float(above) <= 1.0
        assert math.isfinite(float(z_mean)) and math.isfinite(float(z_sd))
