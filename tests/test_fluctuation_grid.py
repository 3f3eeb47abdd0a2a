"""The exposure-weight fluctuation moments against the covariance-grid
reference in ``fluctuation_grid``."""

import tracemalloc

import numpy as np
import pytest

from claimcast import dataio, pipeline
from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon
from claimcast.engine import fluctuation_moments
from claimcast.sales import (
    BassParams,
    assemble_fluctuation,
    compute_residuals,
    decompose_residuals,
    fit_bass,
)
from claimcast.sim import (
    MonteCarloStudy,
    NhppSales,
    PoissonClaims,
    RenewalSales,
    theoretical_limit,
)
from fluctuation_grid import increment_grids, moments_by_grid

W, T = 200, 30
CLOSE = dict(rel=1e-12, abs=0.0)
MEASURE = MeanClaimsMeasure(-0.5e-5, 5e-3, atom0=0.1, atomW=0.04, warranty=W)
REBATES = {
    "free": RebateFunction.free_replacement(W),
    "linear": RebateFunction.linear(W, unit_price=2.0),
}


@pytest.fixture(scope="module")
def synthetic_residuals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fluctuation")
    pipeline.synthesize_dataset(
        root / "sales.csv", root / "claims.csv", n=2000, warranty=W, span=240,
        bass_p=2e-3, bass_q=2.5e-2, density_slope=-0.5e-5, density_intercept=5e-3,
        atom0=0.1, atomW=0.04, seed=5,
    )
    sales, _ = dataio.load_sales(root / "sales.csv")
    sales, _ = dataio.anchor_day_zero(sales)
    counts, first = pipeline._daily_counts(sales)
    bass = fit_bass(counts, len(sales), first)
    return compute_residuals(counts, first, bass), first


@pytest.mark.parametrize("rebate", sorted(REBATES))
@pytest.mark.parametrize("stationary", [False, True], ids=["trend", "stationary"])
@pytest.mark.parametrize("offset", [0, T])
def test_synthesized_data_matches_grid(synthetic_residuals, offset, stationary, rebate):
    resid, first = synthetic_residuals
    dec = decompose_residuals(resid, first, halfwidth=10, stationary=stationary)
    horizon = TimeHorizon(W, T, offset)
    increments = assemble_fluctuation(dec, horizon, poly_degree=2)
    mean, cov = increment_grids(increments)
    want = moments_by_grid(mean, cov, -W, MEASURE, REBATES[rebate], horizon)
    got = fluctuation_moments(increments, MEASURE, REBATES[rebate], horizon)
    assert got[0] == pytest.approx(want[0], **CLOSE)
    assert got[1] == pytest.approx(want[1], **CLOSE)
    assert got[1] > 0.0


def _nhpp_grid(sales, days, horizon):
    nu = sales.share_on(days, horizon)
    return np.minimum.outer(nu, nu) - nu[0]


def _renewal_grid(sales, days, horizon):
    rate = sales.var / sales.mean**3
    return rate * (np.minimum.outer(days, days) + float(horizon.warranty))


@pytest.mark.parametrize("offset", [0, T])
@pytest.mark.parametrize(
    "sales, grid",
    [
        (NhppSales(BassParams(2e-3, 2.5e-2, n=1, origin=-W - 1).share), _nhpp_grid),
        (RenewalSales(mean=3.0, var=4.0), _renewal_grid),
    ],
    ids=["nhpp", "renewal"],
)
def test_simulator_matches_brownian_grid(sales, grid, offset):
    # both sales laws have independent increments: the covariance of the
    # process at days s, t is its variance at min(s, t), zero at day -W
    horizon = TimeHorizon(W, T, offset, 500)
    rebate = REBATES["linear"]
    study = MonteCarloStudy(
        sales=sales,
        claims=PoissonClaims(MEASURE),
        rebate=rebate,
        horizon=horizon,
        theorem="prorata",
    )
    days = np.arange(-W, T + offset + 1)
    cov = grid(sales, days, horizon)
    want = moments_by_grid(np.zeros(len(days)), cov, -W, MEASURE, rebate, horizon)
    lp = theoretical_limit(study)
    assert want[0] == lp.fluct_mean == 0.0
    assert lp.fluct_var == pytest.approx(want[1], **CLOSE)


def test_paper_scale_builds_no_day_grid():
    # one 1188 x 1188 float64 grid alone is 11 MB
    w, t = 1096, 91
    horizon = TimeHorizon(w, t, t, 34807)
    resid = np.random.default_rng(3).normal(0.0, 0.01, size=w)
    dec = decompose_residuals(resid, -w + 1, halfwidth=15)
    measure = MeanClaimsMeasure(-0.8872e-6, 0.1479e-2, 0.1330, 0.0420, w)
    rebate = RebateFunction.free_replacement(w)
    tracemalloc.start()
    try:
        increments = assemble_fluctuation(dec, horizon)
        _, var = fluctuation_moments(increments, measure, rebate, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert var > 0.0
    assert peak < 2_000_000
