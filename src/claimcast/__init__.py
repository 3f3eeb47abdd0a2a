"""claimcast: distributional forecasts of warranty-claim expenditure.

The package estimates, from historical sales and claims records, the
distribution of the total cost of warranty claims arriving in a fixed
future window, via normal and heavy-tail (stable) approximations, and
ships a simulator that validates those approximations end to end.
"""

from .core import (
    MeanClaimsMeasure,
    RebateFunction,
    TimeHorizon,
    WeightedMeasure,
    mean_window_claims,
)
from .claims import (
    ClaimsTable,
    EmpiricalMeanMeasure,
    JoinedClaims,
    MomentGrids,
    SalesTable,
    aggregate_daily_claims,
    empirical_mean_measure,
    fit_mean_measure,
    join_claims,
    moment_grids,
)
from .engine import (
    CostApproximation,
    LimitParams,
    approx_cdf,
    approx_quantile,
    cost_approx_normal,
    cost_approx_stable,
    extremeness,
    fluctuation_moments,
    rate_constants,
)
from .errors import (
    ClaimcastError,
    DomainError,
    FitError,
    LoadError,
    NumericalError,
    ValidationError,
)
from .pipeline import Report, RunConfig, run_pipeline, synthesize_dataset
from .sales import (
    BassParams,
    FluctuationIncrements,
    ResidualDecomposition,
    assemble_fluctuation,
    compute_residuals,
    decompose_residuals,
    fit_bass,
)
from .stable import (
    StableParams,
    params_eq_one_case,
    params_mean_case,
    params_zero_one_case,
    stable_cdf,
    stable_quantile,
)
from .tails import (
    Regime,
    TailDiagnosis,
    diagnose,
    qq_plot_data,
    qq_tail_index,
    select_regime,
    summary_stats,
    tail_scalers,
)

__version__ = "0.1.0"
