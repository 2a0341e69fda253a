"""Price impact of order flow: curves, simulation, ingestion, estimation.

The package is organized by pipeline stage:

- :mod:`liqimpact.impact` -- closed-form impact curves (S-shape, linear,
  square-root), the structural parameter mapping and Ito identities.
- :mod:`liqimpact.sde` -- coupled price/flow simulation and synthetic
  regression panels with recorded ground truth.
- :mod:`liqimpact.ingest` -- columnar tick-file parsing, trade signing,
  minute-bar construction, and the columnar bar table.
- :mod:`liqimpact.estimation` -- per-day and pooled curve fitting
  (OLS for the linear/sqrt curves, damped least squares for the S-shape)
  and the AR(1)-based flow-process estimator.
- :mod:`liqimpact.compare` -- paired model comparison and descriptive
  reports, including market-depth summaries.
- :mod:`liqimpact.cli` -- the ``liqimpact`` command line.
"""

from .impact import (
    LinearParams,
    ParameterError,
    PQDecomposition,
    SqrtParams,
    SShapeParams,
    StructuralParams,
    big_phi,
    f_linear,
    f_sqrt,
    f_sshape,
    feasibility_margin,
    g_sshape,
    inflection_point,
    linear_alpha_from_ps,
    mu_p,
    phi,
    sigma_p_squared,
    structural_to_pq,
)
from .ingest import (
    BarTable,
    FlowDescriptives,
    MinuteBar,
    ParseError,
    TickRecord,
    TickTable,
    build_bars,
    flow_descriptives,
    read_bars_csv,
    read_ticks,
    sign_trade,
    write_bars_csv,
    write_panel_csv,
)
from .sde import (
    OUParams,
    SimConfig,
    SimPath,
    SimulationError,
    SyntheticPanel,
    correlated_increments,
    simulate_path,
    synth_regression_panel,
)
from .estimation import (
    EstimationError,
    FitResult,
    OUEstimate,
    RegressionPanel,
    default_start_grid,
    estimate_ou,
    fit_ols,
    fit_result_to_dict,
    fit_sshape,
    read_daily_fits_csv,
    write_daily_fits_csv,
)
from .compare import (
    DailyMetricSeries,
    DepthReport,
    Descriptives,
    PairedTResult,
    depth_report,
    descriptives,
    paired_t_test,
    write_depth_csv,
    write_descriptives_csv,
    write_ttest_csv,
)

__version__ = "0.1.0"
