"""Time-aware synthetic control for panel data.

A linear-Gaussian state-space model is fit to pre-intervention outcomes by EM
(Kalman filtering, RTS smoothing, closed-form M-step); the counterfactual for
the treated target unit is inferred by rerunning the filter over the whole
panel with the target's post-intervention observation noise sent to infinity.
Classical simplex synthetic control and robust (HSVT + ridge) synthetic
control are included as baselines, together with a simulation generator and an
evaluation harness (placebo tests, threshold filtering, permutation stress
tests, method sweeps).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FitError,
    NumericalError,
    ParseError,
    SolverError,
    TascError,
)
from .panel import (
    PanelData,
    load_csv,
    load_metadata,
    mean_center,
    panel_metadata,
    permute_columns,
    save_csv,
    save_metadata,
    split,
)
from .ssm import (
    FilteredTrajectory,
    SmoothedTrajectory,
    StateSpaceParams,
    filter_pass,
    params_from_json,
    params_to_json,
    smooth_pass,
)
from .engine import (
    CounterfactualEstimate,
    EmConfig,
    accumulate_stats,
    confidence_width,
    em_pre,
    init_params,
    m_step,
    tasc_infer,
)
from .baselines import (
    DEFAULT_CV_GRID,
    DonorWeights,
    RscConfig,
    hsvt,
    rsc_fit,
    sc_fit,
    sc_predict,
    weights_from_json,
    weights_to_json,
)
from .simulate import (
    SimulationConfig,
    gen_panel,
    gen_params,
    random_covariance,
    save_simulation,
    simulate,
    snr_stats,
)
from .evaluate import (
    Estimator,
    fit_predict,
    method_sweep,
    permutation_stress_test,
    placebo_suite,
    reports_to_rows,
    rmse,
    rmse_by_horizon,
    threshold_filter,
    write_rows_csv,
)
