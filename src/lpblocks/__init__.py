"""Inference for extremal clusters of heavy-tailed time series via l^p-block
statistics: extremal index and cluster index estimators, spectral cluster
constants, large-deviation ratio checks, and a seeded experiment harness.
"""

from .seqcore import (
    INF,
    PExponent,
    as_p,
    as_series,
    p_modulus,
    row_p_moduli,
    truncate_above,
    truncate_below,
)
from .models import (
    AR1ModelSpec,
    LinearModelSpec,
    Model,
    NoiseSpec,
    SeedSpec,
    ar1_coefficients,
    model_coefficients,
    sample_noise,
    simulate,
    simulate_batch,
)
from .blocks import (
    BlockFrame,
    default_k,
    partition,
    threshold_from_order_stat,
)
from .spectral import (
    MCEstimate,
    ShiftLaw,
    cluster_constant_linear,
    cluster_constant_mc,
    cluster_constant_telescoping,
    serial_dependence_oracle_linear,
    shift_law,
    supwalk_constant_oracle_linear,
    theta_sampler_linear,
)
from .estimators import (
    ClusterFunctional,
    EstimateReport,
    cluster_functional_estimate,
    cluster_index_c1,
    cluster_index_c1_infty,
    cluster_index_kernel,
    extremal_index_alpha_blocks,
    extremal_index_infty_blocks,
    extremal_index_kernel,
    hill_alpha,
    serial_dependence_estimate,
    stable_scale_skew,
    supwalk_constant_estimate,
)
from .largedev import (
    RatioEstimate,
    centered_level,
    ld_ratio_centered_mc,
    ld_ratio_mc,
    pilot_level,
)
from .experiment import (
    AlphaMode,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    config_to_dict,
    estimate_from_file,
    get_estimator,
    known_estimators,
    load_config,
    model_from_dict,
    model_to_dict,
    oracle_report,
    parse_alpha_mode,
    read_series_file,
    resolve_alpha,
    run_experiment,
)

__version__ = "0.1.0"
