"""Quantum- vs classical-illumination detection of Rayleigh-fading targets.

Closed-form ROC curves, minimum-error probabilities, and SNRs for the CI
heterodyne, QI-OPA, and QI-SFG receivers; a truncated-Fock-space brute-force
oracle for Helstrom limits and quantum Chernoff exponents; and Monte Carlo
estimators that weld the two together.
"""

from .params import (
    ConfigError,
    InvalidParameter,
    SystemParams,
    derived_x,
    fading_pdf,
    load_config,
)
from .analytic import (
    AsymptoticsInvalid,
    BayesResult,
    BayesSweep,
    DegenerateDiscrimination,
    RocCurve,
    bayes_sweep,
    ci_bayes,
    ci_bayes_asymptotic,
    ci_detection_probability,
    ci_roc,
    ci_snr,
    opa_default_gain,
    opa_snr_fading,
    opa_snr_known,
    sfg_bayes,
    sfg_bayes_limit,
    sfg_mean_counts,
    sfg_roc,
    sfg_threshold,
    threshold_test_error,
)
from .oracle import (
    DensityMatrix,
    DiscriminationReport,
    ResourceGuard,
    TrendPoint,
    TruncationTooSmall,
    apply_return_channel,
    check_helstrom_concavity,
    coherent_thermal_state,
    dim_for_tail,
    fading_average,
    fading_exponent_trend,
    helstrom,
    hypothesis_state,
    partial_trace,
    qcb,
    qcb_exponent_at_zero_return,
    return_idler_covariance,
    tensor_power,
    thermal_state,
    tmsv_state,
    wigner_covariance,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    Receiver,
    bayes_threshold,
    estimate_bayes_error,
    estimate_operating_point,
    sample_ci_envelopes,
    sample_sfg_counts,
    wilson_interval,
)

__version__ = "0.1.0"
