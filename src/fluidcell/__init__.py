"""Fluid-antenna cellular downlink: outage analytics and simulation.

The package pairs a closed-form outage pipeline (estimation error,
port correlation, joint selection statistics, spatial averaging) with
an independent Monte Carlo engine, so every analytic quantity can be
cross-checked numerically.
"""

from .channel import (
    CorrelationProfile,
    autocorrelation,
    correlation_profile,
    error_variance_at,
    joint_magnitude_cdf,
    joint_magnitude_pdf,
    min_skipped_ports,
    pilot_noise_ratio,
    sample_correlated_channels,
)
from .field import (
    InterferenceModel,
    NetworkConfig,
    gamma_interference_model,
    mean_interference,
    sample_serving_distance,
)
from .geometry import (
    FaArrayConfig,
    FluidParams,
    FrameBudget,
    InfeasibleFrameError,
    build_frame_budget,
    fluid_velocity,
    link_distance,
    port_displacement,
    switching_delay,
    trained_port_indices,
)
from .mc import (
    TrialPlan,
    estimate_lmmse_mse,
    estimate_outage,
)
from .numerics import (
    ConvergenceError,
    QuadratureSpec,
    bessel_i0,
    bessel_i0e,
    bessel_j0,
    erf,
    integrate_finite,
    integrate_finite_with_error,
    marcum_q1,
)
from .outage import (
    RateTarget,
    conditional_outage,
    conditional_outage_bounds,
    joint_outage_given_thresholds,
    outage_probability,
    outage_thresholds,
    sinr_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CorrelationProfile",
    "FaArrayConfig",
    "FluidParams",
    "FrameBudget",
    "InfeasibleFrameError",
    "InterferenceModel",
    "NetworkConfig",
    "QuadratureSpec",
    "RateTarget",
    "TrialPlan",
    "autocorrelation",
    "bessel_i0",
    "bessel_i0e",
    "bessel_j0",
    "build_frame_budget",
    "conditional_outage",
    "conditional_outage_bounds",
    "correlation_profile",
    "erf",
    "error_variance_at",
    "estimate_lmmse_mse",
    "estimate_outage",
    "fluid_velocity",
    "gamma_interference_model",
    "integrate_finite",
    "integrate_finite_with_error",
    "joint_magnitude_cdf",
    "joint_magnitude_pdf",
    "joint_outage_given_thresholds",
    "link_distance",
    "marcum_q1",
    "mean_interference",
    "min_skipped_ports",
    "outage_probability",
    "outage_thresholds",
    "pilot_noise_ratio",
    "port_displacement",
    "sample_correlated_channels",
    "sample_serving_distance",
    "sinr_threshold",
    "switching_delay",
    "trained_port_indices",
]
