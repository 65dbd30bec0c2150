"""Transmitter field geometry and the aggregate interference model.

Transmitters form a homogeneous Poisson field; the receiver attaches to
the nearest one, so interferers live outside the serving distance. The
closed-form outage path replaces the aggregate interference with a
moment-matched Gamma variable; the sampling helpers here provide the
exact field for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkConfig",
    "InterferenceModel",
    "sample_serving_distance",
    "sample_interferers",
    "default_outer_radius",
    "mean_interference",
    "gamma_interference_model",
    "sample_gamma_interference",
]

# Truncating the interferer field at R_max discards expected interference
# (R_max / r0)^(2 - a) relative to the untruncated mean; keep that below
# this fraction.
TAIL_FRACTION = 1e-4


@dataclass(frozen=True)
class NetworkConfig:
    """Scalar parameters of the downlink."""

    bs_density: float = 5e-5        # transmitters per m^2
    path_loss_exponent: float = 4.0
    tx_power: float = 1.0           # W
    noise_power: float = 1e-5       # W
    channel_variance: float = 1.0   # mean square channel gain
    transmit_snr: float = None      # derived unless supplied explicitly

    def __post_init__(self):
        if self.bs_density <= 0.0:
            raise ValueError("bs_density must be positive")
        if self.path_loss_exponent <= 2.0:
            raise ValueError(
                "path_loss_exponent must exceed 2: the mean aggregate"
                " interference of the planar field diverges otherwise"
            )
        if self.tx_power <= 0.0 or self.noise_power <= 0.0:
            raise ValueError("tx_power and noise_power must be positive")
        if self.channel_variance <= 0.0:
            raise ValueError("channel_variance must be positive")
        derived = self.channel_variance * self.tx_power / self.noise_power
        if self.transmit_snr is None:
            object.__setattr__(self, "transmit_snr", derived)
        elif not math.isclose(self.transmit_snr, derived, rel_tol=1e-12):
            raise ValueError(
                f"transmit_snr {self.transmit_snr!r} inconsistent with "
                f"variance * power / noise = {derived!r}"
            )


@dataclass(frozen=True)
class InterferenceModel:
    """Gamma model of aggregate interference past an exclusion radius."""

    shape: float
    scale: float
    mean: float
    variance: float
    exclusion_radius: float


def sample_serving_distance(rng, bs_density, size=None):
    """Nearest-transmitter distance draws (m) for the given field density."""
    if bs_density <= 0.0:
        raise ValueError("bs_density must be positive")
    # pi * lambda * rho^2 is unit exponential under the nearest-point law
    e = rng.standard_exponential(size)
    return np.sqrt(e / (math.pi * bs_density))


def default_outer_radius(bs_density, exclusion_radius, path_loss_exponent):
    """Smallest simulation radius meeting the truncation rule.

    Chosen so the discarded expected interference stays below
    ``TAIL_FRACTION`` of the mean, with a floor tied to the field density
    so sparse fields keep a representative interferer population.
    """
    ratio = TAIL_FRACTION ** (1.0 / (2.0 - path_loss_exponent))
    return max(
        50.0 / math.sqrt(math.pi * bs_density),
        exclusion_radius * ratio,
    )


def sample_interferers(rng, bs_density, exclusion_radius, outer_radius=None,
                       path_loss_exponent=4.0):
    """Interferer distances (m) in one snapshot of the annular field.

    Returns a 1-D array of distances in (exclusion_radius, outer_radius];
    the count is Poisson with the annulus intensity. Raises ``ValueError``
    when ``outer_radius`` truncates more than ``TAIL_FRACTION`` of the
    expected interference.
    """
    if exclusion_radius <= 0.0:
        raise ValueError("exclusion_radius must be positive")
    if outer_radius is None:
        outer_radius = default_outer_radius(
            bs_density, exclusion_radius, path_loss_exponent
        )
    if outer_radius <= exclusion_radius:
        raise ValueError("outer_radius must exceed exclusion_radius")
    tail = (outer_radius / exclusion_radius) ** (2.0 - path_loss_exponent)
    if tail > TAIL_FRACTION:
        raise ValueError(
            f"outer_radius {outer_radius:.4g} keeps {tail:.2e} of the mean "
            f"interference outside the simulation (limit {TAIL_FRACTION:.0e})"
        )
    area = math.pi * (outer_radius**2 - exclusion_radius**2)
    count = rng.poisson(bs_density * area)
    # uniform over the annulus: radius^2 uniform between the bounds
    sq = rng.uniform(exclusion_radius**2, outer_radius**2, size=count)
    return np.sqrt(sq)


def mean_interference(exclusion_radius, net):
    """Expected aggregate interference power past the exclusion radius.

    Campbell average of gain * distance^(-a) over the annular field,
    per unit transmit power; accepts numpy arrays, elementwise.
    """
    if np.any(np.asarray(exclusion_radius) <= 0.0):
        raise ValueError("exclusion_radius must be positive")
    a = net.path_loss_exponent
    return (
        2.0 * math.pi * net.bs_density * net.channel_variance
        * exclusion_radius ** (2.0 - a) / (a - 2.0)
    )


def gamma_interference_model(exclusion_radius, net):
    """Gamma surrogate for the aggregate interference at one radius.

    Shape and scale are fixed by matching the Campbell mean and the
    adopted second moment 2 * variance^2 of a single faded term; the
    resulting shape is typically far below one, concentrating nearly all
    probability mass at zero with a thin far tail.
    """
    mean = mean_interference(exclusion_radius, net)
    a = net.path_loss_exponent
    lam = net.bs_density
    r = exclusion_radius
    shape = 2.0 * (math.pi * lam * r ** (2.0 - a) / (a - 2.0)) ** 2
    scale = net.channel_variance * (a - 2.0) / (math.pi * lam * r ** (2.0 - a))
    variance = 2.0 * net.channel_variance**2
    return InterferenceModel(
        shape=shape,
        scale=scale,
        mean=mean,
        variance=variance,
        exclusion_radius=exclusion_radius,
    )


def sample_gamma_interference(rng, model, size=None):
    """Draws from the Gamma surrogate (not from the exact field)."""
    return rng.gamma(model.shape, model.scale, size=size)
