"""Transmitter field geometry and the aggregate interference model.

Transmitters form a homogeneous Poisson field; the receiver attaches to
the nearest one, so interferers live outside the serving distance. The
closed-form outage path replaces the aggregate interference with a
moment-matched Gamma variable, built here on the field's Campbell mean.
The Monte Carlo engine draws serving distances here and samples the
interferers itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkConfig",
    "InterferenceModel",
    "sample_serving_distance",
    "mean_interference",
    "campbell_mean",
    "gamma_interference_model",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Scalar parameters of the downlink."""

    bs_density: float = 5e-5        # transmitters per m^2
    path_loss_exponent: float = 4.0
    tx_power: float = 1.0           # W
    noise_power: float = 1e-5       # W
    channel_variance: float = 1.0   # mean square channel gain

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

    @property
    def transmit_snr(self):
        """Channel variance times transmit power over noise power."""
        return self.channel_variance * self.tx_power / self.noise_power


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


def mean_interference(exclusion_radius, net):
    """Expected aggregate interference power past the exclusion radius.

    Campbell average of gain * distance^(-a) over the annular field,
    per unit transmit power; accepts numpy arrays, elementwise.
    """
    if np.any(np.asarray(exclusion_radius) <= 0.0):
        raise ValueError("exclusion_radius must be positive")
    return campbell_mean(exclusion_radius ** (2.0 - net.path_loss_exponent),
                         net)


def campbell_mean(decay, net):
    """Campbell mean of the field past radius r, from ``decay`` = r^(2 - a).

    Elementwise over arrays. Callers raise the radius to its power
    themselves, so each keeps its own rounding of it (libm's ``pow``
    per float, numpy's vector power, or an exact square when the
    mean is wanted rescaled by r^a).
    """
    return (
        2.0 * math.pi * net.bs_density * net.channel_variance
        * decay / (net.path_loss_exponent - 2.0)
    )


def gamma_interference_model(exclusion_radius, net):
    """Gamma surrogate for the aggregate interference at one radius.

    Shape and scale are fixed by matching the Campbell mean and the
    adopted second moment 2 * variance^2 of a single faded term; the
    resulting shape is typically far below one, concentrating nearly all
    probability mass at zero with a thin far tail.

    A 1-D array of radii gives one model whose ``shape``, ``scale`` and
    ``mean`` are arrays, entry k equal to the call on radius k bit for
    bit.
    """
    radii = np.asarray(exclusion_radius, dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("exclusion_radius must be positive")
    # Python floats per radius: numpy's vector ** rounds differently from
    # libm's pow, and a radius must get one model alone or batched
    decays = [r ** (2.0 - net.path_loss_exponent)
              for r in radii.reshape(-1).tolist()]
    mean = campbell_mean(np.array(decays), net)
    variance = 2.0 * net.channel_variance**2
    shape, scale = mean**2 / variance, variance / mean
    if radii.ndim == 0:
        shape, scale, mean = float(shape[0]), float(scale[0]), float(mean[0])
    return InterferenceModel(
        shape=shape,
        scale=scale,
        mean=mean,
        variance=variance,
        exclusion_radius=exclusion_radius,
    )
