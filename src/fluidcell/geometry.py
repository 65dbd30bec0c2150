"""Fluid-antenna port geometry, actuation speed, and frame-time accounting.

A receiver carries several fluid antennas; each one slides a radiating
element between evenly spaced ports along a fixed aperture. Training only
every (skip + 1)-th port buys pilot time at the cost of estimation
coverage; the frame budget below tracks exactly where the channel uses go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaArrayConfig",
    "FluidParams",
    "FrameBudget",
    "InfeasibleFrameError",
    "port_displacement",
    "link_distance",
    "link_distances",
    "fluid_velocity",
    "switching_delay",
    "trained_port_indices",
    "build_frame_budget",
]


class InfeasibleFrameError(ValueError):
    """The requested frame split leaves no room for the pilot sequence."""


@dataclass(frozen=True)
class FaArrayConfig:
    """Geometry of the receiver's fluid-antenna bank."""

    num_fas: int = 4             # antennas at the receiver
    ports_per_fa: int = 15       # candidate positions per antenna
    skipped_ports: int = 1       # untrained ports between trained ones
    aperture_wavelengths: float = 0.2   # aperture length / carrier wavelength
    wavelength: float = 0.06     # carrier wavelength, m
    center_offset: float = 0.0   # receiver offset from the array center, m

    def __post_init__(self):
        if self.num_fas < 1:
            raise ValueError("num_fas must be at least 1")
        if self.ports_per_fa < 2:
            raise ValueError("ports_per_fa must be at least 2")
        if not 0 <= self.skipped_ports <= self.ports_per_fa - 1:
            raise ValueError(
                "skipped_ports must lie in [0, ports_per_fa - 1]"
            )
        if self.aperture_wavelengths <= 0.0:
            raise ValueError("aperture_wavelengths must be positive")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.center_offset != 0.0:
            raise ValueError(
                "only a centered receiver (center_offset == 0) is supported"
            )

    @property
    def aperture(self):
        """Physical aperture length in meters."""
        return self.aperture_wavelengths * self.wavelength


@dataclass(frozen=True)
class FluidParams:
    """Electrowetting actuation parameters of the conductive fluid."""

    charge: float = 0.07             # droplet charge density, V
    viscosity: float = 0.002         # dynamic viscosity, Pa s
    thickness_to_length: float = 0.2  # channel thickness over droplet length
    voltage_delta: float = 10.0      # applied voltage swing, V

    def __post_init__(self):
        for name in ("charge", "viscosity", "thickness_to_length", "voltage_delta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class FrameBudget:
    """Integer channel-use accounting for one coherence block.

    ``pilot_length`` is the per-port, per-antenna pilot duration that
    remains after the port-switching dead time is paid; feasibility
    requires it to be strictly positive.
    """

    coherence_bandwidth: float   # Hz
    coherence_time: float        # s
    total_uses: int              # channel uses in the block
    estimation_uses: int         # uses reserved for training
    data_uses: int               # uses left for payload
    switching_uses: float        # uses lost to port motion during training
    pilot_length: float          # uses per trained port per antenna
    trained_count: int           # trained ports per antenna


def port_displacement(i, cfg):
    """Distance (m) of port ``i`` (1-based) from the first port."""
    if not 1 <= i <= cfg.ports_per_fa:
        raise ValueError(f"port index {i} outside 1..{cfg.ports_per_fa}")
    return (i - 1) / (cfg.ports_per_fa - 1) * cfg.aperture


def link_distance(i, rho, cfg):
    """Distance (m) from the serving transmitter to port ``i``.

    ``rho`` is the distance to the first port; the ports are laid out
    broadside, so the offset adds in quadrature.
    """
    if rho <= 0.0:
        raise ValueError("serving distance must be positive")
    d = port_displacement(i, cfg)
    return math.hypot(rho, d)


def link_distances(ports, rho, cfg):
    """Distances (m) to each of ``ports`` at serving distance ``rho``.

    ``rho`` may be an array; the result appends a port axis to its
    shape. Every entry is :func:`link_distance`'s ``math.hypot``, so a
    batch agrees with the scalar calls bit for bit.
    """
    rho = np.asarray(rho, dtype=float)
    distinct, inverse = np.unique(rho, return_inverse=True)
    table = np.array([
        [link_distance(p, r, cfg) for p in ports] for r in distinct.tolist()
    ])
    return table[inverse.reshape(-1)].reshape(rho.shape + (len(ports),))


def fluid_velocity(params):
    """Steady droplet speed (m/s) under the applied voltage swing."""
    return (
        params.charge
        / (6.0 * params.viscosity)
        * params.thickness_to_length
        * params.voltage_delta
    )


def switching_delay(x, cfg, params):
    """Time (s) to slide the element across ``x`` inter-port gaps."""
    if not 0 <= x <= cfg.ports_per_fa - 1:
        raise ValueError(
            f"gap count {x} outside 0..{cfg.ports_per_fa - 1}"
        )
    u = fluid_velocity(params)
    return cfg.aperture / u * (x / (cfg.ports_per_fa - 1))


def trained_port_indices(cfg):
    """1-based indices of the ports that get their own pilot."""
    return tuple(range(1, cfg.ports_per_fa + 1, cfg.skipped_ports + 1))


def build_frame_budget(cfg, params, coherence_bandwidth, coherence_time,
                       estimation_fraction):
    """Split one coherence block into training, switching, and data time.

    ``estimation_fraction`` is the share of the block reserved for
    training (pilots plus the motion needed to visit the trained ports).
    Raises :class:`InfeasibleFrameError` when switching alone eats the
    training budget.
    """
    if coherence_bandwidth <= 0.0 or coherence_time <= 0.0:
        raise ValueError("coherence bandwidth and time must be positive")
    if not 0.0 < estimation_fraction < 1.0:
        raise ValueError("estimation_fraction must lie strictly in (0, 1)")

    total = round(coherence_bandwidth * coherence_time)
    if total < 1:
        raise ValueError("coherence block shorter than one channel use")
    estimation = round(estimation_fraction * total)
    if estimation < 1:
        raise InfeasibleFrameError("estimation share below one channel use")
    data = total - estimation

    count = len(trained_port_indices(cfg))
    if count != math.ceil(cfg.ports_per_fa / (cfg.skipped_ports + 1)):
        raise AssertionError("trained port set inconsistent with stride")

    if count == 1:
        switching = 0.0
    else:
        hop = switching_delay(cfg.skipped_ports + 1, cfg, params)
        switching = cfg.num_fas * (count - 1) * hop * coherence_bandwidth

    pilot = (estimation - switching) / (count * cfg.num_fas)
    if pilot <= 0.0:
        raise InfeasibleFrameError(
            "switching time exceeds the estimation share: "
            f"{switching:.3e} of {estimation} uses"
        )

    return FrameBudget(
        coherence_bandwidth=float(coherence_bandwidth),
        coherence_time=float(coherence_time),
        total_uses=int(total),
        estimation_uses=int(estimation),
        data_uses=int(data),
        switching_uses=float(switching),
        pilot_length=float(pilot),
        trained_count=int(count),
    )
