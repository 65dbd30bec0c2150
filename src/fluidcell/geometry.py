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
    "trained_port_count",
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

    def __post_init__(self):
        if self.num_fas < 1:
            raise ValueError("num_fas must be at least 1")
        if self.ports_per_fa < 2:
            raise ValueError("ports_per_fa must be at least 2")
        if not 0 <= self.skipped_ports <= self.ports_per_fa - 1:
            raise ValueError(
                "skipped_ports must lie in [0, ports_per_fa - 1]"
            )
        if not 0.0 < self.aperture_wavelengths < math.inf:
            raise ValueError("aperture_wavelengths must be positive and finite")
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")

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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class FrameBudget:
    """Integer channel-use accounting for one coherence block.

    ``pilot_length`` is the per-port, per-antenna pilot duration that
    remains after the port-switching dead time is paid; feasibility
    requires it to be strictly positive.
    """

    total_uses: int              # channel uses in the block
    estimation_uses: int         # uses reserved for training
    data_uses: int               # uses left for payload
    switching_uses: float        # uses lost to port motion during training
    pilot_length: float          # uses per trained port per antenna


def _port_gaps(i, cfg):
    """Gaps ``i - 1`` to the first port, elementwise over 1-based ``i``."""
    i = np.asarray(i)
    outside = (i < 1) | (i > cfg.ports_per_fa)
    if outside.any():
        raise ValueError(f"port index {i[outside][0]} outside "
                         f"1..{cfg.ports_per_fa}")
    return i - 1


def port_displacement(i, cfg):
    """Distance (m) of port ``i`` (1-based) from the first port, for an
    index or elementwise over an array of them."""
    d = _port_gaps(i, cfg) / (cfg.ports_per_fa - 1) * cfg.aperture
    return d if d.ndim else float(d)


def link_distance(i, rho, cfg):
    """Distance (m) from the serving transmitter to port ``i``.

    ``rho`` is the distance to the first port; the ports are laid out
    broadside, so the offset adds in quadrature. The one-port case of
    :func:`link_distances`, so the two agree bit for bit.
    """
    return float(link_distances([i], rho, cfg)[0])


def link_distances(ports, rho, cfg):
    """Distances (m) to each of ``ports`` at serving distance ``rho``.

    ``rho`` may be an array; the result appends a port axis to its
    shape. One ``np.hypot`` over the serving distances and the port
    offsets gives every entry (``math.hypot`` differs from it in the
    last bit on some pairs).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("serving distance must be positive")
    return np.hypot(rho[..., None], port_displacement(ports, cfg))


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
    """1-based indices of the ports that get their own pilot, an array."""
    return np.arange(1, cfg.ports_per_fa + 1, cfg.skipped_ports + 1)


def trained_port_count(cfg):
    """``len(trained_port_indices(cfg))``, building no index array."""
    return -(-cfg.ports_per_fa // (cfg.skipped_ports + 1))


def build_frame_budget(cfg, params, coherence_bandwidth, coherence_time,
                       estimation_fraction):
    """Split one coherence block into training, switching, and data time.

    ``estimation_fraction`` is the share of the block reserved for
    training (pilots plus the motion needed to visit the trained ports).
    Raises :class:`InfeasibleFrameError` when switching alone eats the
    training budget or training leaves no channel use for data.
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
    if data < 1:
        raise InfeasibleFrameError("data share below one channel use")

    count = trained_port_count(cfg)

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
        total_uses=int(total),
        estimation_uses=int(estimation),
        data_uses=int(data),
        switching_uses=float(switching),
        pilot_length=float(pilot),
    )
