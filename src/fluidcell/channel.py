"""Correlated port channels and their imperfect estimates.

Ports along one aperture see correlated fading; ports on different
antennas are independent. Training happens on a strided subset of ports,
and the linear MMSE estimate at each trained port carries a residual
error variance set by the pilot length and the pilot-phase interference.
The joint law of the estimated magnitudes across trained ports drives
the closed-form outage expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import campbell_mean
from .geometry import (
    InfeasibleFrameError,
    fluid_velocity,
    link_distance,
    link_distances,
    trained_port_indices,
)
from .numerics import (
    QuadratureSpec,
    bessel_i0e,
    bessel_j0,
    integrate_finite,
    marcum_q1,
)

__all__ = [
    "CorrelationProfile",
    "autocorrelation",
    "pilot_noise_ratio",
    "error_variance_at",
    "min_skipped_ports",
    "correlation_profile",
    "joint_magnitude_cdf",
    "joint_magnitude_pdf",
    "sample_correlated_channels",
]


@dataclass(frozen=True)
class CorrelationProfile:
    """Second-order description of the trained ports' estimates.

    ``mu`` holds the correlation of each trained port with the first
    one (signed; the first entry is zero by convention) and
    ``spread_variance`` the per-port variance of the estimate around
    that common component, both aligned with ``ports``. A batch of
    serving distances carries one row of spread variances per distance,
    shape (B, len(ports)); ``mu`` does not depend on distance.
    """

    ports: tuple
    mu: np.ndarray
    channel_variance: float
    spread_variance: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        spread = np.asarray(self.spread_variance, dtype=float)
        if (len(self.ports) != mu.shape[0] or mu.ndim != 1
                or spread.ndim > 2 or spread.shape[-1:] != mu.shape):
            raise ValueError("profile arrays must align with the port tuple")
        if mu.shape[0] < 1:
            raise ValueError("profile needs at least one port")
        if mu[0] != 0.0:
            raise ValueError("first trained port must carry zero correlation")
        if np.any(np.abs(mu) > 1.0):
            raise ValueError("correlations must lie in [-1, 1]")
        if np.any(spread <= 0.0) or self.channel_variance <= 0.0:
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "spread_variance", spread)


def autocorrelation(i, cfg):
    """Correlation of port ``i``'s channel with the first port's.

    Zero for the first port by convention; otherwise the zeroth-order
    Bessel of the electrical port separation, which can go negative.
    """
    if not 1 <= i <= cfg.ports_per_fa:
        raise ValueError(f"port index {i} outside 1..{cfg.ports_per_fa}")
    if i == 1:
        return 0.0
    return float(
        bessel_j0(
            2.0 * math.pi * (i - 1)
            * cfg.aperture_wavelengths / (cfg.ports_per_fa - 1)
        )
    )


def pilot_noise_ratio(r, net):
    """Noise-plus-mean-interference power over received pilot power.

    Per channel use, at link distance ``r``; accepts arrays. Dividing
    the pilot length by this ratio gives the post-combining pilot SNR.
    """
    r = np.asarray(r, dtype=float)
    # the Campbell mean at r over the unit-power pilot gain sigma^2 r^(-a)
    interference = campbell_mean(np.square(r), net) / net.channel_variance
    return r**net.path_loss_exponent / net.transmit_snr + interference


def error_variance_at(r, pilot_length, net):
    """LMMSE error variance at link distance ``r``; accepts arrays."""
    bracket = pilot_noise_ratio(r, net)
    return net.channel_variance * bracket / (bracket + pilot_length)


def min_skipped_ports(target_variance, rho, i, cfg, params, net,
                      coherence_bandwidth, coherence_time,
                      estimation_fraction):
    """Fewest skipped ports keeping the estimate error at the target.

    Closed-form design rule from the continuous relaxation of the frame
    budget: strictly decreasing and convex in ``target_variance``.
    Raises :class:`InfeasibleFrameError` when the frame cannot support
    even one pilot per port, i.e. the rule's denominator is nonpositive.
    """
    sigma_sq = net.channel_variance
    if not 0.0 < target_variance < sigma_sq:
        raise ValueError(
            "target_variance must lie strictly between 0 and the channel "
            "variance"
        )
    if rho <= 0.0:
        raise ValueError("serving distance must be positive")
    total = round(coherence_bandwidth * coherence_time)
    estimation = round(estimation_fraction * total)
    if estimation < 1:
        raise InfeasibleFrameError("estimation share below one channel use")

    n = cfg.ports_per_fa
    per_port = estimation / (cfg.num_fas * n)
    hop_uses = (
        cfg.aperture * coherence_bandwidth
        / (fluid_velocity(params) * (n - 1))
    )
    denominator = per_port - hop_uses
    if denominator <= 0.0:
        raise InfeasibleFrameError(
            "switching alone exceeds the per-port training share: "
            f"{hop_uses:.3e} uses per hop, {per_port:.3e} available"
        )
    bracket = float(pilot_noise_ratio(link_distance(i, rho, cfg), net))
    return bracket / denominator * (sigma_sq / target_variance - 1.0)


def correlation_profile(cfg, net, budget, rho):
    """Second-order profile of the trained ports at one serving distance.

    Each trained port's spread variance combines the decorrelated share
    of the true channel with that port's own estimation error variance,
    evaluated at its own link distance. A 1-D array of distances gives
    the batched profile, one row of spread variances per distance.
    """
    ports = trained_port_indices(cfg)
    mu = np.array([autocorrelation(p, cfg) for p in ports])
    r = link_distances(ports, rho, cfg)
    err = error_variance_at(r, budget.pilot_length, net)
    sigma_sq = net.channel_variance
    spread = sigma_sq * (1.0 - mu**2) + err
    return CorrelationProfile(
        ports=ports,
        mu=mu,
        channel_variance=sigma_sq,
        spread_variance=spread,
    )


# ---------------------------------------------------------------------------
# Joint law of the estimated magnitudes
# ---------------------------------------------------------------------------

# (row, port) pairs per lockstep group of a batched joint_magnitude_cdf.
# A refinement round evaluates at most 40 nodes per row, so a group's
# Marcum Q call stays below ~330k elements (tens of MB of temporaries)
# however many rows and ports a batch has.
_GROUP_PAIRS = 2**13
# beta - alpha past which 1 - Q1(alpha, beta) is exactly 1.0. Q1(a, b)
# is P(|a + X| > b) for a 2-D standard normal X, so by the triangle
# inequality Q1 <= P(|X| > b - a) = exp(-(b - a)^2 / 2) for b >= a:
# below exp(-40.5) ~ 2.6e-18 here, far under the 2^-54 that 1.0 - q
# needs to round back to 1.0.
_NEGLIGIBLE_Q1_GAP = 9.0


def _conditional_rician_integrals(mu, taus, spread, limits, spec):
    """Integral over the first port of the other ports' Rician cdfs.

    One lockstep batch over the threshold rows, one ``marcum_q1`` call
    per refinement round, on the nodes where Q1 can change 1 - Q1.
    """
    ratio = spread[:, :1] / spread[:, 1:]
    # port-major (J - 1, B) layouts, gathered by row at each round
    coeff = np.ascontiguousarray((2.0 * mu[1:] ** 2 * ratio).T)
    betas = np.ascontiguousarray(
        (np.sqrt(2.0 / spread[:, 1:]) * taus[:, 1:]).T
    )

    def integrand(t, rows):
        alphas = np.sqrt(coeff[:, rows] * t)
        round_betas = betas[:, rows]
        cdfs = np.ones(alphas.shape)
        live = round_betas - alphas <= _NEGLIGIBLE_Q1_GAP
        cdfs[live] = 1.0 - marcum_q1(alphas[live], round_betas[live])
        return np.exp(-t) * np.prod(cdfs, axis=0)

    return integrate_finite(
        integrand, np.zeros(len(limits)),
        np.minimum(limits, spec.truncation_radius), spec,
    )


def joint_magnitude_cdf(taus, profile, spec=None):
    """P(every trained port's estimated magnitude is below its threshold).

    Conditioning on the first port's magnitude makes the remaining ports
    independent Rician variables, leaving a single integral with an
    exp(-t) envelope. Exact (no quadrature) when only one port is
    trained.

    A (B, J) batch of threshold rows against a profile whose
    ``spread_variance`` is (B, J) gives B probabilities, row k equal to
    the single call on row k bit for bit. Their integrals run in
    lockstep, one ``marcum_q1`` call per refinement round; batches of
    more than 2**13 (row, port) pairs run as several such groups, so
    memory stays bounded.
    """
    if spec is None:
        spec = QuadratureSpec()
    taus = np.asarray(taus, dtype=float)
    mu = profile.mu
    spread = profile.spread_variance
    if taus.shape != spread.shape:
        raise ValueError("one threshold per trained port is required")
    if np.any(taus < 0.0):
        raise ValueError("thresholds must be nonnegative")
    rows_tau = taus.reshape(-1, mu.shape[0])
    rows_spread = spread.reshape(rows_tau.shape)
    zero = np.any(rows_tau == 0.0, axis=1).tolist()
    # scalar arithmetic per row, as a lone threshold vector gets it:
    # libm's pow and expm1 round differently from numpy's array kernels
    limits = [
        0.0 if z else t ** 2 / s
        for z, t, s in zip(zero, rows_tau[:, 0].tolist(),
                           rows_spread[:, 0].tolist())
    ]
    if len(profile.ports) == 1:
        values = np.array([-math.expm1(-x) for x in limits])
    else:
        size = max(1, _GROUP_PAIRS // (len(profile.ports) - 1))
        values = np.concatenate([
            _conditional_rician_integrals(
                mu, rows_tau[k:k + size], rows_spread[k:k + size],
                limits[k:k + size], spec,
            )
            for k in range(0, max(len(limits), 1), size)
        ])
    if taus.ndim == 1:
        return float(values[0])
    return values


def joint_magnitude_pdf(taus, profile):
    """Joint density of the trained ports' estimated magnitudes.

    One Rayleigh factor for the first port and one Rician factor per
    remaining port, noncentral at that port's correlated share of the
    first magnitude. Zero off the positive orthant.
    """
    taus = np.asarray(taus, dtype=float)
    mu = profile.mu
    spread = profile.spread_variance
    if taus.shape != mu.shape:
        raise ValueError("one coordinate per trained port is required")
    if np.any(taus <= 0.0):
        return 0.0

    t1 = taus[0]
    density = 2.0 * t1 / spread[0] * math.exp(-t1**2 / spread[0])
    if len(profile.ports) == 1:
        return density

    offset = np.abs(mu[1:]) * t1
    scaled = 2.0 * offset * taus[1:] / spread[1:]
    factors = (
        2.0 * taus[1:] / spread[1:]
        * bessel_i0e(scaled)
        * np.exp(-((taus[1:] - offset) ** 2) / spread[1:])
    )
    return float(density * np.prod(factors))


def sample_correlated_channels(rng, cfg, channel_variance=1.0, size=None):
    """Complex channel draws for every antenna and port.

    Returns shape ``(num_fas, ports_per_fa)``, or ``(size, ...)`` with a
    leading trial axis. Ports share their antenna's first-port components
    scaled by the signed autocorrelation; antennas are independent.
    """
    m = cfg.num_fas
    n = cfg.ports_per_fa
    mu = np.array([autocorrelation(p + 1, cfg) for p in range(n)])
    shape = (m, n) if size is None else (size, m, n)
    scale = math.sqrt(0.5)
    re = rng.normal(0.0, scale, size=shape)
    im = rng.normal(0.0, scale, size=shape)
    anchor_re = re[..., :1]
    anchor_im = im[..., :1]
    w = np.sqrt(1.0 - mu**2)
    sigma = math.sqrt(channel_variance)
    return sigma * (
        (w * re + mu * anchor_re) + 1j * (w * im + mu * anchor_im)
    )
