"""Closed-form outage probability of the two-stage port selection.

The receiver trains a strided subset of ports per antenna, pre-selects
the strongest estimate on each antenna, and rides the best candidate.
Outage happens when every candidate's SINR misses the rate-derived
threshold. The expressions here condition on serving distance and
interference, then average both out; an interference-limited closed-form
bracket avoids quadrature entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sf

from .channel import (
    correlation_profile,
    error_variance_at,
    joint_magnitude_cdf,
)
from .field import campbell_mean, gamma_interference_model
from .geometry import (
    link_distances,
    port_displacement,
    trained_port_count,
    trained_port_indices,
)
from .numerics import QuadratureSpec, integrate_finite

__all__ = [
    "RateTarget",
    "sinr_threshold",
    "outage_thresholds",
    "conditional_outage",
    "conditional_outage_bounds",
    "outage_averages",
    "outage_probability",
    "averaged_outage_bounds",
    "outage_bytes",
]

# Serving-distance mass ignored by the truncated outer integral; the
# integrand is a probability, so this is also the absolute error bound.
DISTANCE_TAIL = 1e-12
# Distinct (distance, interference) pairs per conditional-outage call: a
# round's threshold rows stay bounded at any trained-port count.
_PAIRS_PER_CALL = 4096
# peak bytes of one outage: about six float64 arrays over a call's pairs
# x trained ports, plus a fixed share for the joint cdf's Marcum Q groups
_BYTES_PER_PORT = _PAIRS_PER_CALL * 6 * 8
_FIXED_BYTES = 40 * 2**20


def outage_bytes(cfg):
    """Estimated peak bytes of one outage probability at ``cfg``, whose
    conditional-outage calls take at most ``_PAIRS_PER_CALL`` pairs of one
    threshold per trained port. Arithmetic, like ``mc.chunk_bytes``."""
    return trained_port_count(cfg) * _BYTES_PER_PORT + _FIXED_BYTES


@dataclass(frozen=True)
class RateTarget:
    """The SINR threshold a rate requirement implies."""

    threshold: float  # SINR level below which the rate is missed

    def __post_init__(self):
        if self.threshold < 0.0:
            raise ValueError("threshold must be nonnegative")


def sinr_threshold(rate, budget):
    """SINR threshold equivalent to the target rate over the data share.

    The rate is scaled by the fraction of the frame that carries data.
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    data_fraction = budget.data_uses / budget.total_uses
    try:
        threshold = 2.0 ** (rate / data_fraction) - 1.0
    except OverflowError:
        raise ValueError(
            f"rate {rate:g} over the data share {data_fraction:.4g} needs "
            "an SINR threshold beyond floating-point range"
        ) from None
    return RateTarget(threshold=float(threshold))


def outage_thresholds(rho, interference, cfg, net, budget, target):
    """Per-trained-port estimated-gain-power levels that mark outage.

    A candidate port is in outage exactly when its squared estimated
    magnitude falls below its entry here. ``interference`` is a scalar
    shared by every port or a per-port sequence.

    A 1-D array of serving distances gives one row of thresholds per
    distance; ``interference`` is then a scalar, one level per distance,
    or one row of per-port levels per distance.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("serving distance must be positive")
    r = link_distances(trained_port_indices(cfg), rho, cfg)
    inter = np.asarray(interference, dtype=float)
    if rho.ndim and inter.ndim == 1:
        inter = inter[:, None]  # one level per distance, shared by its ports
    inter = np.broadcast_to(inter, r.shape)
    if np.any(inter < 0.0):
        raise ValueError("interference must be nonnegative")
    err = error_variance_at(r, budget.pilot_length, net)
    a = net.path_loss_exponent
    return target.threshold * r**a * (
        inter + err / r**a + 1.0 / net.transmit_snr
    )


def conditional_outage(rho, interference, cfg, net, budget, target,
                       spec=QuadratureSpec()):
    """Outage probability of one antenna given distance and interference.

    The antenna is in outage when every trained port's estimated power
    misses its threshold, so the thresholds' square roots enter the
    joint magnitude law. A 1-D array of distances, with interference as
    in :func:`outage_thresholds`, gives one outage per distance.
    """
    profile = correlation_profile(cfg, net, budget, rho)
    thetas = outage_thresholds(rho, interference, cfg, net, budget, target)
    return joint_magnitude_cdf(np.sqrt(thetas), profile, spec)


# ---------------------------------------------------------------------------
# Interference-limited closed-form bracket
# ---------------------------------------------------------------------------

def conditional_outage_bounds(rho, interference, mu_common, cfg, net,
                              budget, target):
    """Closed-form (lower, upper) outage bracket, no quadrature.

    Valid in the interference-limited regime with one common
    correlation across trained ports, one interference level and a
    common link distance, so every port shares one decay e^(-xi) and
    their tail is count * e^(-xi). The estimation error variance
    collapses to its interference-only form with the per-port training
    share read off the data-use count.

    Elementwise over equal-shape arrays of ``rho`` and ``interference``,
    entry k the call on pair k bit for bit; a scalar pair gives floats.
    """
    scalar = np.ndim(rho) == 0
    r = np.asarray(rho, dtype=float).reshape(-1)
    inter = np.asarray(interference, dtype=float).reshape(-1)
    if np.any(r <= 0.0):
        raise ValueError("serving distance must be positive")
    if not 0.0 <= abs(mu_common) < 1.0:
        raise ValueError("common correlation must satisfy |mu| < 1")
    if np.any(inter < 0.0):
        raise ValueError("interference must be nonnegative")

    mu = abs(mu_common)
    # interference term of the pilot-noise ratio over a per-port pilot
    # share of data_uses / ports_per_fa
    err = campbell_mean(r**2, net) * cfg.ports_per_fa / budget.data_uses
    spread = (1.0 - mu**2) + err
    theta = target.threshold * (r**net.path_loss_exponent * inter + err)
    xi = theta**2 / spread

    decay = np.exp(-xi)
    base = 1.0 - decay
    upsilon_up = -np.expm1(-xi * (1.0 - mu) ** 2) / (1.0 + mu**2)
    upsilon_low = -np.expm1(-xi * (1.0 + mu) ** 2) / (1.0 + mu**2)
    tail = trained_port_count(cfg) * decay

    lower = np.clip(base - upsilon_low * tail, 0.0, 1.0)
    upper = np.clip(base - upsilon_up * tail, 0.0, 1.0)
    if scalar:
        return float(lower[0]), float(upper[0])
    return lower, upper


# ---------------------------------------------------------------------------
# Unconditional outage
# ---------------------------------------------------------------------------

def _gamma_quantile(shape, scale, v):
    """Interference quantiles of Gamma surrogates, robust to tiny shapes."""
    with np.errstate(all="ignore"):
        x = _sf.gammaincinv(shape, v)
    x = np.where(np.isfinite(x), x, 0.0)
    return scale * x


def _averaged_over_interference(conditional, rhos, model, spec):
    """E[outage(rho, gamma)] under each row's Gamma surrogate, as one batch.

    Integrating in probability space through the quantile map handles
    the near-degenerate shapes (essentially all mass at zero, a
    vanishing far tail) that defeat a direct gamma-space quadrature.
    Row k sits at serving distance ``rhos[k]``; ``model`` holds one
    surrogate per row, as arrays. Each round calls
    ``conditional(rhos, gammas)`` on its distinct (rho, gamma) pairs
    only, once per ``_PAIRS_PER_CALL`` of them.
    """

    def integrand(v, rows):
        gammas = _gamma_quantile(model.shape[rows], model.scale[rows], v)
        round_rhos = rhos[rows]
        # one complex number per pair: a 1-D dedupe, exact on both parts
        _, first, inverse = np.unique(
            gammas + 1j * round_rhos, return_index=True, return_inverse=True
        )
        parts = np.split(
            first, range(_PAIRS_PER_CALL, len(first), _PAIRS_PER_CALL)
        )
        values = np.concatenate([
            conditional(round_rhos[part], gammas[part]) for part in parts
        ])
        return values[inverse.reshape(-1)]

    count = len(rhos)
    return integrate_finite(integrand, np.zeros(count), np.ones(count), spec)


def _distance_averaged(conditional, offsets, net, spec):
    """Conditional outage averaged over interference and serving distance.

    One integral per entry of ``offsets``, all run as one batch. Row k
    weighs, at each serving distance rho, the conditional outage
    averaged over the Gamma surrogate anchored at radius
    hypot(rho, offsets[k]), by the nearest-transmitter density of rho.
    ``conditional(rhos, gammas)`` gives the conditional outage
    elementwise; each round passes it every distinct (rho, gamma) once.
    """
    lam = net.bs_density
    rho_cut = math.sqrt(math.log(1.0 / DISTANCE_TAIL) / (math.pi * lam))
    offsets = np.asarray(offsets, dtype=float)

    def integrand(rhos, rows):
        # hypot(rho, 0) is rho exactly, and a port's offset gives its
        # link distance as geometry.link_distances does, bit for bit
        model = gamma_interference_model(np.hypot(rhos, offsets[rows]), net)
        averaged = _averaged_over_interference(conditional, rhos, model, spec)
        density = 2.0 * math.pi * lam * rhos * np.exp(-math.pi * lam * rhos**2)
        return averaged * density

    count = len(offsets)
    return integrate_finite(
        integrand, np.zeros(count), np.full(count, rho_cut), spec
    )


def outage_averages(cfg, net, budget, target, spec=QuadratureSpec(),
                    mode="common-gamma"):
    """Distance averages that :func:`outage_probability` reduces: one row
    for ``common-gamma``, one per trained port for ``per-port-gamma``,
    run as one batch."""
    if mode not in ("common-gamma", "per-port-gamma"):
        raise ValueError(f"unknown mode {mode!r}")

    def conditional(rhos, gammas):
        return conditional_outage(rhos, gammas, cfg, net, budget, target, spec)

    offsets = [0.0]
    if mode == "per-port-gamma":
        offsets = port_displacement(trained_port_indices(cfg), cfg)
    return _distance_averaged(conditional, offsets, net, spec)


def outage_probability(cfg, net, budget, target, spec=QuadratureSpec(),
                       mode="common-gamma", averages=None):
    """Network outage probability averaged over distance and interference.

    ``common-gamma`` shares one Gamma interference draw across the
    trained ports, averages the conditional outage over it and the
    serving distance, and raises the result to the antenna count.
    ``per-port-gamma`` instead averages one full double integral per
    trained port (each port's Gamma surrogate anchored at its own link
    distance) and multiplies them all, which breaks the coupling of the
    shared interference draw; it is kept for comparison.

    ``averages``, from :func:`outage_averages` of either mode, are
    computed when not given. Port 1's offset is 0, so per-port row 0 is
    the common-gamma integral bit for bit and ``common-gamma`` reads
    that row alone: one per-port batch serves both modes.
    """
    if averages is None:
        averages = outage_averages(cfg, net, budget, target, spec, mode)
    elif mode not in ("common-gamma", "per-port-gamma"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "common-gamma":
        averages = averages[:1]
    return float(np.prod(np.minimum(averages, 1.0)) ** cfg.num_fas)


def averaged_outage_bounds(mu_common, cfg, net, budget, target,
                           spec=QuadratureSpec()):
    """Closed-form outage bracket averaged over distance and interference.

    Averaging the conditional bracket over the shared interference draw
    and the serving distance keeps the ordering, and raising to the
    antenna count keeps it again, so the pair brackets the common-gamma
    network outage in the interference-limited regime (up to the
    product-to-sum step the conditional bracket itself rests on).
    """

    def averaged(side):
        def conditional(rhos, gammas):
            return conditional_outage_bounds(rhos, gammas, mu_common, cfg,
                                             net, budget, target)[side]

        value = float(_distance_averaged(conditional, [0.0], net, spec)[0])
        return min(1.0, value) ** cfg.num_fas

    return averaged(0), averaged(1)
