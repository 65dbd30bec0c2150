"""Closed-form outage probability of the two-stage port selection.

The receiver trains a strided subset of ports per antenna, pre-selects
the strongest estimate on each antenna, and rides the best candidate.
Outage happens when every candidate's SINR misses the rate-derived
threshold. The expressions here condition on serving distance and
interference, then average both out; an interference-limited closed-form
bracket avoids quadrature entirely.

Two printed-form switches reproduce algebraic variants kept for
comparison: an alternative rate exponent and an alternative threshold
substitution in the conditional outage. Defaults use the forms that are
dimensionally consistent with the SINR definition.
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
from .geometry import link_distances, trained_port_indices
from .numerics import QuadratureSpec, integrate_finite

__all__ = [
    "RateTarget",
    "sinr_threshold",
    "outage_thresholds",
    "joint_outage_given_thresholds",
    "conditional_outage",
    "conditional_outage_bounds",
    "outage_probability",
]

# Serving-distance mass ignored by the truncated outer integral; the
# integrand is a probability, so this is also the absolute error bound.
DISTANCE_TAIL = 1e-12
# Distinct (distance, interference) pairs per conditional-outage call: a
# round's threshold rows stay bounded at any trained-port count.
_PAIRS_PER_CALL = 4096


@dataclass(frozen=True)
class RateTarget:
    """Rate requirement and the SINR threshold it implies."""

    rate: float           # data bits per channel use
    threshold: float      # SINR level below which the rate is missed
    data_fraction: float  # share of the frame carrying payload

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("rate must be nonnegative")
        if not 0.0 < self.data_fraction < 1.0:
            raise ValueError("data_fraction must lie strictly in (0, 1)")
        if self.threshold < 0.0:
            raise ValueError("threshold must be nonnegative")
        if (self.threshold == 0.0) != (self.rate == 0.0):
            raise ValueError("threshold vanishes exactly at zero rate")


def sinr_threshold(rate, budget, printed_exponent=False):
    """SINR threshold equivalent to the target rate over the data share.

    The default scales the rate by the fraction of the frame that
    carries data. ``printed_exponent`` instead scales by one minus that
    fraction (the training share), kept for comparison runs.
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    data_fraction = budget.data_uses / budget.total_uses
    scale = (1.0 - data_fraction) if printed_exponent else data_fraction
    threshold = 2.0 ** (rate / scale) - 1.0
    return RateTarget(
        rate=float(rate),
        threshold=float(threshold),
        data_fraction=float(data_fraction),
    )


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


def joint_outage_given_thresholds(thetas, profile, spec=None,
                                  printed_form=False):
    """Probability that every trained port misses its power threshold.

    The default substitutes each threshold's square root into the joint
    magnitude law. ``printed_form`` substitutes the thresholds directly
    (squared integration limit, unsquared Rician arguments), matching
    the algebra the closed-form bracket is derived from.
    """
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas < 0.0):
        raise ValueError("thresholds must be nonnegative")
    taus = thetas if printed_form else np.sqrt(thetas)
    return joint_magnitude_cdf(taus, profile, spec)


def conditional_outage(rho, interference, cfg, net, budget, target,
                       spec=None, printed_form=False):
    """Outage probability of one antenna given distance and interference.

    A 1-D array of distances, with interference as in
    :func:`outage_thresholds`, gives one outage per distance, computed
    as one batch.
    """
    profile = correlation_profile(cfg, net, budget, rho)
    thetas = outage_thresholds(rho, interference, cfg, net, budget, target)
    return joint_outage_given_thresholds(
        thetas, profile, spec, printed_form=printed_form
    )


# ---------------------------------------------------------------------------
# Interference-limited closed-form bracket
# ---------------------------------------------------------------------------

def conditional_outage_bounds(rho, interference, mu_common, cfg, net,
                              budget, target):
    """Closed-form (lower, upper) outage bracket, no quadrature.

    Valid in the interference-limited regime with one common
    correlation across trained ports and a common link distance. The
    estimation error variance collapses to its interference-only form
    with the per-port training share read off the data-use count.
    """
    if rho <= 0.0:
        raise ValueError("serving distance must be positive")
    if not 0.0 <= abs(mu_common) < 1.0:
        raise ValueError("common correlation must satisfy |mu| < 1")
    ports = trained_port_indices(cfg)
    count = len(ports)
    inter = np.broadcast_to(
        np.asarray(interference, dtype=float), (count,)
    )
    if np.any(inter < 0.0):
        raise ValueError("interference must be nonnegative")

    sigma_sq = net.channel_variance
    mu = abs(mu_common)
    # interference term of the pilot-noise ratio over a per-port pilot
    # share of data_uses / ports_per_fa
    err = (campbell_mean(rho**2, net) / sigma_sq
           * cfg.ports_per_fa / budget.data_uses)
    spread = sigma_sq * (1.0 - mu**2) + err
    thetas = target.threshold * (rho**net.path_loss_exponent * inter + err)
    xi = thetas**2 / spread

    decay = np.exp(-xi)
    base = 1.0 - decay[0]
    upsilon_up = -math.expm1(-xi[0] * (1.0 - mu) ** 2) / (1.0 + mu**2)
    upsilon_low = -math.expm1(-xi[0] * (1.0 + mu) ** 2) / (1.0 + mu**2)
    tail = float(np.sum(decay))

    upper = min(1.0, max(0.0, base - upsilon_up * tail))
    lower = min(1.0, max(0.0, base - upsilon_low * tail))
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


def _averaged_over_interference(outage_at, model, keys, spec):
    """E[outage(gamma)] under each row's Gamma surrogate, as one batch.

    Integrating in probability space through the quantile map handles
    the near-degenerate shapes (essentially all mass at zero, a
    vanishing far tail) that defeat a direct gamma-space quadrature.
    ``model`` holds one surrogate per row, as arrays. Rows with equal
    ``keys`` share one conditional outage, so each round calls
    ``outage_at(rows, gammas)`` on its distinct (key, gamma) pairs
    only, once per ``_PAIRS_PER_CALL`` of them.
    """

    def integrand(v, rows):
        gammas = _gamma_quantile(model.shape[rows], model.scale[rows], v)
        # one complex number per pair: a 1-D dedupe, exact on both parts
        _, first, inverse = np.unique(
            gammas + 1j * keys[rows], return_index=True, return_inverse=True
        )
        parts = np.split(
            first, range(_PAIRS_PER_CALL, len(first), _PAIRS_PER_CALL)
        )
        values = np.concatenate([
            outage_at(rows[part], gammas[part]) for part in parts
        ])
        return values[inverse.reshape(-1)]

    count = len(keys)
    return integrate_finite(integrand, np.zeros(count), np.ones(count), spec)


def _distance_averaged(conditional, tags, anchor, net, spec):
    """Conditional outage averaged over interference and serving distance.

    One integral per entry of ``tags``, all run as one batch. Row k
    weighs, at each serving distance rho, the conditional outage
    averaged over the Gamma surrogate anchored at radius anchor(k, rho),
    by the nearest-transmitter density of rho; ``anchor(rows, rhos)``
    gives those radii elementwise over a round's nodes.
    ``conditional(tags, rhos, gammas)`` gives the conditional outage
    elementwise; each round passes it every distinct (tag, rho, gamma)
    once.
    """
    lam = net.bs_density
    rho_cut = math.sqrt(math.log(1.0 / DISTANCE_TAIL) / (math.pi * lam))
    tags = np.asarray(tags)

    def integrand(rhos, rows):
        model = gamma_interference_model(anchor(rows, rhos), net)
        round_tags = tags[rows]
        _, keys = np.unique(rhos + 1j * round_tags, return_inverse=True)

        def outage_at(index, gammas):
            return conditional(round_tags[index], rhos[index], gammas)

        averaged = _averaged_over_interference(
            outage_at, model, keys.reshape(-1), spec
        )
        density = np.array([
            2.0 * math.pi * lam * rho * math.exp(-math.pi * lam * rho**2)
            for rho in rhos.tolist()
        ])
        return averaged * density

    count = len(tags)
    return integrate_finite(
        integrand, np.zeros(count), np.full(count, rho_cut), spec
    )


def outage_probability(cfg, net, budget, target, spec=None,
                       mode="common-gamma", printed_form=False):
    """Network outage probability averaged over distance and interference.

    ``common-gamma`` shares one Gamma interference draw across the
    trained ports, averages the conditional outage over it and the
    serving distance, and raises the result to the antenna count.
    ``per-port-gamma`` instead averages one full double integral per
    trained port (each port's Gamma surrogate anchored at its own link
    distance) and multiplies them all, which breaks the coupling of the
    shared interference draw; it is kept for comparison. Its per-port
    integrals run as one batch.
    """
    if spec is None:
        spec = QuadratureSpec()
    if mode not in ("common-gamma", "per-port-gamma"):
        raise ValueError(f"unknown mode {mode!r}")

    def conditional(_, rhos, gammas):
        return conditional_outage(
            rhos, gammas, cfg, net, budget, target, spec,
            printed_form=printed_form,
        )

    if mode == "common-gamma":
        single = _distance_averaged(
            conditional, [0], lambda rows, rhos: rhos, net, spec
        )
        return min(1.0, float(single[0])) ** cfg.num_fas

    ports = trained_port_indices(cfg)
    per_port = _distance_averaged(
        conditional, [0] * len(ports),
        lambda rows, rhos: link_distances(ports, rhos, cfg)[
            np.arange(rows.size), rows
        ],
        net, spec,
    )
    product = 1.0
    for value in per_port.tolist():
        product *= min(1.0, value)
    return product ** cfg.num_fas


def averaged_outage_bounds(mu_common, cfg, net, budget, target, spec=None):
    """Closed-form outage bracket averaged over distance and interference.

    Averaging the conditional bracket over the shared interference draw
    and the serving distance keeps the ordering, and raising to the
    antenna count keeps it again, so the pair brackets the common-gamma
    network outage in the interference-limited regime (up to the
    product-to-sum step the conditional bracket itself rests on). The
    two sides run as one batch.
    """
    if spec is None:
        spec = QuadratureSpec()

    def conditional(sides, rhos, gammas):
        return np.array([
            conditional_outage_bounds(
                rho, gamma, mu_common, cfg, net, budget, target
            )[side]
            for side, rho, gamma in zip(
                sides.tolist(), rhos.tolist(), gammas.tolist()
            )
        ])

    lower, upper = _distance_averaged(
        conditional, [0, 1], lambda rows, rhos: rhos, net, spec
    ).tolist()
    return min(1.0, lower) ** cfg.num_fas, min(1.0, upper) ** cfg.num_fas
