"""The channel variance enters the engines only through the SNR.

Channel draws, interference powers and error variances are all in units
of the channel variance sigma^2, so a network at sigma^2 = 2 and power P
has the same transmit SNR, and must give the same outage, as one at
sigma^2 = 1 and power 2P. The interference-limited bracket reads no
SNR, so it does not depend on sigma^2 at all.
"""

import math

import numpy as np
import pytest

from fluidcell import (
    NetworkConfig,
    TrialPlan,
    autocorrelation,
    averaged_outage_bounds,
    estimate_outage,
    min_skipped_ports,
    outage_probability,
    sinr_threshold,
    trained_port_indices,
)

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION

POWERS = (1e-3, 1e-2)


def doubled_variance_and_power(power):
    """(sigma^2 = 2 at ``power``, sigma^2 = 1 at twice ``power``)."""
    return (NetworkConfig(channel_variance=2.0, tx_power=power),
            NetworkConfig(tx_power=2.0 * power))


@pytest.mark.parametrize("power", POWERS)
@pytest.mark.parametrize("mode", ["common-gamma", "per-port-gamma"])
def test_analytic_outage(desk_cfg, desk_budget, power, mode):
    target = sinr_threshold(1.0, desk_budget)
    values = [
        outage_probability(desk_cfg, net, desk_budget, target, mode=mode)
        for net in doubled_variance_and_power(power)
    ]
    assert values[0] == values[1]
    assert 0.0 < values[0] < 1.0


@pytest.mark.parametrize("power", POWERS)
def test_simulated_outage_with_default_pilots(desk_cfg, desk_budget, power):
    target = sinr_threshold(1.0, desk_budget)
    plan = TrialPlan(num_trials=4096, seed=5)
    values = [
        estimate_outage(plan, desk_cfg, net, desk_budget, target)
        for net in doubled_variance_and_power(power)
    ]
    assert values[0] == values[1]


@pytest.mark.parametrize("power", POWERS)
def test_simulated_outage_with_explicit_pilots(desk_cfg, desk_budget, power):
    # the pilot noise enters the estimate law as 1/SNR next to the
    # realized interference, both in units of sigma^2, so the two
    # networks agree bit for bit
    target = sinr_threshold(1.0, desk_budget)
    plan = TrialPlan(num_trials=8192, seed=5, faithful_pilots=True)
    values = [
        estimate_outage(plan, desk_cfg, net, desk_budget, target)
        for net in doubled_variance_and_power(power)
    ]
    assert values[0] == values[1]


@pytest.mark.parametrize("power", POWERS)
def test_skip_rule_at_equal_relative_targets(desk_cfg, stock_fluid, power):
    counts = [
        min_skipped_ports(0.3, 1.0 / math.sqrt(math.pi * net.bs_density),
                          desk_cfg, stock_fluid, net, COHERENCE_BANDWIDTH,
                          COHERENCE_TIME, ESTIMATION_FRACTION)
        for net in doubled_variance_and_power(power)
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("power", POWERS)
def test_interference_limited_bracket(desk_cfg, desk_budget, power):
    target = sinr_threshold(1.0, desk_budget)
    mu = np.mean(np.abs(autocorrelation(trained_port_indices(desk_cfg)[1:],
                                        desk_cfg)))
    brackets = [
        averaged_outage_bounds(mu, desk_cfg, NetworkConfig(
            channel_variance=variance, tx_power=power), desk_budget, target)
        for variance in (2.0, 1.0)
    ]
    assert brackets[0] == brackets[1]
