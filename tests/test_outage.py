"""Tests for outage thresholds, conditional laws, bounds, and averaging."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluidcell.channel import correlation_profile, error_variance_at
from fluidcell.field import NetworkConfig
from fluidcell.geometry import (
    FaArrayConfig,
    FluidParams,
    build_frame_budget,
    link_distance,
    trained_port_indices,
)
from fluidcell.numerics import QuadratureSpec, marcum_q1
from fluidcell.outage import (
    RateTarget,
    averaged_outage_bounds,
    conditional_outage,
    conditional_outage_bounds,
    joint_outage_given_thresholds,
    outage_probability,
    outage_thresholds,
    sinr_threshold,
)

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION

# loose spec keeps the averaged integrals quick; equality tests compare
# runs under the same spec so the tolerance cancels out
FAST_SPEC = QuadratureSpec(absolute_tolerance=1e-7, relative_tolerance=1e-6)


def single_port_setup():
    # two ports, one skipped: only the first port is ever trained
    cfg = FaArrayConfig(ports_per_fa=2, skipped_ports=1)
    budget = build_frame_budget(
        cfg, FluidParams(), COHERENCE_BANDWIDTH, COHERENCE_TIME,
        ESTIMATION_FRACTION,
    )
    return cfg, budget


# =====================================================================
# rate target
# =====================================================================


class TestSinrThreshold:
    def test_stock_value(self, stock_budget):
        target = sinr_threshold(1.0, stock_budget)
        np.testing.assert_allclose(target.threshold, 1.28228062, rtol=1e-8)
        np.testing.assert_allclose(target.data_fraction, 0.84, rtol=1e-12)

    def test_printed_exponent_value(self, stock_budget):
        target = sinr_threshold(1.0, stock_budget, printed_exponent=True)
        np.testing.assert_allclose(target.threshold, 75.10925536, rtol=1e-8)

    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.0, 2.5])
    def test_rate_round_trip(self, rate, stock_budget):
        # the threshold inverts the rate relation over the data share
        t = sinr_threshold(rate, stock_budget)
        np.testing.assert_allclose(
            (1.0 + t.threshold) ** t.data_fraction, 2.0**rate, rtol=1e-12
        )
        p = sinr_threshold(rate, stock_budget, printed_exponent=True)
        np.testing.assert_allclose(
            (1.0 + p.threshold) ** (1.0 - p.data_fraction),
            2.0**rate,
            rtol=1e-12,
        )

    def test_zero_rate_zero_threshold(self, stock_budget):
        target = sinr_threshold(0.0, stock_budget)
        assert target.threshold == 0.0

    def test_rejects_negative_rate(self, stock_budget):
        with pytest.raises(ValueError):
            sinr_threshold(-0.1, stock_budget)

    def test_rate_target_validation(self):
        with pytest.raises(ValueError, match="zero rate"):
            RateTarget(rate=1.0, threshold=0.0, data_fraction=0.84)
        with pytest.raises(ValueError, match="zero rate"):
            RateTarget(rate=0.0, threshold=1.0, data_fraction=0.84)
        with pytest.raises(ValueError, match="data_fraction"):
            RateTarget(rate=1.0, threshold=1.0, data_fraction=1.0)


# =====================================================================
# per-port thresholds
# =====================================================================


class TestOutageThresholds:
    def test_matches_hand_assembly(
        self, stock_cfg, stock_net, stock_budget, stock_target
    ):
        rho, inter = 70.0, 3e-8
        thetas = outage_thresholds(
            rho, inter, stock_cfg, stock_net, stock_budget, stock_target
        )
        ports = trained_port_indices(stock_cfg)
        assert thetas.shape == (len(ports),)
        for k, p in enumerate(ports):
            r = link_distance(p, rho, stock_cfg)
            err = float(
                error_variance_at(r, stock_budget.pilot_length, stock_net)
            )
            expected = stock_target.threshold * (
                r**4 * inter + err + r**4 / stock_net.transmit_snr
            )
            np.testing.assert_allclose(thetas[k], expected, rtol=1e-12)

    def test_per_port_interference_vector(
        self, stock_cfg, stock_net, stock_budget, stock_target
    ):
        inter = np.linspace(1e-8, 8e-8, 8)
        thetas = outage_thresholds(
            70.0, inter, stock_cfg, stock_net, stock_budget, stock_target
        )
        boosted = outage_thresholds(
            70.0, inter + 1e-8, stock_cfg, stock_net, stock_budget,
            stock_target,
        )
        assert np.all(boosted > thetas)

    def test_threshold_scales_with_target(
        self, stock_cfg, stock_net, stock_budget, stock_target
    ):
        doubled = RateTarget(
            rate=stock_target.rate,
            threshold=2.0 * stock_target.threshold,
            data_fraction=stock_target.data_fraction,
        )
        base = outage_thresholds(
            70.0, 3e-8, stock_cfg, stock_net, stock_budget, stock_target
        )
        two = outage_thresholds(
            70.0, 3e-8, stock_cfg, stock_net, stock_budget, doubled
        )
        np.testing.assert_allclose(two, 2.0 * base, rtol=1e-12)

    def test_rejects_bad_inputs(
        self, stock_cfg, stock_net, stock_budget, stock_target
    ):
        with pytest.raises(ValueError):
            outage_thresholds(
                0.0, 1e-8, stock_cfg, stock_net, stock_budget, stock_target
            )
        with pytest.raises(ValueError):
            outage_thresholds(
                70.0, -1e-8, stock_cfg, stock_net, stock_budget, stock_target
            )
        with pytest.raises(ValueError):
            outage_thresholds(
                np.array([70.0, 0.0]), 1e-8, stock_cfg, stock_net,
                stock_budget, stock_target,
            )

    def test_batch_of_distances_stacks_single_calls(
        self, stock_cfg, stock_net, stock_budget, stock_target
    ):
        rhos = np.array([3.0, 70.0, 70.0, 412.5])
        levels = np.array([0.0, 3e-8, 1e-9, 2e-7])
        per_port = np.outer(levels, np.linspace(1.0, 2.0, 8))
        # (batch argument, the single call's argument per row)
        cases = ((levels, levels), (per_port, per_port),
                 (5e-8, np.full(4, 5e-8)))
        for inter, rows in cases:
            batch = outage_thresholds(
                rhos, inter, stock_cfg, stock_net, stock_budget, stock_target
            )
            assert batch.shape == (4, 8)
            for k, rho in enumerate(rhos):
                single = outage_thresholds(
                    float(rho), rows[k], stock_cfg, stock_net, stock_budget,
                    stock_target,
                )
                assert np.array_equal(batch[k], single)


# =====================================================================
# conditional outage
# =====================================================================


class TestConditionalOutage:
    def test_single_trained_port_closed_form(self, stock_net):
        cfg, budget = single_port_setup()
        target = sinr_threshold(1.0, budget)
        rho, inter = 80.0, 2e-8
        theta = outage_thresholds(rho, inter, cfg, stock_net, budget, target)
        spread = correlation_profile(
            cfg, stock_net, budget, rho
        ).spread_variance[0]
        expected = -math.expm1(-theta[0] / spread)
        np.testing.assert_allclose(
            conditional_outage(rho, inter, cfg, stock_net, budget, target),
            expected,
            rtol=1e-12,
        )

    def test_composition_matches_pieces(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        rho, inter = 60.0, 4e-8
        profile = correlation_profile(desk_cfg, stock_net, desk_budget, rho)
        thetas = outage_thresholds(
            rho, inter, desk_cfg, stock_net, desk_budget, target
        )
        np.testing.assert_allclose(
            conditional_outage(
                rho, inter, desk_cfg, stock_net, desk_budget, target
            ),
            joint_outage_given_thresholds(thetas, profile),
            rtol=1e-12,
        )

    def test_monotone_in_interference_and_distance(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        by_inter = [
            conditional_outage(
                20.0, g, desk_cfg, stock_net, desk_budget, target
            )
            for g in (0.0, 1e-7, 1e-6, 5e-6)
        ]
        assert np.all(np.diff(by_inter) > 0.0)
        by_rho = [
            conditional_outage(
                r, 2e-8, desk_cfg, stock_net, desk_budget, target
            )
            for r in (10.0, 15.0, 20.0, 28.0)
        ]
        assert np.all(np.diff(by_rho) > 0.0)
        assert all(0.0 <= p <= 1.0 for p in by_inter + by_rho)

    def test_zero_rate_never_in_outage(self, desk_cfg, stock_net, desk_budget):
        target = sinr_threshold(0.0, desk_budget)
        assert (
            conditional_outage(
                70.0, 2e-8, desk_cfg, stock_net, desk_budget, target
            )
            == 0.0
        )

    def test_printed_form_differs(self, desk_cfg, stock_net, desk_budget):
        # mid-range distance keeps both forms away from saturation
        target = sinr_threshold(1.0, desk_budget)
        default = conditional_outage(
            15.0, 2e-8, desk_cfg, stock_net, desk_budget, target
        )
        printed = conditional_outage(
            15.0, 2e-8, desk_cfg, stock_net, desk_budget, target,
            printed_form=True,
        )
        assert 0.0 <= printed <= 1.0
        assert printed != default


# =====================================================================
# closed-form bracket
# =====================================================================


class TestConditionalOutageBounds:
    def test_ordered_and_bounded_over_grid(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        rng = np.random.default_rng(42)
        for _ in range(60):
            rho = float(rng.uniform(10.0, 250.0))
            inter = float(rng.uniform(0.0, 1e-6))
            mu = float(rng.uniform(0.0, 0.95))
            lower, upper = conditional_outage_bounds(
                rho, inter, mu, desk_cfg, stock_net, desk_budget, target
            )
            assert 0.0 <= lower <= upper <= 1.0

    def test_zero_correlation_collapses_to_exponential_form(
        self, desk_cfg, stock_net, desk_budget
    ):
        # at mu = 0 both sides equal (1 - e^-xi)(1 - sum e^-xi) before
        # clamping, with the interference-only error variance
        target = sinr_threshold(1.0, desk_budget)
        net = stock_net
        rho, inter = 70.0, 4.6e-8
        count = len(trained_port_indices(desk_cfg))
        err = (
            2.0 * math.pi * net.bs_density
            * desk_cfg.ports_per_fa / desk_budget.data_uses
            * rho**2 / (net.path_loss_exponent - 2.0)
        )
        xi = (target.threshold * (rho**4 * inter + err)) ** 2 / (
            net.channel_variance + err
        )
        expected = (1.0 - math.exp(-xi)) * (1.0 - count * math.exp(-xi))
        assert 0.0 < expected < 1.0
        lower, upper = conditional_outage_bounds(
            rho, inter, 0.0, desk_cfg, stock_net, desk_budget, target
        )
        np.testing.assert_allclose(lower, expected, rtol=1e-12)
        np.testing.assert_allclose(upper, expected, rtol=1e-12)

    def test_validation(self, desk_cfg, stock_net, desk_budget):
        target = sinr_threshold(1.0, desk_budget)
        with pytest.raises(ValueError, match="mu"):
            conditional_outage_bounds(
                70.0, 1e-8, 1.0, desk_cfg, stock_net, desk_budget, target
            )
        with pytest.raises(ValueError):
            conditional_outage_bounds(
                -1.0, 1e-8, 0.5, desk_cfg, stock_net, desk_budget, target
            )
        with pytest.raises(ValueError):
            conditional_outage_bounds(
                70.0, -1e-8, 0.5, desk_cfg, stock_net, desk_budget, target
            )


# =====================================================================
# averaged outage
# =====================================================================


class TestOutageProbability:
    def test_antenna_count_squares_the_single_antenna_law(
        self, desk_cfg, stock_net, desk_budget
    ):
        # same frame budget, twice the antennas: the common-draw average
        # raises the identical inner integral to the antenna count
        target = sinr_threshold(1.0, desk_budget)
        p2 = outage_probability(
            desk_cfg, stock_net, desk_budget, target, spec=FAST_SPEC
        )
        p4 = outage_probability(
            replace(desk_cfg, num_fas=4), stock_net, desk_budget, target,
            spec=FAST_SPEC,
        )
        np.testing.assert_allclose(p4, p2**2, rtol=1e-10)
        assert 0.0 < p2 < 1.0

    def test_modes_agree_when_only_the_anchor_port_is_trained(
        self, stock_net
    ):
        # the per-port anchor is the first port's own link distance,
        # which coincides with the serving distance
        cfg, budget = single_port_setup()
        target = sinr_threshold(1.0, budget)
        common = outage_probability(
            cfg, stock_net, budget, target, spec=FAST_SPEC
        )
        per_port = outage_probability(
            cfg, stock_net, budget, target, spec=FAST_SPEC,
            mode="per-port-gamma",
        )
        np.testing.assert_allclose(per_port, common, rtol=1e-9)

    def test_per_port_mode_differs_with_several_ports(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        common = outage_probability(
            desk_cfg, stock_net, desk_budget, target, spec=FAST_SPEC
        )
        per_port = outage_probability(
            desk_cfg, stock_net, desk_budget, target, spec=FAST_SPEC,
            mode="per-port-gamma",
        )
        assert 0.0 < per_port < 1.0
        assert per_port != common

    def test_rejects_unknown_mode(self, desk_cfg, stock_net, desk_budget):
        target = sinr_threshold(1.0, desk_budget)
        with pytest.raises(ValueError, match="mode"):
            outage_probability(
                desk_cfg, stock_net, desk_budget, target, mode="exact"
            )

    @pytest.mark.parametrize("dbm, expected", [
        (28, 0.830345698394),
        (40, 0.479437508978),
    ])
    def test_pinned_stock_common_gamma(
        self, dbm, expected, stock_cfg, stock_budget, stock_target
    ):
        # fig3 powers at the stock array under the default spec, as the
        # Bessel-series Marcum Q gave them: a faster special-function
        # kernel must not move an estimate
        net = NetworkConfig(tx_power=10.0 ** ((dbm - 30.0) / 10.0))
        got = outage_probability(stock_cfg, net, stock_budget, stock_target)
        assert abs(got - expected) <= 1e-9

    def test_marcum_call_count_guard(
        self, desk_cfg, desk_budget, monkeypatch
    ):
        # desk array at bs_density 1e-3: one Marcum Q call per
        # quadrature panel made 2,338 calls here; batching the three
        # nested quadratures makes one per refinement round. The value
        # is the panel-by-panel one, to the last bit.
        calls = []

        def counted(alpha, beta):
            calls.append(np.shape(alpha))
            return marcum_q1(alpha, beta)

        monkeypatch.setattr("fluidcell.channel.marcum_q1", counted)
        net = NetworkConfig(bs_density=1e-3)
        target = sinr_threshold(1.0, desk_budget)
        got = outage_probability(desk_cfg, net, desk_budget, target)
        assert len(calls) <= 234
        assert got == 0.15093386624370483

    def test_pair_chunks_leave_the_value_unchanged(
        self, desk_cfg, desk_budget, monkeypatch
    ):
        net = NetworkConfig(bs_density=1e-3)
        target = sinr_threshold(1.0, desk_budget)
        whole = outage_probability(
            desk_cfg, net, desk_budget, target, spec=FAST_SPEC
        )
        monkeypatch.setattr("fluidcell.outage._PAIRS_PER_CALL", 3)
        chunked = outage_probability(
            desk_cfg, net, desk_budget, target, spec=FAST_SPEC
        )
        assert chunked == whole


class TestAveragedOutageBounds:
    def test_ordered_and_squaring(self, desk_cfg, stock_net, desk_budget):
        target = sinr_threshold(1.0, desk_budget)
        lower, upper = averaged_outage_bounds(
            0.4, desk_cfg, stock_net, desk_budget, target, spec=FAST_SPEC
        )
        assert 0.0 <= lower <= upper <= 1.0
        lower4, upper4 = averaged_outage_bounds(
            0.4, replace(desk_cfg, num_fas=4), stock_net, desk_budget,
            target, spec=FAST_SPEC,
        )
        np.testing.assert_allclose(lower4, lower**2, rtol=1e-10)
        np.testing.assert_allclose(upper4, upper**2, rtol=1e-10)
