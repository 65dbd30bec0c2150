"""Tests for outage thresholds, conditional laws, bounds, and averaging."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fluidcell import numerics, outage
from fluidcell.channel import (
    correlation_profile,
    error_variance_at,
    joint_magnitude_cdf,
)
from fluidcell.field import NetworkConfig, mean_interference
from fluidcell.geometry import (
    FaArrayConfig,
    FluidParams,
    build_frame_budget,
    link_distance,
    trained_port_indices,
)
from fluidcell.numerics import QuadratureSpec, marcum_q1
from fluidcell.outage import (
    _PAIRS_PER_CALL,
    RateTarget,
    averaged_outage_bounds,
    conditional_outage,
    conditional_outage_bounds,
    outage_averages,
    outage_bytes,
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


def _count_marcum_values(monkeypatch):
    """List that collects the number of values each Marcum Q call of the
    joint port cdf receives."""
    evals = []

    def counted(alpha, beta):
        evals.append(np.size(alpha))
        return marcum_q1(alpha, beta)

    monkeypatch.setattr("fluidcell.channel.marcum_q1", counted)
    return evals


# =====================================================================
# rate target
# =====================================================================


class TestSinrThreshold:
    def test_stock_value(self, stock_budget):
        target = sinr_threshold(1.0, stock_budget)
        np.testing.assert_allclose(target.threshold, 1.28228062, rtol=1e-8)

    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.0, 2.5])
    def test_rate_round_trip(self, rate, stock_budget):
        # the threshold inverts the rate relation over the data share
        t = sinr_threshold(rate, stock_budget)
        data_fraction = stock_budget.data_uses / stock_budget.total_uses
        np.testing.assert_allclose(
            (1.0 + t.threshold) ** data_fraction, 2.0**rate, rtol=1e-12
        )

    def test_zero_rate_zero_threshold(self, stock_budget):
        target = sinr_threshold(0.0, stock_budget)
        assert target.threshold == 0.0

    def test_rejects_negative_rate(self, stock_budget):
        with pytest.raises(ValueError):
            sinr_threshold(-0.1, stock_budget)

    def test_overflowing_threshold_names_the_rate(self, stock_budget):
        # 2^(rate / 0.84) - 1 passes the float range near rate 860
        sinr_threshold(850.0, stock_budget)
        with pytest.raises(ValueError, match="rate 2000"):
            sinr_threshold(2000.0, stock_budget)

    def test_rate_target_validation(self):
        RateTarget(threshold=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            RateTarget(threshold=-0.5)


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
        doubled = RateTarget(threshold=2.0 * stock_target.threshold)
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
            joint_magnitude_cdf(np.sqrt(thetas), profile),
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


# =====================================================================
# closed-form bracket
# =====================================================================


class TestConditionalOutageBounds:
    def test_ordered_and_bounded_over_grid(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        rng = np.random.default_rng(42)
        rhos = rng.uniform(10.0, 250.0, 60)
        inters = rng.uniform(0.0, 1e-6, 60)
        for mu in rng.uniform(0.0, 0.95, 4).tolist():
            singles = [
                conditional_outage_bounds(rho, inter, mu, desk_cfg,
                                          stock_net, desk_budget, target)
                for rho, inter in zip(rhos.tolist(), inters.tolist())
            ]
            for lower, upper in singles:
                assert 0.0 <= lower <= upper <= 1.0
            # the arrays give the scalar calls' pairs bit for bit
            lower, upper = conditional_outage_bounds(
                rhos, inters, mu, desk_cfg, stock_net, desk_budget, target
            )
            assert list(zip(lower.tolist(), upper.tolist())) == singles

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
            1.0 + err
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
        # the one trained port's offset is 0, so both modes make the
        # same distance-averaging call, anchored at the serving distance
        cfg, budget = single_port_setup()
        target = sinr_threshold(1.0, budget)
        common = outage_probability(
            cfg, stock_net, budget, target, spec=FAST_SPEC
        )
        per_port = outage_probability(
            cfg, stock_net, budget, target, spec=FAST_SPEC,
            mode="per-port-gamma",
        )
        assert per_port == common

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

    def test_marcum_evaluation_count_guard(
        self, stock_cfg, stock_budget, stock_target, monkeypatch
    ):
        # stock array at 40 dBm: 72,310 (port, node) pairs reached
        # marcum_q1 when every one was evaluated; skipping those past the
        # cut-off, where 1 - Q1 is exactly 1.0, leaves about 25.6k
        evals = _count_marcum_values(monkeypatch)
        net = NetworkConfig(tx_power=10.0)
        got = outage_probability(stock_cfg, net, stock_budget, stock_target)
        assert sum(evals) <= 36_000
        assert abs(got - 0.479437508978) <= 1e-9

    def test_chndtr_evaluation_count_guard(
        self, stock_cfg, stock_budget, stock_target, monkeypatch
    ):
        # stock array at 40 dBm: all 25,576 Marcum Q values went through
        # scipy's noncentral chi-square; the erfc series takes those with
        # ab >= 16 and (b - a)^2 <= ab, which leaves about 15.6k
        counts = []
        special = numerics._sf

        class CountingSpecial:
            def __getattr__(self, name):
                return getattr(special, name)

            def chndtr(self, x, df, nc):
                counts.append(np.size(x))
                return special.chndtr(x, df, nc)

        monkeypatch.setattr(numerics, "_sf", CountingSpecial())
        net = NetworkConfig(tx_power=10.0)
        got = outage_probability(stock_cfg, net, stock_budget, stock_target)
        assert 0 < sum(counts) <= 18_000
        assert abs(got - 0.479437508978) <= 1e-9

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

    def test_given_averages_need_a_known_mode(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        with pytest.raises(ValueError, match="mode"):
            outage_probability(desk_cfg, stock_net, desk_budget, target,
                               mode="exact", averages=np.array([0.5]))


def _shared_and_separate(cfg, net):
    """Both modes' outages reduced from one per-port batch, and each
    mode's own call, as ``float.hex`` strings."""
    budget = build_frame_budget(
        cfg, FluidParams(), COHERENCE_BANDWIDTH, COHERENCE_TIME,
        ESTIMATION_FRACTION,
    )
    target = sinr_threshold(1.0, budget)
    averages = outage_averages(cfg, net, budget, target,
                               mode="per-port-gamma")
    modes = ("common-gamma", "per-port-gamma")
    shared = [outage_probability(cfg, net, budget, target, mode=mode,
                                 averages=averages).hex() for mode in modes]
    separate = [outage_probability(cfg, net, budget, target,
                                   mode=mode).hex() for mode in modes]
    return shared, separate


class TestSharedPerPortBatch:
    """Port 1's offset is 0, so the per-port batch's row 0 is the
    common-gamma integral: one batch gives both modes' outages."""

    @pytest.mark.parametrize("skip", [0, 1, 3])
    @pytest.mark.parametrize("power", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("density", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("num_fas, ports", [(2, 5), (4, 15)],
                             ids=["desk", "stock"])
    def test_both_modes_equal_their_own_calls(
        self, num_fas, ports, density, power, skip
    ):
        cfg = FaArrayConfig(num_fas=num_fas, ports_per_fa=ports,
                            skipped_ports=skip)
        net = NetworkConfig(bs_density=density, tx_power=power)
        shared, separate = _shared_and_separate(cfg, net)
        assert shared == separate

    def test_fifteen_trained_ports(self):
        # the stock frame of the analytic_stock_ports golden, past the 8
        # terms where numpy's products regroup
        cfg = FaArrayConfig(ports_per_fa=29, skipped_ports=1)
        assert len(trained_port_indices(cfg)) == 15
        shared, separate = _shared_and_separate(cfg, NetworkConfig())
        assert shared == separate

    def test_common_gamma_averages_are_one_row(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        common = outage_averages(desk_cfg, stock_net, desk_budget, target,
                                 spec=FAST_SPEC)
        per_port = outage_averages(desk_cfg, stock_net, desk_budget, target,
                                   spec=FAST_SPEC, mode="per-port-gamma")
        assert common.shape == (1,)
        assert per_port.shape == (len(trained_port_indices(desk_cfg)),)
        assert common[0] == per_port[0]
        with pytest.raises(ValueError, match="mode"):
            outage_averages(desk_cfg, stock_net, desk_budget, target,
                            mode="exact")


def _with_and_without_skip(monkeypatch, run):
    """``run()`` with the shipped Marcum Q cut-off and with none, and the
    number of Q1 values each evaluated."""
    evals = _count_marcum_values(monkeypatch)
    skipping = run()
    skipping_evals = sum(evals)
    evals.clear()
    monkeypatch.setattr("fluidcell.channel._NEGLIGIBLE_Q1_GAP", math.inf)
    full = run()
    return skipping, full, skipping_evals, sum(evals)


@pytest.mark.parametrize("density", [5e-5, 1e-3])
@pytest.mark.parametrize("array", ["stock", "desk"])
class TestNegligibleMarcumSkip:
    """Skipping Q1 where 1 - Q1 rounds to exactly 1.0 moves no bit."""

    def _inputs(self, request, array, density):
        cfg = request.getfixturevalue(f"{array}_cfg")
        budget = request.getfixturevalue(f"{array}_budget")
        net = NetworkConfig(bs_density=density)
        return cfg, net, budget, sinr_threshold(1.0, budget)

    def test_joint_cdf_batch_unchanged(
        self, request, monkeypatch, array, density
    ):
        cfg, net, budget, target = self._inputs(request, array, density)
        rng = np.random.default_rng(8)
        rhos = rng.uniform(5.0, 300.0, 40)
        gammas = mean_interference(rhos, net) * rng.exponential(1.0, 40)
        gammas[::3] = 0.0
        thetas = outage_thresholds(rhos, gammas, cfg, net, budget, target)
        profile = correlation_profile(cfg, net, budget, rhos)
        skipping, full, fewer, every = _with_and_without_skip(
            monkeypatch, lambda: joint_magnitude_cdf(np.sqrt(thetas), profile)
        )
        assert fewer < every
        assert skipping.tolist() == full.tolist()

    @pytest.mark.parametrize("mode", ["common-gamma", "per-port-gamma"])
    def test_outage_unchanged(
        self, request, monkeypatch, array, density, mode
    ):
        cfg, net, budget, target = self._inputs(request, array, density)
        skipping, full, fewer, every = _with_and_without_skip(
            monkeypatch,
            lambda: outage_probability(cfg, net, budget, target, mode=mode),
        )
        assert fewer < every
        assert skipping == full


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

    def test_one_bracket_call_per_round(
        self, monkeypatch, desk_cfg, stock_net, desk_budget
    ):
        # each interference round passes all its (rho, gamma) pairs to
        # the bracket at once; _gamma_quantile runs once per round
        counts = {"bracket": 0, "pairs": 0, "rounds": 0}
        bracket = outage.conditional_outage_bounds
        quantile = outage._gamma_quantile

        def counted_bracket(rho, *args):
            counts["bracket"] += 1
            counts["pairs"] += np.size(rho)
            return bracket(rho, *args)

        def counted_quantile(*args):
            counts["rounds"] += 1
            return quantile(*args)

        monkeypatch.setattr(outage, "conditional_outage_bounds",
                            counted_bracket)
        monkeypatch.setattr(outage, "_gamma_quantile", counted_quantile)
        target = sinr_threshold(1.0, desk_budget)
        averaged_outage_bounds(0.4, desk_cfg, stock_net, desk_budget, target)
        assert counts["bracket"] == counts["rounds"]
        assert counts["pairs"] > 10 * counts["rounds"]


def _traced_peak(compute):
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAnalyticBytes:
    @staticmethod
    def _inputs(ports, skipped, density):
        cfg = FaArrayConfig(num_fas=1, ports_per_fa=ports,
                            skipped_ports=skipped)
        net = NetworkConfig(bs_density=density)
        budget = build_frame_budget(cfg, FluidParams(), 1e8, 0.05, 0.16)
        return cfg, net, budget, sinr_threshold(1.0, budget)

    @pytest.mark.parametrize("ports, skipped", [(15, 1), (32, 0)])
    def test_bounds_the_traced_peak_of_a_full_call(self, ports, skipped):
        # the largest conditional-outage call a round makes
        cfg, net, budget, target = self._inputs(ports, skipped, 5e-3)
        rng = np.random.default_rng(4)
        rhos = rng.uniform(1.0, 20.0, _PAIRS_PER_CALL)
        gammas = rng.exponential(1e-4, _PAIRS_PER_CALL)
        peak = _traced_peak(lambda: conditional_outage(
            rhos, gammas, cfg, net, budget, target))
        assert peak <= outage_bytes(cfg) <= 2 * peak

    @pytest.mark.parametrize("mode", ["common-gamma", "per-port-gamma"])
    def test_bounds_the_traced_peak_of_an_outage(self, mode):
        cfg, net, budget, target = self._inputs(15, 1, 1e-3)
        peak = _traced_peak(lambda: outage_probability(
            cfg, net, budget, target, mode=mode))
        assert peak <= outage_bytes(cfg)

    def test_grows_with_trained_ports_only(self):
        def size(ports, skipped):
            return outage_bytes(FaArrayConfig(
                ports_per_fa=ports, skipped_ports=skipped))

        assert size(15, 1) == size(8, 0)
        # six float64 arrays over the largest call's pairs, per port
        assert size(16, 0) - size(15, 0) == _PAIRS_PER_CALL * 6 * 8
        assert size(30, 0) - size(15, 0) == 15 * (size(16, 0) - size(15, 0))
        assert size(10**9, 1) > 10**13
