"""Port layout, droplet motion, and the coherence frame split."""

import math

import numpy as np
import pytest

from fluidcell import (
    FaArrayConfig,
    FluidParams,
    InfeasibleFrameError,
    build_frame_budget,
    fluid_velocity,
    link_distance,
    port_displacement,
    switching_delay,
    trained_port_indices,
)

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION


class TestPortLayout:
    def test_first_port_at_origin(self, stock_cfg):
        assert port_displacement(1, stock_cfg) == 0.0

    def test_last_port_spans_aperture(self):
        cfg = FaArrayConfig(ports_per_fa=20)
        np.testing.assert_allclose(port_displacement(20, cfg),
                                   0.2 * 0.06, rtol=1e-15)

    def test_uniform_spacing(self, stock_cfg):
        gaps = np.diff([port_displacement(i, stock_cfg)
                        for i in range(1, 16)])
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)

    def test_out_of_range_port_rejected(self, stock_cfg):
        with pytest.raises(ValueError):
            port_displacement(0, stock_cfg)
        with pytest.raises(ValueError):
            port_displacement(16, stock_cfg)

    def test_link_distance_quadrature_sum(self, stock_cfg):
        rho = 40.0
        d = port_displacement(7, stock_cfg)
        np.testing.assert_allclose(link_distance(7, rho, stock_cfg),
                                   math.sqrt(rho**2 + d**2), rtol=1e-15)

    def test_link_distance_increases_along_array(self, stock_cfg):
        rho = 25.0
        r = [link_distance(i, rho, stock_cfg) for i in range(1, 16)]
        assert r[0] == rho
        assert all(b >= a for a, b in zip(r, r[1:]))

    def test_link_distance_needs_positive_range(self, stock_cfg):
        with pytest.raises(ValueError):
            link_distance(1, 0.0, stock_cfg)


class TestFluidMotion:
    def test_stock_velocity(self, stock_fluid):
        np.testing.assert_allclose(fluid_velocity(stock_fluid),
                                   0.07 / 0.012 * 0.2 * 10.0, rtol=1e-12)
        np.testing.assert_allclose(fluid_velocity(stock_fluid),
                                   11.6667, rtol=1e-4)

    def test_velocity_linear_in_voltage(self, stock_fluid):
        weak = FluidParams(voltage_delta=0.1)
        np.testing.assert_allclose(fluid_velocity(weak), 0.116667,
                                   rtol=1e-4)

    def test_delay_linear_in_gap_count(self, stock_cfg, stock_fluid):
        single = switching_delay(1, stock_cfg, stock_fluid)
        np.testing.assert_allclose(switching_delay(7, stock_cfg, stock_fluid),
                                   7.0 * single, rtol=1e-12)

    def test_full_traverse_time(self, stock_cfg, stock_fluid):
        # whole 0.012 m aperture at 11.667 m/s
        total = switching_delay(14, stock_cfg, stock_fluid)
        np.testing.assert_allclose(total, 0.012 / fluid_velocity(stock_fluid),
                                   rtol=1e-12)
        np.testing.assert_allclose(total, 1.0286e-3, rtol=1e-4)

    def test_gap_count_bounds(self, stock_cfg, stock_fluid):
        assert switching_delay(0, stock_cfg, stock_fluid) == 0.0
        with pytest.raises(ValueError):
            switching_delay(15, stock_cfg, stock_fluid)
        with pytest.raises(ValueError):
            switching_delay(-1, stock_cfg, stock_fluid)


class TestTrainedPorts:
    def test_stock_stride(self, stock_cfg):
        assert trained_port_indices(stock_cfg) == (1, 3, 5, 7, 9, 11, 13, 15)

    def test_no_skipping_trains_everything(self):
        cfg = FaArrayConfig(ports_per_fa=6, skipped_ports=0)
        assert trained_port_indices(cfg) == (1, 2, 3, 4, 5, 6)

    def test_max_skipping_trains_first_only(self):
        cfg = FaArrayConfig(ports_per_fa=9, skipped_ports=8)
        assert trained_port_indices(cfg) == (1,)

    @pytest.mark.parametrize("n,nu", [(4, 1), (15, 2), (30, 3), (7, 6),
                                      (16, 1), (29, 4)])
    def test_stride_and_count_property(self, n, nu):
        cfg = FaArrayConfig(ports_per_fa=n, skipped_ports=nu)
        ports = trained_port_indices(cfg)
        assert ports[0] == 1
        assert len(ports) == math.ceil(n / (nu + 1))
        assert all(b - a == nu + 1 for a, b in zip(ports, ports[1:]))
        assert ports[-1] <= n

    def test_skip_count_bounded_by_ports(self):
        with pytest.raises(ValueError):
            FaArrayConfig(ports_per_fa=5, skipped_ports=5)


class TestFrameBudget:
    def test_stock_block_split(self, stock_budget):
        assert stock_budget.total_uses == 5_000_000
        assert stock_budget.estimation_uses == 800_000
        assert stock_budget.data_uses == 4_200_000
        assert stock_budget.trained_count == 8

    def test_stock_switching_and_pilot(self, stock_budget, stock_cfg,
                                        stock_fluid):
        hop = switching_delay(2, stock_cfg, stock_fluid)
        expected_switch = 4 * 7 * hop * COHERENCE_BANDWIDTH
        np.testing.assert_allclose(stock_budget.switching_uses,
                                   expected_switch, rtol=1e-12)
        np.testing.assert_allclose(stock_budget.switching_uses,
                                   411_428.57, rtol=1e-6)
        np.testing.assert_allclose(stock_budget.pilot_length,
                                   12_142.857, rtol=1e-6)
        recomputed = (stock_budget.estimation_uses
                      - stock_budget.switching_uses) / (8 * 4)
        np.testing.assert_allclose(stock_budget.pilot_length, recomputed,
                                   rtol=1e-12)

    def test_single_trained_port_skips_motion(self, stock_fluid):
        cfg = FaArrayConfig(ports_per_fa=15, skipped_ports=14)
        budget = build_frame_budget(cfg, stock_fluid, COHERENCE_BANDWIDTH,
                                    COHERENCE_TIME, ESTIMATION_FRACTION)
        assert budget.switching_uses == 0.0
        np.testing.assert_allclose(
            budget.pilot_length,
            budget.estimation_uses / cfg.num_fas, rtol=1e-12,
        )

    def test_pilot_shrinks_with_more_antennas(self, stock_fluid):
        budgets = [
            build_frame_budget(
                FaArrayConfig(num_fas=m), stock_fluid,
                COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION,
            )
            for m in (1, 2, 4)
        ]
        lengths = [b.pilot_length for b in budgets]
        assert lengths[0] > lengths[1] > lengths[2]

    def test_pilot_shrinks_with_more_trained_ports(self, stock_fluid):
        dense = build_frame_budget(
            FaArrayConfig(skipped_ports=0), stock_fluid,
            COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION,
        )
        sparse = build_frame_budget(
            FaArrayConfig(skipped_ports=4), stock_fluid,
            COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION,
        )
        assert dense.pilot_length < sparse.pilot_length

    def test_switching_can_exhaust_the_budget(self, stock_cfg, stock_fluid):
        # stock switching needs ~411k uses; an 8% share offers only 400k
        with pytest.raises(InfeasibleFrameError):
            build_frame_budget(stock_cfg, stock_fluid, COHERENCE_BANDWIDTH,
                               COHERENCE_TIME, 0.08)

    def test_input_validation(self, stock_cfg, stock_fluid):
        with pytest.raises(ValueError):
            build_frame_budget(stock_cfg, stock_fluid, 0.0,
                               COHERENCE_TIME, ESTIMATION_FRACTION)
        with pytest.raises(ValueError):
            build_frame_budget(stock_cfg, stock_fluid, COHERENCE_BANDWIDTH,
                               COHERENCE_TIME, 1.0)
        with pytest.raises(ValueError):
            build_frame_budget(stock_cfg, stock_fluid, COHERENCE_BANDWIDTH,
                               COHERENCE_TIME, 0.0)

    def test_array_config_validation(self):
        with pytest.raises(ValueError):
            FaArrayConfig(ports_per_fa=1)
        with pytest.raises(ValueError):
            FaArrayConfig(num_fas=0)
        with pytest.raises(ValueError):
            FaArrayConfig(skipped_ports=-1)
        with pytest.raises(ValueError):
            FaArrayConfig(aperture_wavelengths=0.0)

    def test_aperture_product(self):
        cfg = FaArrayConfig(aperture_wavelengths=0.5, wavelength=0.1)
        np.testing.assert_allclose(cfg.aperture, 0.05, rtol=1e-15)
