"""Tests for the transmitter field and interference surrogate."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fluidcell.field import (
    NetworkConfig,
    campbell_variance,
    gamma_interference_model,
    mean_interference,
    sample_serving_distance,
)
from oracles import sample_annulus


# =====================================================================
# network configuration
# =====================================================================


class TestNetworkConfig:
    def test_default_transmit_snr_is_derived(self):
        net = NetworkConfig()
        assert net.transmit_snr == net.channel_variance * net.tx_power / net.noise_power
        assert net.transmit_snr == pytest.approx(1e5, rel=1e-12)

    def test_noise_floor_is_in_units_of_the_channel_variance(self):
        assert NetworkConfig().noise_floor == 1e-5
        net = NetworkConfig(channel_variance=4.0, noise_power=2e-5)
        assert net.noise_floor == 5e-6

    def test_replace_rederives_transmit_snr(self):
        net = replace(NetworkConfig(), tx_power=2.0)
        assert net.transmit_snr == pytest.approx(2e5, rel=1e-12)

    def test_inconsistent_snr_rejected(self):
        # the SNR is derived, so no SNR can disagree with the fields
        with pytest.raises(TypeError, match="transmit_snr"):
            NetworkConfig(tx_power=2.0, transmit_snr=1e5)
        with pytest.raises(TypeError, match="transmit_snr"):
            replace(NetworkConfig(), transmit_snr=1e5)

    def test_path_loss_at_two_diverges(self):
        # the planar field's mean interference is infinite at a <= 2
        with pytest.raises(ValueError, match="diverges"):
            NetworkConfig(path_loss_exponent=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bs_density": 0.0},
            {"bs_density": -1e-5},
            {"tx_power": 0.0},
            {"noise_power": 0.0},
            {"channel_variance": 0.0},
        ],
    )
    def test_nonpositive_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)


# =====================================================================
# serving distance law
# =====================================================================


class TestServingDistance:
    def test_distribution_matches_nearest_point_law(self):
        # CDF of the nearest-transmitter distance: 1 - exp(-pi lam rho^2)
        rng = np.random.default_rng(42)
        lam = 5e-5
        rho = sample_serving_distance(rng, lam, size=100_000)
        res = stats.kstest(rho, lambda x: -np.expm1(-math.pi * lam * x**2))
        assert res.statistic < 0.01

    def test_second_moment(self):
        # rho^2 is exponential with mean 1 / (pi lam)
        rng = np.random.default_rng(42)
        lam = 2e-4
        rho = sample_serving_distance(rng, lam, size=200_000)
        mean_sq = 1.0 / (math.pi * lam)
        se = mean_sq / math.sqrt(rho.size)
        assert abs(np.mean(rho**2) - mean_sq) < 3.0 * se

    def test_median(self):
        rng = np.random.default_rng(42)
        lam = 1e-3
        rho = sample_serving_distance(rng, lam, size=100_000)
        expected = math.sqrt(math.log(2.0) / (math.pi * lam))
        np.testing.assert_allclose(np.median(rho), expected, rtol=2e-2)

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        rho = sample_serving_distance(rng, 5e-5)
        assert np.shape(rho) == ()
        assert rho > 0.0

    def test_rejects_nonpositive_density(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_serving_distance(rng, 0.0)


# =====================================================================
# the exact annulus sampler of the test oracles
# =====================================================================


class TestSampleInterferers:
    def test_support_is_annular(self):
        rng = np.random.default_rng(42)
        outer = 100.0 * 50.0
        r = sample_annulus(rng, 5e-5, 50.0, outer)
        assert r.ndim == 1
        assert np.all(r > 50.0)
        assert np.all(r <= outer)

    def test_count_is_poisson_with_annulus_intensity(self):
        rng = np.random.default_rng(42)
        lam, r0 = 5e-5, 50.0
        outer = 100.0 * r0
        expected = lam * math.pi * (outer**2 - r0**2)
        total = sum(
            sample_annulus(rng, lam, r0, outer).size for _ in range(200)
        )
        se = math.sqrt(200.0 * expected)
        assert abs(total - 200.0 * expected) < 3.0 * se

    def test_campbell_mean_of_path_loss_sum(self):
        # E[sum r^-a] over the annulus: pi lam (r0^-2 - R^-2) at a = 4
        rng = np.random.default_rng(42)
        lam, r0 = 1e-4, 40.0
        outer = 100.0 * r0
        expected = math.pi * lam * (r0**-2 - outer**-2)
        sums = np.array(
            [np.sum(sample_annulus(rng, lam, r0, outer) ** -4.0)
             for _ in range(600)]
        )
        se = np.std(sums) / math.sqrt(sums.size)
        assert abs(np.mean(sums) - expected) < 3.0 * se
        # the truncated mean leaves (r0 / outer)^2 = 1e-4 of the full one
        net = NetworkConfig(bs_density=lam)
        assert abs(expected - mean_interference(r0, net)) <= (
            1e-4 * mean_interference(r0, net) * (1.0 + 1e-9)
        )

    def test_campbell_variance_of_faded_sum(self):
        # Var[sum h r^-a] over the annulus with Rayleigh power fades
        # h ~ Exp(1), whose second moment 2 the formula carries; a = 3 so
        # 2a - 2 is not 1. The sum is in units of sigma^2, so the
        # variance is the same at any channel variance.
        rng = np.random.default_rng(42)
        lam, r0 = 1e-4, 40.0
        outer = 10.0 * r0
        net = NetworkConfig(bs_density=lam, path_loss_exponent=3.0,
                            channel_variance=2.0)
        expected = (campbell_variance(r0**-4.0, net)
                    - campbell_variance(outer**-4.0, net))
        unit = replace(net, channel_variance=1.0)
        assert expected == (campbell_variance(r0**-4.0, unit)
                            - campbell_variance(outer**-4.0, unit))
        sums = np.array([
            np.sum(rng.standard_exponential(r.size) * r**-3.0)
            for r in (sample_annulus(rng, lam, r0, outer)
                      for _ in range(20000))
        ])
        var = np.var(sums, ddof=1)
        fourth = np.mean((sums - sums.mean()) ** 4)
        se = math.sqrt((fourth - var**2) / sums.size)
        assert se < 0.05 * expected
        assert abs(var - expected) < 3.0 * se

    def test_rejects_inverted_annulus(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="exceed"):
            sample_annulus(rng, 5e-5, 50.0, 40.0)

    def test_rejects_nonpositive_exclusion(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_annulus(rng, 5e-5, 0.0, 100.0)


# =====================================================================
# interference moments and the Gamma surrogate
# =====================================================================


class TestMeanInterference:
    def test_closed_form_value(self):
        net = NetworkConfig()
        expected = math.pi * net.bs_density / 100.0**2
        np.testing.assert_allclose(mean_interference(100.0, net), expected, rtol=1e-12)

    def test_density_linearity(self):
        base = mean_interference(80.0, NetworkConfig(bs_density=5e-5))
        doubled = mean_interference(80.0, NetworkConfig(bs_density=1e-4))
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_radius_scaling(self):
        # mean ~ r^(2-a), so doubling r at a = 4 divides by four
        net = NetworkConfig()
        np.testing.assert_allclose(
            mean_interference(200.0, net),
            mean_interference(100.0, net) / 4.0,
            rtol=1e-12,
        )

    def test_fade_variance_scaling(self):
        # interference is in units of sigma^2: the channel variance
        # leaves it unchanged
        base = mean_interference(80.0, NetworkConfig())
        scaled = mean_interference(80.0, NetworkConfig(channel_variance=2.0))
        assert scaled == base

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            mean_interference(0.0, NetworkConfig())
        with pytest.raises(ValueError):
            mean_interference(np.array([50.0, -1.0]), NetworkConfig())

    def test_elementwise_over_arrays(self):
        # numpy's vectorised power may differ from the scalar one in the
        # last bit, hence a few ulp of float64
        net = NetworkConfig(path_loss_exponent=3.5)
        r = np.array([[20.0, 80.0], [150.0, 1e4]])
        grid = mean_interference(r, net)
        assert grid.shape == r.shape
        scalars = [mean_interference(float(x), net) for x in r.ravel()]
        np.testing.assert_allclose(grid.ravel(), scalars, rtol=1e-15)


class TestGammaModel:
    def test_moment_identities(self):
        # in units of sigma^2 the adopted variance is 2 at any channel
        # variance, and the model is the unit-variance one
        net = NetworkConfig(channel_variance=1.7)
        model = gamma_interference_model(90.0, net)
        np.testing.assert_allclose(
            model.shape * model.scale, mean_interference(90.0, net), rtol=1e-12
        )
        np.testing.assert_allclose(
            model.shape * model.scale**2, 2.0, rtol=1e-12
        )
        assert model == gamma_interference_model(90.0, NetworkConfig())

    @pytest.mark.parametrize("exponent", [4.0, 3.5, 2.7])
    def test_array_of_radii_equals_scalar_calls(self, exponent):
        # bit for bit: a lone radius runs through the same array power
        # as a batch, so no entry may round apart from its scalar call
        net = NetworkConfig(bs_density=3e-4, path_loss_exponent=exponent,
                            channel_variance=1.3)
        radii = np.random.default_rng(4).uniform(1.0, 400.0, 500)
        batch = gamma_interference_model(radii, net)
        singles = [gamma_interference_model(r, net) for r in radii.tolist()]
        for field in ("shape", "scale"):
            assert getattr(batch, field).tolist() == [
                getattr(m, field) for m in singles
            ]
        np.testing.assert_allclose(
            batch.shape * batch.scale,
            [mean_interference(r, net) for r in radii.tolist()], rtol=1e-12
        )
        np.testing.assert_allclose(batch.shape * batch.scale**2, 2.0,
                                   rtol=1e-12)
        with pytest.raises(ValueError):
            gamma_interference_model(np.array([50.0, 0.0]), net)

    def test_shape_is_degenerate_at_stock_geometry(self):
        # matching mean and a fade-scale variance leaves the shape tiny:
        # nearly all mass at zero with a thin far tail
        model = gamma_interference_model(70.0, NetworkConfig())
        assert model.shape < 1e-10

    def test_sampler_moments_track_degenerate_model(self):
        # shape << 1: almost every draw is exactly zero yet the mean holds
        rng = np.random.default_rng(42)
        model = gamma_interference_model(70.0, NetworkConfig(bs_density=5e-3))
        draws = rng.gamma(model.shape, model.scale, size=400_000)
        zero_fraction = np.mean(draws == 0.0)
        assert zero_fraction > 0.5
        se = math.sqrt(model.shape * model.scale**2 / draws.size)
        assert abs(np.mean(draws) - model.shape * model.scale) < 4.0 * se
