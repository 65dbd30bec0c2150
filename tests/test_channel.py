"""Tests for port correlation, LMMSE error, and the joint magnitude law."""

import inspect
import math

import numpy as np
import pytest
from scipy import integrate

from fluidcell.channel import (
    CorrelationProfile,
    autocorrelation,
    correlation_profile,
    error_variance_at,
    joint_magnitude_cdf,
    joint_magnitude_pdf,
    min_skipped_ports,
    pilot_noise_ratio,
    sample_correlated_channels,
)
from fluidcell.field import NetworkConfig, mean_interference
from fluidcell.geometry import (
    FaArrayConfig,
    FluidParams,
    InfeasibleFrameError,
    build_frame_budget,
    link_distance,
    port_displacement,
    trained_port_indices,
)
from fluidcell.numerics import marcum_q1
from fluidcell.outage import outage_thresholds, sinr_threshold

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION


# =====================================================================
# port autocorrelation
# =====================================================================


class TestAutocorrelation:
    def test_first_port_is_zero_by_convention(self, stock_cfg):
        assert autocorrelation(1, stock_cfg) == 0.0
        assert type(autocorrelation(1, stock_cfg)) is float
        assert type(autocorrelation(2, stock_cfg)) is float

    def test_adjacent_port_small_argument(self):
        # J0(2 pi * 0.2 / 19) from the ascending series
        cfg = FaArrayConfig(ports_per_fa=20)
        np.testing.assert_allclose(
            autocorrelation(2, cfg), 0.9989067, atol=1e-6
        )

    def test_vanishes_at_first_bessel_root(self):
        # aperture tuned so ports 1 and 2 sit a root of J0 apart
        cfg = FaArrayConfig(
            ports_per_fa=2,
            skipped_ports=0,
            aperture_wavelengths=2.404825557695773 / (2.0 * math.pi),
        )
        assert abs(autocorrelation(2, cfg)) < 1e-12

    def test_magnitude_bounded_by_one(self):
        for n in (2, 7, 15, 30):
            cfg = FaArrayConfig(ports_per_fa=n, skipped_ports=0)
            values = [autocorrelation(i, cfg) for i in range(1, n + 1)]
            assert np.all(np.abs(values) <= 1.0)
            # one call over an index array equals the scalar calls
            ports = np.arange(1, n + 1)
            assert autocorrelation(ports, cfg).tolist() == values
            assert autocorrelation(ports[::-1].reshape(-1, 1),
                                   cfg).ravel().tolist() == values[::-1]

    def test_decays_within_first_lobe(self, stock_cfg):
        # stock aperture keeps every separation inside the first lobe
        values = [autocorrelation(i, stock_cfg) for i in range(2, 16)]
        assert np.all(np.diff(values) < 0.0)
        assert np.all(np.asarray(values) > 0.0)
        assert autocorrelation(range(2, 16), stock_cfg).tolist() == values

    def test_rejects_out_of_range_port(self, stock_cfg):
        with pytest.raises(ValueError):
            autocorrelation(0, stock_cfg)
        with pytest.raises(ValueError):
            autocorrelation(16, stock_cfg)
        with pytest.raises(ValueError, match="port index 16 outside 1..15"):
            autocorrelation(np.array([3, 16, 0, 17]), stock_cfg)
        with pytest.raises(ValueError, match="port index 0 outside"):
            autocorrelation(np.array([[3], [0]]), stock_cfg)


# =====================================================================
# estimation error
# =====================================================================


class TestPilotNoiseRatio:
    def test_closed_form_value(self, stock_net):
        # r^a / snr + 2 pi lam r^2 / (a - 2) at r = 100
        expected = 1e8 / 1e5 + math.pi * 5e-5 * 1e4
        np.testing.assert_allclose(
            pilot_noise_ratio(100.0, stock_net), expected, rtol=1e-12
        )

    def test_interference_term_matches_field_mean(self, stock_net):
        # the bracket's second term is the Campbell mean rescaled by r^a
        r = np.array([30.0, 70.0, 150.0])
        bracket = pilot_noise_ratio(r, stock_net)
        direct = r**4 / stock_net.transmit_snr
        campbell = np.array([mean_interference(x, stock_net) for x in r])
        np.testing.assert_allclose(
            bracket - direct,
            r**4 * campbell,
            rtol=1e-12,
        )

    def test_array_shape_preserved(self, stock_net):
        r = np.ones((2, 3)) * 50.0
        assert pilot_noise_ratio(r, stock_net).shape == (2, 3)


class TestErrorVariance:
    def test_closed_form_value(self, stock_net):
        bracket = 1e8 / 1e5 + math.pi * 5e-5 * 1e4
        np.testing.assert_allclose(
            error_variance_at(100.0, 1000.0, stock_net),
            bracket / (bracket + 1000.0),
            rtol=1e-12,
        )

    def test_bounded_by_channel_variance(self, stock_net):
        r = np.geomspace(1.0, 1e4, 50)
        err = error_variance_at(r, 1e4, stock_net)
        assert np.all(err > 0.0)
        assert np.all(err < 1.0)

    def test_monotone_in_distance_and_pilot_length(self, stock_net):
        r = np.linspace(10.0, 500.0, 40)
        err = error_variance_at(r, 1e4, stock_net)
        assert np.all(np.diff(err) > 0.0)
        longer = error_variance_at(r, 1e5, stock_net)
        assert np.all(longer < err)

    def test_vanishes_with_unbounded_pilots(self, stock_net):
        assert error_variance_at(100.0, 1e18, stock_net) < 1e-12

    def test_port_quality_uses_own_link_distance(
        self, stock_cfg, stock_budget, stock_net
    ):
        # the last port sits one aperture off broadside, so its link is
        # longer than the first port's and its estimate worse
        rho = 70.0
        pilot = stock_budget.pilot_length
        first = float(error_variance_at(
            link_distance(1, rho, stock_cfg), pilot, stock_net
        ))
        last = float(error_variance_at(
            link_distance(15, rho, stock_cfg), pilot, stock_net
        ))
        offset = math.hypot(rho, port_displacement(15, stock_cfg))
        np.testing.assert_allclose(
            last,
            float(error_variance_at(offset, pilot, stock_net)),
            rtol=1e-12,
        )
        assert first == float(error_variance_at(rho, pilot, stock_net))
        assert last > first

    def test_rejects_nonpositive_distance(
        self, stock_cfg, stock_budget, stock_net
    ):
        with pytest.raises(ValueError):
            error_variance_at(
                link_distance(1, 0.0, stock_cfg), stock_budget.pilot_length,
                stock_net,
            )


# =====================================================================
# skipped-port design rule
# =====================================================================


class TestMinSkippedPorts:
    def args(self, cfg, net, rho=70.0):
        return (
            rho,
            cfg,
            FluidParams(),
            net,
            COHERENCE_BANDWIDTH,
            COHERENCE_TIME,
            ESTIMATION_FRACTION,
        )

    def test_ceiling_meets_the_target(self, stock_cfg, stock_net):
        # rounding the continuous rule up must land at or below the target
        rng = np.random.default_rng(42)
        params = FluidParams()
        for _ in range(20):
            rho = float(rng.uniform(20.0, 200.0))
            target = float(rng.uniform(0.05, 0.9))
            nu = min_skipped_ports(target, *self.args(stock_cfg, stock_net, rho))
            chosen = min(math.ceil(nu), stock_cfg.ports_per_fa - 1)
            cfg = FaArrayConfig(ports_per_fa=15, skipped_ports=chosen)
            budget = build_frame_budget(
                cfg, params, COHERENCE_BANDWIDTH, COHERENCE_TIME,
                ESTIMATION_FRACTION,
            )
            achieved = float(error_variance_at(
                link_distance(1, rho, cfg), budget.pilot_length, stock_net
            ))
            assert achieved <= target * (1.0 + 1e-9)

    def test_decreasing_and_convex_in_target(self, stock_cfg, stock_net):
        targets = np.linspace(0.1, 0.9, 17)
        nus = np.array(
            [
                min_skipped_ports(t, *self.args(stock_cfg, stock_net))
                for t in targets
            ]
        )
        assert np.all(np.diff(nus) < 0.0)
        assert np.all(np.diff(nus, 2) > 0.0)

    def test_grows_with_distance(self, stock_cfg, stock_net):
        near = min_skipped_ports(0.3, *self.args(stock_cfg, stock_net, rho=30.0))
        far = min_skipped_ports(0.3, *self.args(stock_cfg, stock_net, rho=120.0))
        assert far > near

    def test_infeasible_frame_raises(self, stock_net):
        # eight antennas leave less training share per port than one hop costs
        cfg = FaArrayConfig(num_fas=8, ports_per_fa=15)
        with pytest.raises(InfeasibleFrameError, match="switching"):
            min_skipped_ports(0.3, *self.args(cfg, stock_net))

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_target_outside_open_interval(
        self, target, stock_cfg, stock_net
    ):
        with pytest.raises(ValueError, match="target_variance"):
            min_skipped_ports(target, *self.args(stock_cfg, stock_net))


# =====================================================================
# correlation profile
# =====================================================================


class TestCorrelationProfile:
    def test_alignment_with_trained_ports(
        self, stock_cfg, stock_net, stock_budget
    ):
        rho = 70.0
        profile = correlation_profile(stock_cfg, stock_net, stock_budget, rho)
        ports = trained_port_indices(stock_cfg)
        assert profile.mu.shape == profile.spread_variance.shape == (len(ports),)
        assert profile.mu[0] == 0.0
        for k, p in enumerate(ports):
            np.testing.assert_allclose(
                profile.mu[k], autocorrelation(p, stock_cfg), rtol=1e-12
            )
            err = float(error_variance_at(
                link_distance(p, rho, stock_cfg), stock_budget.pilot_length,
                stock_net,
            ))
            expected = (1.0 - profile.mu[k] ** 2) + err
            np.testing.assert_allclose(
                profile.spread_variance[k], expected, rtol=1e-12
            )

    def test_validation(self):
        good = dict(
            mu=np.array([0.0, 0.5]),
            spread_variance=np.array([1.1, 0.8]),
        )
        CorrelationProfile(**good)
        with pytest.raises(ValueError, match="zero correlation"):
            CorrelationProfile(**{**good, "mu": np.array([0.1, 0.5])})
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            CorrelationProfile(**{**good, "mu": np.array([0.0, 1.2])})
        with pytest.raises(ValueError, match="align"):
            CorrelationProfile(
                **{**good, "spread_variance": np.array([1.1, 0.8, 0.9])}
            )
        with pytest.raises(ValueError, match="positive"):
            CorrelationProfile(
                **{**good, "spread_variance": np.array([1.1, 0.0])}
            )

    def test_spread_rows_of_a_batch(self):
        good = dict(
            mu=np.array([0.0, 0.5]),
            spread_variance=np.array([[1.1, 0.8], [1.2, 0.9]]),
        )
        CorrelationProfile(**good)
        with pytest.raises(ValueError, match="align"):
            CorrelationProfile(
                **{**good, "spread_variance": np.ones((2, 3))}
            )
        with pytest.raises(ValueError, match="align"):
            CorrelationProfile(
                **{**good, "spread_variance": np.ones((2, 2, 2))}
            )

    def test_batch_of_distances_stacks_single_profiles(
        self, stock_cfg, stock_net, stock_budget
    ):
        rhos = np.array([3.0, 70.0, 70.0, 412.5])
        batch = correlation_profile(stock_cfg, stock_net, stock_budget, rhos)
        assert batch.spread_variance.shape == (4, len(batch.mu))
        for k, rho in enumerate(rhos):
            single = correlation_profile(
                stock_cfg, stock_net, stock_budget, float(rho)
            )
            assert np.array_equal(batch.mu, single.mu)
            assert np.array_equal(
                batch.spread_variance[k], single.spread_variance
            )


# =====================================================================
# joint magnitude law
# =====================================================================


def narrow_profile():
    # two trained ports with visible correlation and unequal spreads
    return CorrelationProfile(
        mu=np.array([0.0, 0.6425]),
        spread_variance=np.array([1.05, 0.65]),
    )


class TestJointMagnitudeCdf:
    def test_zero_threshold_gives_zero(self):
        profile = narrow_profile()
        assert joint_magnitude_cdf(np.array([0.0, 1.0]), profile) == 0.0

    def test_single_port_is_rayleigh(self):
        profile = CorrelationProfile(
            mu=np.array([0.0]),
            spread_variance=np.array([1.2]),
        )
        tau = 0.9
        np.testing.assert_allclose(
            joint_magnitude_cdf(np.array([tau]), profile),
            -math.expm1(-(tau**2) / 1.2),
            rtol=1e-12,
        )

    def test_matches_double_quadrature_of_density(self):
        profile = narrow_profile()

        def density(t2, t1):
            return joint_magnitude_pdf(np.array([t1, t2]), profile)

        for taus in ([1.0, 0.8], [0.5, 1.4], [2.0, 2.0]):
            direct, err = integrate.dblquad(
                density, 0.0, taus[0], 0.0, taus[1],
                epsabs=1e-11, epsrel=1e-11,
            )
            np.testing.assert_allclose(
                joint_magnitude_cdf(np.array(taus), profile),
                direct,
                rtol=1e-6,
                atol=max(err, 1e-12),
            )

    def test_matches_generative_model(self):
        # anchor CN(0, s1), others mu * anchor + CN(0, sj): the law the
        # conditional-Rician integral describes exactly
        profile = CorrelationProfile(
            mu=np.array([0.0, 0.64, 0.12]),
            spread_variance=np.array([1.08, 0.62, 1.02]),
        )
        rng = np.random.default_rng(42)
        n = 400_000
        s = profile.spread_variance
        anchor = (
            rng.normal(size=n) + 1j * rng.normal(size=n)
        ) * math.sqrt(s[0] / 2.0)
        mags = [np.abs(anchor)]
        for j in (1, 2):
            w = (
                rng.normal(size=n) + 1j * rng.normal(size=n)
            ) * math.sqrt(s[j] / 2.0)
            mags.append(np.abs(profile.mu[j] * anchor + w))
        for taus in ([1.0, 0.9, 1.1], [0.6, 0.6, 0.6], [1.6, 1.2, 1.8]):
            taus = np.array(taus)
            hits = np.mean(
                (mags[0] < taus[0]) & (mags[1] < taus[1]) & (mags[2] < taus[2])
            )
            value = joint_magnitude_cdf(taus, profile)
            se = math.sqrt(max(value * (1.0 - value), 1e-12) / n)
            assert abs(hits - value) < 4.0 * se

    def test_monotone_and_saturating(self):
        profile = narrow_profile()
        grid = np.linspace(0.2, 4.0, 12)
        values = [joint_magnitude_cdf(np.array([t, t]), profile) for t in grid]
        assert np.all(np.diff(values) > 0.0)
        top = joint_magnitude_cdf(np.array([50.0, 50.0]), profile)
        np.testing.assert_allclose(top, 1.0, atol=1e-6)

    def test_rejects_mismatch_and_negative(self):
        profile = narrow_profile()
        with pytest.raises(ValueError, match="per trained port"):
            joint_magnitude_cdf(np.array([1.0]), profile)
        with pytest.raises(ValueError, match="nonnegative"):
            joint_magnitude_cdf(np.array([1.0, -0.5]), profile)


def _batch_matches_single_calls(taus, spreads, mu):
    batch = CorrelationProfile(mu=mu, spread_variance=spreads)
    got = joint_magnitude_cdf(taus, batch)
    assert got.shape == (len(taus),)
    expected = [
        joint_magnitude_cdf(t, CorrelationProfile(mu=mu, spread_variance=s))
        for t, s in zip(taus, spreads)
    ]
    # bit for bit, not approximately: a row must not see its batch
    assert got.tolist() == expected
    return got


class TestJointMagnitudeCdfBatch:
    def test_rows_equal_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(7)
        mu = np.array([0.0, 0.64, -0.12, 0.4])
        spreads = rng.uniform(0.5, 1.5, size=(40, 4))
        taus = rng.uniform(0.05, 3.0, size=(40, 4))
        taus[5, 2] = 0.0  # a zero threshold anywhere gives exactly 0
        taus[11, 0] = 0.0
        taus[17] = 40.0   # past the truncation radius
        got = _batch_matches_single_calls(taus, spreads, mu)
        assert got[5] == 0.0 and got[11] == 0.0
        assert np.count_nonzero(got) == len(got) - 2

    def test_groups_of_a_large_batch_match_single_calls(self, monkeypatch):
        # three (row, port) pairs per group: one row of four ports each
        monkeypatch.setattr("fluidcell.channel._GROUP_PAIRS", 3)
        rng = np.random.default_rng(11)
        spreads = rng.uniform(0.5, 1.5, size=(7, 4))
        taus = rng.uniform(0.05, 3.0, size=(7, 4))
        _batch_matches_single_calls(
            taus, spreads, np.array([0.0, 0.64, -0.12, 0.4])
        )

    def test_one_port_exact_branch(self):
        # the closed form 1 - e^(-tau^2 / spread), to within the last
        # bits of numpy's array kernels
        tau = 0.4786618688802179
        spreads = np.array([[1.2], [0.7], [1.2]])
        taus = np.array([[0.9], [0.0], [tau]])
        got = _batch_matches_single_calls(taus, spreads, np.array([0.0]))
        assert got[1] == 0.0
        np.testing.assert_allclose(
            got[2], -math.expm1(-(tau**2) / 1.2), rtol=1e-15
        )

    def test_root_and_power_thresholds(
        self, desk_cfg, stock_net, desk_budget
    ):
        # outage passes the thresholds' square roots; the power thresholds
        # themselves, taken as magnitudes, put large limits on the
        # truncated exp(-t) integral
        target = sinr_threshold(1.0, desk_budget)
        rhos = np.array([5.0, 40.0, 70.0, 140.0, 300.0])
        gammas = np.array([0.0, 1e-9, 3e-7, 0.0, 2e-8])
        profile = correlation_profile(desk_cfg, stock_net, desk_budget, rhos)
        thetas = outage_thresholds(
            rhos, gammas, desk_cfg, stock_net, desk_budget, target
        )
        for taus in (np.sqrt(thetas), thetas):
            batch = joint_magnitude_cdf(taus, profile)
            for k, rho in enumerate(rhos):
                single = correlation_profile(
                    desk_cfg, stock_net, desk_budget, float(rho)
                )
                assert batch[k] == joint_magnitude_cdf(taus[k], single)

    def test_one_marcum_call_per_round(self, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append(np.shape(alpha))
            return marcum_q1(alpha, beta)

        monkeypatch.setattr("fluidcell.channel.marcum_q1", counted)
        rng = np.random.default_rng(3)
        spreads = rng.uniform(0.5, 1.5, size=(25, 3))
        taus = rng.uniform(0.05, 3.0, size=(25, 3))
        profile = CorrelationProfile(
            mu=np.array([0.0, 0.64, 0.12]), spread_variance=spreads,
        )
        joint_magnitude_cdf(taus, profile)
        batched = len(calls)
        singles = []
        for t, s in zip(taus, spreads):
            calls.clear()
            joint_magnitude_cdf(t, CorrelationProfile(
                mu=profile.mu, spread_variance=s))
            singles.append(len(calls))
        assert batched == max(singles)


class TestJointMagnitudePdf:
    def test_marginal_of_first_port_is_rayleigh(self):
        profile = narrow_profile()
        s1 = profile.spread_variance[0]
        for t1 in (0.4, 1.0, 1.7):
            marginal, err = integrate.quad(
                lambda t2: joint_magnitude_pdf(np.array([t1, t2]), profile),
                0.0,
                np.inf,
            )
            expected = 2.0 * t1 / s1 * math.exp(-(t1**2) / s1)
            np.testing.assert_allclose(marginal, expected, rtol=1e-8)

    def test_normalizes(self):
        profile = narrow_profile()
        total, _ = integrate.dblquad(
            lambda t2, t1: joint_magnitude_pdf(np.array([t1, t2]), profile),
            0.0, 12.0, 0.0, 12.0,
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-7)

    def test_zero_off_support(self):
        profile = narrow_profile()
        assert joint_magnitude_pdf(np.array([-0.1, 1.0]), profile) == 0.0
        assert joint_magnitude_pdf(np.array([0.0, 1.0]), profile) == 0.0


# =====================================================================
# channel sampling
# =====================================================================


class TestSampleCorrelatedChannels:
    def test_shapes(self, stock_cfg):
        rng = np.random.default_rng(0)
        assert sample_correlated_channels(rng, stock_cfg).shape == (4, 15)
        assert sample_correlated_channels(rng, stock_cfg, size=7).shape == (
            7, 4, 15,
        )

    def test_port_variance_and_correlation(self, stock_cfg):
        rng = np.random.default_rng(42)
        g = sample_correlated_channels(rng, stock_cfg, size=200_000)
        power = np.mean(np.abs(g) ** 2, axis=0)
        np.testing.assert_allclose(power, 1.0, atol=0.02)
        # correlation against the first port matches the Bessel profile
        anchor = g[:, 0, 0]
        for port in (2, 8, 15):
            mu = autocorrelation(port, stock_cfg)
            est = np.mean(np.conj(anchor) * g[:, 0, port - 1]).real
            np.testing.assert_allclose(est, mu, atol=0.01)

    def test_antennas_independent(self, stock_cfg):
        rng = np.random.default_rng(42)
        g = sample_correlated_channels(rng, stock_cfg, size=200_000)
        cross = np.mean(np.conj(g[:, 0, 0]) * g[:, 1, 0])
        assert abs(cross) < 0.01

    def test_anchor_decomposition(self, stock_cfg):
        # g_j - mu_j g_1 is independent spread with variance 1 - mu_j^2
        rng = np.random.default_rng(42)
        g = sample_correlated_channels(rng, stock_cfg, size=200_000)
        mu = autocorrelation(5, stock_cfg)
        resid = g[:, 2, 4] - mu * g[:, 2, 0]
        np.testing.assert_allclose(
            np.mean(np.abs(resid) ** 2), 1.0 - mu**2, atol=0.01
        )
        assert abs(np.mean(np.conj(g[:, 2, 0]) * resid)) < 0.01

    def test_all_ports_is_the_default(self, stock_cfg):
        ports = range(1, stock_cfg.ports_per_fa + 1)
        g = sample_correlated_channels(np.random.default_rng(5), stock_cfg,
                                       size=64)
        h = sample_correlated_channels(np.random.default_rng(5), stock_cfg,
                                       size=64, ports=ports)
        np.testing.assert_array_equal(g, h)

    def test_trained_port_subset(self, stock_cfg):
        ports = trained_port_indices(stock_cfg)
        size = 200_000
        g = sample_correlated_channels(
            np.random.default_rng(42), stock_cfg, size=size, ports=ports
        )
        assert g.shape == (size, stock_cfg.num_fas, len(ports))
        # each column's correlation with the first is within four
        # standard errors of the Bessel profile at its own port index
        anchor = g[:, 0, 0]
        for k, port in enumerate(ports[1:], start=1):
            mu = autocorrelation(port, stock_cfg)
            products = (np.conj(anchor) * g[:, 0, k]).real
            se = products.std() / math.sqrt(size)
            assert abs(products.mean() - mu) <= 4.0 * se, port

    def test_subset_must_start_at_the_first_port(self, stock_cfg):
        with pytest.raises(ValueError):
            sample_correlated_channels(
                np.random.default_rng(0), stock_cfg, ports=(3, 5)
            )

    def test_variance_scaling(self, stock_cfg):
        # draws are in units of sigma^2: unit power, and no channel
        # variance to scale them by
        rng = np.random.default_rng(42)
        g = sample_correlated_channels(rng, stock_cfg, size=50_000)
        np.testing.assert_allclose(
            np.mean(np.abs(g) ** 2), 1.0, rtol=0.02
        )
        assert "channel_variance" not in inspect.signature(
            sample_correlated_channels).parameters
