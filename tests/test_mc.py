"""Tests for the trial simulator and its deterministic chunked streams."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import fluidcell.mc
from fluidcell.channel import autocorrelation, error_variance_at
from fluidcell.field import (
    NetworkConfig,
    campbell_variance,
    mean_interference,
    sample_serving_distance,
)
from fluidcell.geometry import (
    FaArrayConfig,
    FluidParams,
    build_frame_budget,
    link_distance,
    link_distances,
    trained_port_indices,
)
from fluidcell.mc import (
    TrialPlan,
    chunk_bytes,
    estimate_lmmse_mse,
    estimate_outage,
)
from fluidcell.outage import sinr_threshold
from oracles import simulate_chunk_from_channels


# =====================================================================
# plan validation
# =====================================================================


class TestTrialPlan:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TrialPlan(num_trials=0)
        with pytest.raises(ValueError):
            TrialPlan(num_trials=10, chunk_size=0)
        with pytest.raises(ValueError, match="seed"):
            TrialPlan(num_trials=10, seed=-1)

    def test_defaults(self):
        plan = TrialPlan(num_trials=10)
        assert plan.seed == 0
        assert plan.chunk_size == 1024
        assert not plan.faithful_pilots


class TestChunkBytes:
    def test_counts_trials_of_one_chunk_only(self, desk_cfg):
        def size(num_trials, chunk_size):
            return chunk_bytes(TrialPlan(num_trials=num_trials,
                                         chunk_size=chunk_size), desk_cfg)

        one_chunk = size(256, 2048)
        assert one_chunk == size(10**9, 256)
        # affine in the chunk's trials: a fixed share plus one per trial
        per_trial = size(10**9, 512) - one_chunk
        assert per_trial > 0
        assert size(10**9, 768) - size(10**9, 512) == per_trial
        fixed = one_chunk - per_trial
        assert 0 < fixed < one_chunk

    def test_grows_with_antennas_times_trained_ports(self):
        plan = TrialPlan(num_trials=1000, chunk_size=1000)

        def size(num_fas, ports, skipped):
            return chunk_bytes(plan, FaArrayConfig(
                num_fas=num_fas, ports_per_fa=ports, skipped_ports=skipped))

        # 15 ports with one skipped train 8, as do 8 ports with none
        assert size(4, 15, 1) == size(4, 8, 0)
        per_port = size(4, 16, 0) - size(4, 15, 0)
        assert per_port > 0
        assert size(4, 30, 0) - size(4, 15, 0) == 15 * per_port
        per_fa = size(5, 8, 0) - size(4, 8, 0)
        assert per_fa > 0
        assert size(8, 8, 0) - size(4, 8, 0) == 4 * per_fa
        # a trained port costs more on more antennas
        assert size(8, 16, 0) - size(8, 15, 0) > per_port
        # an absurd port count is estimated, not built: its estimate
        # blocks alone are far above any memory budget
        blocks = 1000 * 4 * 5 * 10**8 * fluidcell.mc._BYTES_PER_ANTENNA_PORT
        assert blocks > 10**13
        assert size(4, 10**9, 1) >= blocks

    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("num_fas, ports, skipped, trials", [
        (1, 2, 1, 2048),
        (2, 5, 1, 512),
        (4, 15, 1, 2048),
        (4, 30, 0, 256),
        (2, 5, 1, 8192),
        (1, 30, 0, 64),
        (8, 30, 0, 2048),
    ])
    def test_bounds_the_traced_peak_of_a_chunk(
        self, stock_net, num_fas, ports, skipped, trials, faithful
    ):
        # a stock-shaped frame budget: pilot length and threshold do not
        # change what the chunk allocates
        cfg = FaArrayConfig(num_fas=num_fas, ports_per_fa=ports,
                            skipped_ports=skipped)
        budget = build_frame_budget(FaArrayConfig(), FluidParams(),
                                    1e8, 0.05, 0.16)
        plan = TrialPlan(num_trials=trials, chunk_size=trials, seed=5,
                         faithful_pilots=faithful)
        tracemalloc.start()
        try:
            estimate_outage(plan, cfg, stock_net, budget,
                            sinr_threshold(1.0, budget), workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = chunk_bytes(plan, cfg)
        assert peak <= estimate <= 2 * peak


# =====================================================================
# aggregate estimates
# =====================================================================


class TestEstimateOutage:
    def test_worker_count_never_changes_the_answer(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        plan = TrialPlan(num_trials=4096, seed=11, chunk_size=512)
        results = {
            w: estimate_outage(
                plan, desk_cfg, stock_net, desk_budget, target, workers=w,
                stream_key=(5,),
            )
            for w in (1, 2, 4)
        }
        assert results[1] == results[2] == results[4]

    def test_reads_no_worker_environment_variable(
        self, desk_cfg, stock_net, desk_budget, monkeypatch
    ):
        # the pool size is the argument alone; FLUIDCELL_WORKERS belongs
        # to the command line, which runs grid points at once
        target = sinr_threshold(1.0, desk_budget)
        plan = TrialPlan(num_trials=1024, seed=11, chunk_size=512)
        direct = estimate_outage(plan, desk_cfg, stock_net, desk_budget,
                                 target)
        monkeypatch.setenv("FLUIDCELL_WORKERS", "not a number")
        assert estimate_outage(plan, desk_cfg, stock_net, desk_budget,
                               target) == direct

    def test_seed_and_stream_key_select_the_stream(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        base = TrialPlan(num_trials=2048, seed=11, chunk_size=1024)
        p0 = estimate_outage(base, desk_cfg, stock_net, desk_budget, target)
        again = estimate_outage(base, desk_cfg, stock_net, desk_budget, target)
        assert p0 == again
        other_seed = estimate_outage(
            TrialPlan(num_trials=2048, seed=12, chunk_size=1024),
            desk_cfg, stock_net, desk_budget, target,
        )
        other_key = estimate_outage(
            base, desk_cfg, stock_net, desk_budget, target, stream_key=(9,)
        )
        assert other_seed != p0
        assert other_key != p0

    def test_standard_error_is_binomial(
        self, desk_cfg, stock_net, desk_budget
    ):
        target = sinr_threshold(1.0, desk_budget)
        plan = TrialPlan(num_trials=3000, seed=2)
        p, se = estimate_outage(
            plan, desk_cfg, stock_net, desk_budget, target
        )
        np.testing.assert_allclose(
            se, math.sqrt(p * (1.0 - p) / plan.num_trials), rtol=1e-12
        )

    def test_more_power_means_less_outage(self, desk_cfg, desk_budget):
        target = sinr_threshold(1.0, desk_budget)
        plan = TrialPlan(num_trials=6000, seed=4)
        weak, weak_se = estimate_outage(
            plan, desk_cfg, NetworkConfig(tx_power=1.0), desk_budget, target
        )
        strong, strong_se = estimate_outage(
            plan, desk_cfg, NetworkConfig(tx_power=100.0), desk_budget, target
        )
        assert strong < weak - 5.0 * (weak_se + strong_se)

    def test_fast_and_faithful_pilots_agree(
        self, desk_cfg, stock_net, desk_budget
    ):
        # same physics, different estimation pipelines: the orthogonal
        # split must land within Monte Carlo noise of explicit pilots
        target = sinr_threshold(1.0, desk_budget)
        fast, fast_se = estimate_outage(
            TrialPlan(num_trials=10_000, seed=5),
            desk_cfg, stock_net, desk_budget, target,
        )
        faithful, faithful_se = estimate_outage(
            TrialPlan(num_trials=10_000, seed=6, faithful_pilots=True),
            desk_cfg, stock_net, desk_budget, target,
        )
        assert abs(fast - faithful) < 5.0 * math.hypot(fast_se, faithful_se)

    @pytest.mark.parametrize("exponent", [3.0, 2.5])
    def test_low_path_loss_exponent_runs_in_bounded_memory(
        self, stock_cfg, stock_budget, stock_target, exponent
    ):
        # truncating the field at 1e-4 of the mean would need ~2e11
        # points per chunk at a = 3; the exact near field does not grow
        # with the exponent
        net = NetworkConfig(path_loss_exponent=exponent)
        plan = TrialPlan(num_trials=2048, seed=3, chunk_size=2048)
        tracemalloc.start()
        try:
            p, _ = estimate_outage(
                plan, stock_cfg, net, stock_budget, stock_target, workers=1
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 0.0 <= p <= 1.0

    def test_worker_pool_holds_no_record_per_chunk(
        self, desk_cfg, stock_net, desk_budget, monkeypatch
    ):
        # a pool holding one future per chunk would keep about 1.6 KB
        # per chunk (4.9 MB here); each stripe keeps one running total
        seen = []

        def one_outage_per_trial(rng, n, *rest):
            seen.append(n)
            return n

        monkeypatch.setattr(fluidcell.mc, "_simulate_chunk",
                            one_outage_per_trial)
        plan = TrialPlan(num_trials=3000, chunk_size=1)
        target = sinr_threshold(1.0, desk_budget)
        tracemalloc.start()
        try:
            p, se = estimate_outage(plan, desk_cfg, stock_net, desk_budget,
                                    target, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (p, se) == (1.0, 0.0)
        assert len(seen) == 3000
        assert peak < 2**20


# =====================================================================
# port selection and the SINR count
# =====================================================================


class TestCountOutages:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_a_loop_over_trials_and_antennas(self, dtype):
        # powers on a coarse grid tie exactly, and tied ports differ in
        # distance and error, so the tie rule moves the count
        rng = np.random.default_rng(8)
        n, m, j = 400, 3, 5
        powers = (rng.integers(1, 5, (j, m, n)) / 4.0).astype(dtype)
        r_ports = rng.uniform(20.0, 80.0, (j, n))
        err = rng.uniform(0.0, 0.5, (j, n))
        net = NetworkConfig()
        a = net.path_loss_exponent

        def best_sinr(pick):
            out = np.empty(n)
            for t in range(n):
                candidates = []
                for k in range(m):
                    q = pick(powers[:, k, t])
                    candidates.append(float(powers[q, k, t]) / (
                        r_ports[q, t]**a / net.transmit_snr + err[q, t]))
                out[t] = max(candidates)
            return out

        lowest = best_sinr(lambda row: next(
            q for q in range(j) if row[q] == row.max()))
        highest = best_sinr(lambda row: max(
            q for q in range(j) if row[q] == row.max()))
        # a threshold midway between two best SINRs, clear of rounding
        levels = np.unique(lowest)
        threshold = 0.5 * (levels[n // 4] + levels[n // 4 + 1])
        expected = int((lowest < threshold).sum())
        assert expected != int((highest < threshold).sum())

        count = fluidcell.mc._count_outages(
            powers, r_ports, err, np.zeros((m, n)), net,
            SimpleNamespace(threshold=threshold),
        )
        assert count == expected


class _EmptyNearField:
    """A Generator whose Poisson draws, the near-field counts, are 0."""

    def __init__(self, rng):
        self._rng = rng

    def poisson(self, lam):
        return np.zeros(np.shape(lam), dtype=np.int64)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestEmptyNearField:
    @pytest.mark.parametrize("faithful", [False, True])
    def test_a_chunk_without_near_field_points_counts(
        self, desk_cfg, stock_net, desk_budget, faithful
    ):
        # one trial in sixteen has no point within NEAR_FIELD_RATIO
        # serving distances, so a one-trial chunk often has none at all
        plan = TrialPlan(num_trials=4, faithful_pilots=faithful)
        count = fluidcell.mc._simulate_chunk(
            _EmptyNearField(np.random.default_rng(2)), plan.num_trials,
            desk_cfg, stock_net, desk_budget,
            sinr_threshold(1.0, desk_budget), plan,
        )
        assert 0 <= count <= plan.num_trials


# =====================================================================
# link distances
# =====================================================================


class TestSampleField:
    def test_link_distances_are_the_geometry_ones(self, stock_cfg, stock_net):
        # the analytic engine anchors its ports at these distances; an
        # own sqrt(rho^2 + d^2) differs from hypot in the last bit on
        # about one entry in seven at the stock array
        rng = np.random.default_rng(5)
        rho = sample_serving_distance(rng, stock_net.bs_density, size=2048)
        r_ports, _ = fluidcell.mc._sample_field(rng, rho, stock_cfg,
                                                stock_net)
        expected = link_distances(trained_port_indices(stock_cfg), rho,
                                  stock_cfg)
        assert r_ports.shape == (8, 2048)
        assert r_ports.flags.c_contiguous
        assert np.array_equal(r_ports, expected.T)


# =====================================================================
# the chunk's draw order
# =====================================================================


class TestDrawOrder:
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_faded_sums_are_successive_columns(
        self, desk_cfg, stock_net, count
    ):
        # one call for k sums reads the stream as k calls for one each,
        # the block's rows in the order the calls return them
        def field(seed):
            rng = np.random.default_rng(seed)
            rho = sample_serving_distance(rng, stock_net.bs_density,
                                          size=300)
            _, faded_sums = fluidcell.mc._sample_field(rng, rho, desk_cfg,
                                                       stock_net)
            return rng, faded_sums

        rng, faded_sums = field(13)
        block = faded_sums(count)
        rng_rows, faded_sum_rows = field(13)
        rows = np.vstack([faded_sum_rows(1) for _ in range(count)])
        assert block.shape == (count, 300)
        assert np.array_equal(block, rows)
        assert rng.random() == rng_rows.random()

    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("array", ["stock", "desk"])
    def test_chunk_composes_its_stages_in_order(
        self, stock_cfg, stock_budget, desk_cfg, desk_budget, stock_net,
        array, faithful
    ):
        # serving distances, field, estimates, then the data-phase sums
        cfg, budget = {
            "stock": (stock_cfg, stock_budget),
            "desk": (desk_cfg, desk_budget),
        }[array]
        n = 1024
        plan = TrialPlan(num_trials=n, faithful_pilots=faithful)
        target = sinr_threshold(1.0, budget)

        rng = np.random.default_rng(17)
        rho = sample_serving_distance(rng, stock_net.bs_density, size=n)
        r_ports, faded_sums = fluidcell.mc._sample_field(rng, rho, cfg,
                                                         stock_net)
        err = error_variance_at(r_ports, budget.pilot_length, stock_net)
        powers = fluidcell.mc._estimate_powers(
            rng, r_ports, err, faded_sums, cfg, stock_net, budget, plan)
        data_inter = faded_sums(cfg.num_fas)
        by_hand = fluidcell.mc._count_outages(
            powers, r_ports, err, data_inter, stock_net, target)

        chunk_rng = np.random.default_rng(17)
        count = fluidcell.mc._simulate_chunk(
            chunk_rng, n, cfg, stock_net, budget, target, plan)
        assert 0 < by_hand < n
        assert count == by_hand
        assert chunk_rng.random() == rng.random()


# =====================================================================
# far-field law
# =====================================================================


class _GammaRecorder:
    """A Generator whose ``gamma(shape, scale)`` calls are recorded."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def gamma(self, shape, scale):
        self.calls.append((shape, scale))
        return self._rng.gamma(shape, scale)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestFarFieldLaw:
    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("exponent", [4.0, 3.0])
    def test_gamma_draws_carry_half_the_campbell_moments(
        self, desk_cfg, desk_budget, exponent, faithful
    ):
        # the far field beyond NEAR_FIELD_RATIO serving distances enters
        # as a shared plus a fresh Gamma draw per faded sum, each with
        # half the Campbell mean and variance of that annulus
        net = NetworkConfig(path_loss_exponent=exponent)
        plan = TrialPlan(num_trials=64, faithful_pilots=faithful)
        rng = _GammaRecorder(np.random.default_rng(3))
        fluidcell.mc._simulate_chunk(
            rng, plan.num_trials, desk_cfg, net, desk_budget,
            sinr_threshold(1.0, desk_budget), plan,
        )

        # the chunk draws its serving distances first from its stream
        rho = sample_serving_distance(np.random.default_rng(3),
                                      net.bs_density, size=plan.num_trials)
        radius = fluidcell.mc.NEAR_FIELD_RATIO * rho
        mean = mean_interference(radius, net)
        variance = campbell_variance(radius ** (2.0 - 2.0 * exponent), net)
        # one shared draw, then one per faded sum: a data-phase sum per
        # antenna, and with explicit pilots one per antenna and port
        sums = desk_cfg.num_fas
        if faithful:
            sums += desk_cfg.num_fas * len(trained_port_indices(desk_cfg))
        assert len(rng.calls) == 1 + sums
        for shape, scale in rng.calls:
            np.testing.assert_allclose(2.0 * shape * scale, mean,
                                       rtol=1e-12)
            np.testing.assert_allclose(2.0 * shape * scale**2, variance,
                                       rtol=1e-12)


# =====================================================================
# trained-port estimates drawn from their joint law
# =====================================================================


class _DrawRecorder:
    """A Generator that records the name, dtype and size of each of its
    continuous draws, in stream order."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if name not in ("normal", "standard_normal", "standard_exponential",
                        "random"):
            return method

        def draw(*args, **kwargs):
            out = np.asarray(method(*args, **kwargs))
            self.draws.append((name, out.dtype, out.size))
            return out

        return draw


class TestPortEstimateLaw:
    @pytest.mark.parametrize("per_antenna_noise", [False, True])
    def test_covariance_over_port_pairs_matches_the_closed_form(
        self, per_antenna_noise
    ):
        # P_q = |c_q e + s_q w_q|^2 over unit complex normals e and w_q is
        # exponential, so Var P_q = (c_q^2 + s_q^2)^2, and two ports of an
        # antenna share only e: Cov(P_q, P_p) = |E[est_q conj(est_p)]|^2 =
        # c_q^2 c_p^2; antennas are independent. Explicit pilots give
        # each antenna its own noise amplitudes
        n, m = 200_000, 2
        c = np.array([1.0, 0.6, -0.3])
        s = np.array([[0.5, 0.9], [0.8, 0.3], [1.1, 0.7]])
        if not per_antenna_noise:
            s = s[:, :1]
        j = len(c)
        powers = fluidcell.mc._port_powers(
            np.random.default_rng(21), m,
            np.repeat(c[:, None, None], n, axis=2).astype(np.float32),
            np.repeat(s[:, :, None], n, axis=2).astype(np.float32),
        )
        assert powers.shape == (j, m, n)
        assert powers.dtype == np.float32

        s = np.broadcast_to(s, (j, m))
        mean = c[:, None]**2 + s**2  # (j, m)
        centred = powers - mean[:, :, None]
        for (q, k), (p, l) in itertools.product(np.ndindex(j, m), repeat=2):
            if (q, k) == (p, l):
                expected = mean[q, k]**2
            elif k == l:
                expected = c[q]**2 * c[p]**2
            else:
                expected = 0.0
            sample = centred[q, k] * centred[p, l]
            se = sample.std() / math.sqrt(n)
            assert abs(sample.mean() - expected) < 4.0 * se, (q, k, p, l)
        for q, k in np.ndindex(j, m):
            se = math.sqrt(mean[q, k]**2 / n)
            assert abs(powers[q, k].mean() - mean[q, k]) < 4.0 * se

    @pytest.mark.parametrize("faithful", [False, True])
    def test_estimate_powers_match_the_pilot_model_at_a_fixed_distance(
        self, desk_cfg, desk_budget, faithful
    ):
        # at a fixed serving distance the estimate is gain * (channel)
        # plus independent noise, so E P_q = gain_q^2 + noise_q; with the
        # orthogonal split two ports of an antenna also have Cov(P_p, P_q)
        # = (gain_p gain_q mu_p mu_q)^2. A weak link puts the error
        # variance near 0.5, so the noise is a large share of every power
        net = NetworkConfig(tx_power=1e-3)
        n, rho = 20_000, 60.0
        plan = TrialPlan(num_trials=n, faithful_pilots=faithful)
        rng = np.random.default_rng(21)
        r_ports, faded_sums = fluidcell.mc._sample_field(
            rng, np.full(n, rho), desk_cfg, net)
        powers = fluidcell.mc._estimate_powers(
            rng, r_ports, error_variance_at(r_ports, desk_budget.pilot_length,
                                            net),
            faded_sums, desk_cfg, net, desk_budget, plan,
        ).astype(np.float64)  # (j, m, n)

        ports = trained_port_indices(desk_cfg)
        mu = autocorrelation(ports, desk_cfg)
        mu[0] = 1.0
        r = link_distances(ports, rho, desk_cfg)
        err = error_variance_at(r, desk_budget.pilot_length, net)
        if faithful:
            amp = np.sqrt(desk_budget.pilot_length * net.tx_power
                          / r**net.path_loss_exponent)
            coeff = (1.0 - err) / amp
            gain = coeff * amp
            # the pilot interference averages to the Campbell mean past rho
            noise = coeff**2 * (
                net.noise_floor + net.tx_power * mean_interference(rho, net)
            )
        else:
            gain = 1.0 - err
            noise = gain * err
        mean = gain**2 + noise

        j = len(ports)
        # one sample per trial: antennas share its interferers
        for q in range(j):
            sample = powers[q].mean(axis=0)
            se = sample.std() / math.sqrt(n)
            assert abs(sample.mean() - mean[q]) < 4.0 * se, q
        if faithful:
            return
        centred = powers - mean[:, None, None]
        for p, q in itertools.combinations(range(j), 2):
            sample = (centred[p] * centred[q]).mean(axis=0)
            se = sample.std() / math.sqrt(n)
            expected = (gain[p] * gain[q] * mu[p] * mu[q])**2
            assert abs(sample.mean() - expected) < 4.0 * se, (p, q)

    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("array", ["stock", "desk"])
    def test_outage_matches_the_channel_first_oracle(
        self, stock_cfg, stock_budget, desk_cfg, desk_budget, array,
        faithful
    ):
        # the same law sampled two ways, each with its own seed: channels
        # then estimation noise (oracle) against the estimates directly
        cfg, budget = {
            "stock": (stock_cfg, stock_budget),
            "desk": (desk_cfg, desk_budget),
        }[array]
        net = NetworkConfig(bs_density=1e-3)
        n = 20_000
        plan = TrialPlan(num_trials=n, faithful_pilots=faithful)
        target = sinr_threshold(1.0, budget)
        shipped = fluidcell.mc._simulate_chunk(
            np.random.default_rng(31), n, cfg, net, budget, target, plan
        ) / n
        oracle = simulate_chunk_from_channels(
            np.random.default_rng(32), n, cfg, net, budget, target, plan
        ) / n
        se = math.sqrt((shipped * (1.0 - shipped)
                        + oracle * (1.0 - oracle)) / n)
        assert abs(shipped - oracle) < 3.0 * se

    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("array", ["stock", "desk"])
    def test_draws_j_plus_one_complex_normals_per_antenna(
        self, stock_cfg, stock_budget, desk_cfg, desk_budget, array,
        faithful
    ):
        # each antenna's j + 1 complex normals are drawn in polar form: the
        # first-port channel's power alone (its phase is turned away), then
        # a power and a phase per trained port. So the estimate stage reads
        # m float32 exponentials per trial, then m * j exponentials and
        # m * j uniforms, and no normal at all
        cfg, budget = {
            "stock": (stock_cfg, stock_budget),
            "desk": (desk_cfg, desk_budget),
        }[array]
        n = 256
        rng = _DrawRecorder(np.random.default_rng(4))
        fluidcell.mc._simulate_chunk(
            rng, n, cfg, NetworkConfig(), budget, sinr_threshold(1.0, budget),
            TrialPlan(num_trials=n, faithful_pilots=faithful),
        )
        m, j = cfg.num_fas, len(trained_port_indices(cfg))
        assert not [d for d in rng.draws if "normal" in d[0]]
        single = [i for i, (name, dtype, _) in enumerate(rng.draws)
                  if name == "standard_exponential" and dtype == np.float32]
        assert len(single) == 2
        first = single[0]
        assert rng.draws[first:first + 3] == [
            ("standard_exponential", np.float32, m * n),
            ("standard_exponential", np.float32, m * j * n),
            ("random", np.float32, m * j * n),
        ]
        # then the data-phase sums: one float64 fades draw per antenna
        assert rng.draws[first + 3:] == [("standard_exponential",
                                          np.float64, rng.draws[-1][2])] * m


# =====================================================================
# pilot-phase estimation error
# =====================================================================


class TestEstimateLmmseMse:
    def test_requires_faithful_pilots(self, desk_cfg, stock_net, desk_budget):
        plan = TrialPlan(num_trials=100)
        with pytest.raises(ValueError, match="faithful_pilots"):
            estimate_lmmse_mse(
                plan, desk_cfg, stock_net, desk_budget, 70.0, 1
            )

    def test_rejects_nonpositive_distance(
        self, desk_cfg, stock_net, desk_budget
    ):
        plan = TrialPlan(num_trials=100, faithful_pilots=True)
        with pytest.raises(ValueError):
            estimate_lmmse_mse(plan, desk_cfg, stock_net, desk_budget, 0.0, 1)

    @pytest.mark.parametrize("bs_density", [1e-15, 5e-5])
    def test_matches_closed_form(self, desk_cfg, desk_budget, bs_density):
        # noise-only field and stock field: the empirical error power
        # converges to the closed-form variance either way
        net = NetworkConfig(bs_density=bs_density)
        plan = TrialPlan(num_trials=20_000, seed=9, faithful_pilots=True)
        rho, port = 60.0, 3
        mse, se = estimate_lmmse_mse(
            plan, desk_cfg, net, desk_budget, rho, port
        )
        r = link_distance(port, rho, desk_cfg)
        expected = float(
            error_variance_at(r, desk_budget.pilot_length, net)
        )
        assert abs(mse - expected) < 4.0 * se

    def test_deterministic_per_stream(self, desk_cfg, stock_net, desk_budget):
        plan = TrialPlan(num_trials=2000, seed=9, faithful_pilots=True)
        first = estimate_lmmse_mse(
            plan, desk_cfg, stock_net, desk_budget, 70.0, 1
        )
        second = estimate_lmmse_mse(
            plan, desk_cfg, stock_net, desk_budget, 70.0, 1
        )
        assert first == second
        other = estimate_lmmse_mse(
            plan, desk_cfg, stock_net, desk_budget, 70.0, 1, stream_key=(1,)
        )
        assert other != first
