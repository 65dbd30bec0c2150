"""Tests for the trial simulator and its deterministic chunked streams."""

import math
import tracemalloc

import numpy as np
import pytest

from fluidcell.channel import error_variance_at
from fluidcell.field import NetworkConfig
from fluidcell.geometry import link_distance
from fluidcell.mc import (
    WORKERS_ENV,
    TrialPlan,
    estimate_lmmse_mse,
    estimate_outage,
    worker_count,
)
from fluidcell.outage import sinr_threshold


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


class TestWorkerCount:
    def test_argument_then_environment_then_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() == 1
        assert worker_count(default=6) == 6
        monkeypatch.setenv(WORKERS_ENV, " 3 ")
        assert worker_count(default=6) == 3
        assert worker_count(2) == 2
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert worker_count() == 1

    def test_non_integer_environment_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=f"{WORKERS_ENV}.*'abc'"):
            worker_count()


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

    def test_env_var_worker_pool(
        self, desk_cfg, stock_net, desk_budget, monkeypatch
    ):
        target = sinr_threshold(1.0, desk_budget)
        plan = TrialPlan(num_trials=2048, seed=11, chunk_size=512)
        direct = estimate_outage(
            plan, desk_cfg, stock_net, desk_budget, target, workers=1
        )
        monkeypatch.setenv(WORKERS_ENV, "3")
        pooled = estimate_outage(
            plan, desk_cfg, stock_net, desk_budget, target
        )
        assert pooled == direct

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
