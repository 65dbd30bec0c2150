"""Far-field equivalence gate for the Monte Carlo field sampler.

The engine samples interferers exactly within ``mc.NEAR_FIELD_RATIO``
serving distances and draws the rest from Gamma laws matched to its
Campbell mean and variance. Each case here reruns the shipped ratio on
fresh seeds and must land within three combined standard errors of a
reference from the same engine with the exact field radius, stored in
``reference/far_field.json`` and filled in by
``make_far_field_reference.py``.

With one trained port per antenna the whole outage, field included, has
an exact closed form (``oracles.single_port_outage``); the engine must
also land within three standard errors of it.
"""

import json
import math

import pytest

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION
from fluidcell import (
    FaArrayConfig,
    FluidParams,
    NetworkConfig,
    TrialPlan,
    build_frame_budget,
    estimate_outage,
    sinr_threshold,
)
from make_far_field_reference import REFERENCE, case_inputs
from oracles import single_port_outage

TRIALS = 100_000
SEED = 5

CASES = json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("ref", CASES, ids=[c["name"] for c in CASES])
def test_near_field_matches_exact_reference(ref):
    assert ref["seed"] != SEED
    p, se = estimate_outage(
        *case_inputs(ref, TRIALS, SEED, 2048), workers=1,
        stream_key=(ref["stream_key"],),
    )
    limit = 3.0 * math.hypot(se, ref["stderr"])
    assert abs(p - ref["outage"]) <= limit, (
        f"{ref['name']}: near field {p:.5f} +/- {se:.5f} against ratio "
        f"{ref['near_field_ratio']:g} reference {ref['outage']:.5f} "
        f"+/- {ref['stderr']:.5f}"
    )


# one trained port per antenna: (array, density, path-loss exponent, power)
SINGLE_PORT_ARRAYS = {
    "stock": FaArrayConfig(skipped_ports=14),
    "desk": FaArrayConfig(num_fas=2, ports_per_fa=5, skipped_ports=4),
}
SINGLE_PORT_CASES = (
    ("stock", 5e-5, 4.0, 1.0),
    ("stock", 1e-3, 4.0, 1.0),
    ("stock", 1e-3, 4.0, 1e4),  # interference-limited
    ("desk", 5e-5, 4.0, 1.0),
    ("desk", 1e-3, 4.0, 1.0),
    ("desk", 1e-3, 4.0, 1e4),
    ("stock", 1e-3, 3.0, 1.0),
    ("stock", 1e-3, 2.5, 1e4),
)
SINGLE_PORT_SEED = 23  # stream keys 230 + case index


@pytest.mark.parametrize("index, case", list(enumerate(SINGLE_PORT_CASES)),
                         ids=["-".join(map(str, c)) for c in SINGLE_PORT_CASES])
def test_one_trained_port_matches_the_exact_outage(index, case):
    array, density, exponent, power = case
    cfg = SINGLE_PORT_ARRAYS[array]
    net = NetworkConfig(bs_density=density, path_loss_exponent=exponent,
                        tx_power=power)
    budget = build_frame_budget(cfg, FluidParams(), COHERENCE_BANDWIDTH,
                                COHERENCE_TIME, ESTIMATION_FRACTION)
    inputs = (cfg, net, budget, sinr_threshold(1.0, budget))
    exact = single_port_outage(*inputs, nodes=120)
    assert abs(exact - single_port_outage(*inputs, nodes=60)) <= 1e-5
    p, se = estimate_outage(
        TrialPlan(num_trials=TRIALS, seed=SINGLE_PORT_SEED, chunk_size=4096),
        *inputs, workers=1, stream_key=(230 + index,),
    )
    assert abs(p - exact) <= 3.0 * se, (
        f"{case}: Monte Carlo {p:.5f} +/- {se:.5f} against exact {exact:.5f}"
    )
