"""Fill in ``tests/reference/far_field.json``, the exact-field outages.

The Monte Carlo engine samples the interferer field exactly within
``mc.NEAR_FIELD_RATIO`` times the serving distance and draws the rest
from Gamma laws matched to its Campbell mean and variance. Each
reference here reruns the same engine with that ratio raised until the
far field carries only ``TAIL_FRACTION`` (1e-4) of the mean
interference, TAIL_FRACTION^(1/(2 - a)) (100 at a = 4). Below a = 4
that radius would be 10^4 serving distances or more, far too many
points to sample, so those cases name a reference ratio of their own.

A case already in the file keeps its entry as it is, so only new cases
run; delete an entry to regenerate it. The first five were made when
the far field entered through its Campbell mean alone, and at their
radii (1e-4 of the mean beyond, 2.5% for ``dense-a3``) they stand for
the exact field. Run from the repository root (about two minutes per
case at ratio 100 on one core, ten for the first five):

    PYTHONPATH=src python tests/make_far_field_reference.py

``tests/test_far_field.py`` compares the shipped ratio against the file.
"""

import json
import time
from pathlib import Path

from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION
from fluidcell import (
    FaArrayConfig,
    FluidParams,
    NetworkConfig,
    TrialPlan,
    build_frame_budget,
    mc,
    sinr_threshold,
)

REFERENCE = Path(__file__).with_name("reference") / "far_field.json"
TRIALS = 100_000
SEED = 20261018  # the equivalence test draws from other seeds
CHUNK = 512      # ~120 MB per chunk at the exact radius
# share of the mean interference the reference leaves to the Campbell term
TAIL_FRACTION = 1e-4

ARRAYS = {
    "stock": FaArrayConfig(),
    "desk": FaArrayConfig(num_fas=2, ports_per_fa=5, skipped_ports=1),
}

CASES = (
    {"name": "stock", "array": "stock", "bs_density": 5e-5},
    {"name": "dense", "array": "stock", "bs_density": 1e-3},
    {"name": "sparse", "array": "stock", "bs_density": 1e-5},
    {"name": "desk-faithful", "array": "desk", "bs_density": 5e-5,
     "faithful_pilots": True},
    # interference-limited, so the far field's share of the mean (25%
    # beyond four serving distances at a = 3) moves the outage visibly
    {"name": "dense-a3", "array": "stock", "bs_density": 1e-3,
     "path_loss_exponent": 3.0, "reference_ratio": 40.0},
    # half the mean lies beyond four serving distances at a = 2.5, and
    # still 10% beyond the reference radius, where the Gamma laws carry it
    {"name": "dense-a2.5", "array": "stock", "bs_density": 1e-3,
     "path_loss_exponent": 2.5, "reference_ratio": 100.0},
)


def case_inputs(case, trials, seed, chunk_size):
    """Plan, array, network, budget and target of one case."""
    cfg = ARRAYS[case["array"]]
    net = NetworkConfig(
        bs_density=case["bs_density"],
        path_loss_exponent=case.get("path_loss_exponent", 4.0),
    )
    budget = build_frame_budget(cfg, FluidParams(), COHERENCE_BANDWIDTH,
                                COHERENCE_TIME, ESTIMATION_FRACTION)
    plan = TrialPlan(num_trials=trials, seed=seed, chunk_size=chunk_size,
                     faithful_pilots=case.get("faithful_pilots", False))
    return plan, cfg, net, budget, sinr_threshold(1.0, budget)


def reference_ratio(case):
    a = case.get("path_loss_exponent", 4.0)
    return case.get("reference_ratio", TAIL_FRACTION ** (1.0 / (2.0 - a)))


def main():
    shipped = mc.NEAR_FIELD_RATIO
    done = {}
    if REFERENCE.exists():
        done = {row["name"]: row
                for row in json.loads(REFERENCE.read_text(encoding="utf-8"))}
    rows = []
    try:
        for key, case in enumerate(CASES):
            if case["name"] in done:
                rows.append(done[case["name"]])
                continue
            ratio = reference_ratio(case)
            mc.NEAR_FIELD_RATIO = ratio
            start = time.perf_counter()
            p, se = mc.estimate_outage(
                *case_inputs(case, TRIALS, SEED, CHUNK), workers=1,
                stream_key=(key,),
            )
            seconds = time.perf_counter() - start
            print(f"{case['name']}: ratio {ratio:g}, outage {p:.5f} "
                  f"+/- {se:.5f} in {seconds:.1f} s", flush=True)
            rows.append({**case, "near_field_ratio": ratio, "trials": TRIALS,
                         "seed": SEED, "stream_key": key, "outage": p,
                         "stderr": se, "seconds": round(seconds, 1)})
    finally:
        mc.NEAR_FIELD_RATIO = shipped
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
