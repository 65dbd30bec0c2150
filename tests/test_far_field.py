"""Far-field equivalence gate for the Monte Carlo field sampler.

The engine samples interferers exactly within ``mc.NEAR_FIELD_RATIO``
serving distances and replaces the rest by its Campbell mean. Each case
here reruns the shipped ratio on fresh seeds and must land within three
combined standard errors of a reference from the same engine with the
exact field radius, stored in ``reference/far_field.json`` and
regenerated by ``make_far_field_reference.py``.
"""

import json
import math

import pytest

from fluidcell import estimate_outage
from make_far_field_reference import REFERENCE, case_inputs

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
