"""The paper figures' runs must not move: ``ModelRunner`` replays its golden.

``runner_golden.json`` was recorded on the runner that drove its own
two-stage pipeline, before it became a client of ``InferenceServer``.
Replaying the same fixed-seed runs must reproduce every latency, the
simulated clock, the event count, the hit rates and the outputs exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ..golden.runner_scenarios import SCENARIOS

GOLDEN = json.loads((Path(__file__).parent.parent / "golden" / "runner_golden.json").read_text())


def test_golden_names_the_clean_commit_it_was_recorded_at():
    assert GOLDEN["src_unchanged_since_commit"] is True
    assert len(GOLDEN["generated_at_commit"]) == 40
    assert sorted(GOLDEN["scenarios"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    assert SCENARIOS[name]() == GOLDEN["scenarios"][name]
