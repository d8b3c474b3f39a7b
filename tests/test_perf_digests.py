"""Tier-1 bit-identity pin for the benchmark workloads.

``tests/golden/perf_digests.json`` holds, for every ``perf`` workload at
``scale=0.1`` on seeds 13 and 7, the ``sim_digest`` (sha256 over the
sorted latencies and ``stats.summary()``), the completed count and the
simulator's event count.  The rule: **digests replay, event counts may
be refreshed by a PR that names the fused hops** — a change meant only
to make the simulator faster learns here, not in the benchmark run, that
it moved a simulated number, and one that dispatches fewer events for
the same numbers re-records ``sim_events`` alone
(``generate_perf_digests --events-only``, which refuses if a digest
moved).  The file names the commit the digests come from and the one the
counts were last refreshed on top of.
"""

from __future__ import annotations

import json

import pytest

from perf.workloads import BY_NAME

from .golden.generate_perf_digests import GOLDEN_PATH, SEEDS, record

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_workload_on_both_seeds():
    assert GOLDEN["src_unchanged_since_commit"] is True
    assert set(GOLDEN["workloads"]) == {
        f"{name}/seed{seed}" for name in BY_NAME for seed in SEEDS
    }


@pytest.mark.parametrize("key", sorted(GOLDEN["workloads"]))
def test_workload_replays_its_recorded_digest(key):
    name, seed = key.split("/seed")
    assert record(BY_NAME[name], int(seed)) == GOLDEN["workloads"][key]
