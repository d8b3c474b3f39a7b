"""What the simulator leaves for CPython's cyclic collector: nothing to
find, and little to walk past.

A collector pass pays per young *survivor*, so what a queued unit of work
costs is the number of GC-tracked containers it keeps alive; and a cycle
is memory only the collector gives back.  Both are measured by
``tools/gc_ledger.py`` (which prints them per workload); this file pins
them.  The counts repeat exactly: they depend on no clock.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from perf.workloads import BY_NAME

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from gc_ledger import repro_garbage, unit_counts  # noqa: E402

SCALE = 0.1
SEED = 13


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_run_leaves_no_cycle_of_ours(name):
    """Built and run with the collector off, a benchmark workload leaves
    no unreachable ``repro`` instance, function or cell content behind."""
    ours = repro_garbage(BY_NAME[name], SEED, SCALE)
    assert not ours, sorted({type(obj).__name__ for obj in ours})


def test_containers_alive_per_queued_unit():
    """One record, the bound method that is its next stage and the queue
    entry — not a closure per stage (the closure chains held 14, 13, 28)."""
    counts = unit_counts()
    assert counts["FlashArray.read"] <= 4, counts
    assert counts["Ftl.read_pages([lpn])"] <= 6, counts
    assert counts["gc page move"] <= 6, counts
