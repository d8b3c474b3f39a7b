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

from gc_ledger import repro_garbage, request_counts, unit_counts  # noqa: E402

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
    entry — not a closure per stage (the closure chains held 14, 13, 28).
    An NDP page waiting for its scheduling job is those three and no
    fourth (the job *is* the page record); an admitted SLS op is its
    entry, the entry's three queues and those three (its six closures and
    their cells made it 14)."""
    counts = unit_counts()
    assert counts["FlashArray.read"] <= 4, counts
    assert counts["Ftl.read_pages([lpn])"] <= 6, counts
    # The move is its own flash read: no second record and bound method
    # while the read is queued on its die (4 before).
    assert counts["gc page move"] <= 2.5, counts
    assert counts["NDP page in flight"] <= 3.5, counts
    assert counts["SLS op in flight"] <= 7.5, counts
    # A planned arrival keeps only its drawn batch (four containers) and
    # a planned update batch nothing: a series holds its arguments in one
    # list with one event in the heap.  One ``schedule_at`` per event
    # added the lambda, its defaults and closure tuples and the heap
    # entry (8 and 4).
    assert counts["planned arrival"] <= 4.5, counts
    assert counts["planned update batch"] <= 0.5, counts


def test_what_a_queued_request_keeps_alive():
    """Six containers (the ``Batch``, its ``bags`` dict, one ``Bags`` per
    table, the request, its ``values`` dict) and ~1.5 kB on CPython 3.11:
    each table's bags are one id array behind one slotted record.  As a
    list of two views of it they are as many containers — numpy arrays
    are not GC-tracked — but a 112-byte array header per bag on top of
    the list: ~480 bytes more per queued request (2,028 at the parent
    against 1,516), whatever the interpreter's own object sizes."""
    counts = request_counts()
    as_lists = request_counts(as_lists=True)
    assert counts["containers"] <= as_lists["containers"], (counts, as_lists)
    assert as_lists["bytes"] - counts["bytes"] >= 400, (counts, as_lists)
    if sys.version_info >= (3, 11):     # 3.10 gives every instance a dict
        assert counts["containers"] <= 6.5, counts
        assert counts["bytes"] <= 1600, counts
