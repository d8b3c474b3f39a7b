"""What a COTS SLS op costs, in Python frames: per block read, and once.

The baseline (``SsdSlsBackend``) issues one NVMe read per unique LBA run
and pays, per command, the driver's submit, the controller's fetch, the
FTL read, the flash die and bus, the DMA, the completion and the host's
accumulate.  An op over 16 and one over 64 one-row pages differ by 48
commands and nothing else, so the slope of the line through them is a
command's cost and its intercept what an op pays once (cache probe,
span grouping, command planning, the one gather and sum, the result).
Counted with ``sys.setprofile`` and the collector off, as in
``test_engine_frames.py``; with a host LRU the op also probes it once
and refills it once per command.
"""

import sys

import numpy as np
import pytest

from repro.embedding.backends.ssd import SsdSlsBackend
from repro.embedding.caches import SetAssociativeLru

from .test_engine import make_stack
from .test_engine_frames import python_calls

# 86 at the parent of the block-read rewrite on CPython 3.11 (64 after
# it): the controller reads the FTL's geometry once, a read carries its
# own completion stages, no PCIe / DMA / deliver hops, a command's
# callback is a ``partial`` of the op record's bound method.  58 since
# the host core admits in closed form (no ``_finish`` per fetch, DMA
# and completion job), its DMA and CQ-entry jobs hand off to the PCIe
# link in one event (no ``dma_ready`` / ``completion_ready``), and a
# flash read keeps a counter, not a latency accumulator.
FRAMES_PER_PAGE = 58
# 88 with the host LRU at that parent (66 after it, 60 since).
FRAMES_PER_PAGE_LRU = 60

# 112 at that parent (73 after it), 133 with the LRU (82 after it): one
# stable sort for the span groups and for the unique misses, geometry
# read once per op, commands planned from ``tolist()``, one record per op.
FIXED_FRAMES_PER_OP = 76
FIXED_FRAMES_PER_OP_LRU = 85


def frames_for_one_op(pages: int, lru: bool) -> int:
    system, table = make_stack()
    cache = None
    if lru:
        # One unrelated resident row: the probe takes its usual route,
        # and every row of the op misses and is refilled.
        cache = SetAssociativeLru(4096)
        cache.insert(2047, table.get_rows(np.array([2047]))[0])
    backend = SsdSlsBackend(system, table, host_cache=cache)
    bags = [np.arange(pages)]
    results = []

    def one_op() -> None:
        backend.start(bags, results.append)
        system.sim.run()
        if cache is not None:
            cache.occupancy      # the owed refills land here

    calls = python_calls(one_op)
    assert results[0].stats["commands"] == pages
    return calls


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
@pytest.mark.parametrize(
    "lru, per_page_bound, fixed_bound",
    [
        (False, FRAMES_PER_PAGE, FIXED_FRAMES_PER_OP),
        (True, FRAMES_PER_PAGE_LRU, FIXED_FRAMES_PER_OP_LRU),
    ],
)
def test_a_cots_op_costs_a_bounded_number_of_frames(lru, per_page_bound, fixed_bound):
    frames_for_one_op(16, lru)      # first-call imports and caches
    small, large = frames_for_one_op(16, lru), frames_for_one_op(64, lru)
    assert large == frames_for_one_op(64, lru)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= per_page_bound, per_page
    assert fixed <= fixed_bound, fixed
