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

Frames do not see numpy: a call into a numpy C function is a
``c_call`` event, not a frame, and the host LRU's cost was in such calls
(an ``argmin`` over a set's stamps per eviction, a dozen calls per
probe).  So the op with the LRU also has a numpy budget: the same line
through a 16- and a 64-page op, counting ``c_call`` events whose
function belongs to numpy, with a full cache that evicts a row per
command.
"""

import gc
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
# flash read keeps a counter, not a latency accumulator.  47 since the
# doorbell is the fetcher's bound method and pops its command (no
# ``_doorbell`` / ``_fetch_next`` / ``pop``), a fetched read skips
# ``_dispatch``, a one-page ``read_pages`` works in its own frame, the
# hand-off admits its core job in its own frame (no ``_admit``), a
# flash read skips the retry model when no read errors are configured,
# the qpair pick reads ``outstanding < depth`` (no ``can_submit``) and
# the driver's pickup rides the CQ entry's event (no ``_on_cq_post`` /
# ``poll`` / ``schedule_call``).  45 since the FTL's page read is its
# own flash read (a ``PageRead``: no second record) and an L2P lookup
# reads a memoryview (no numpy scalar).
FRAMES_PER_PAGE = 45
# 88 with the host LRU at that parent (66 after it, 60 before the last
# step, 49 before the flash read record went, 47 since).
FRAMES_PER_PAGE_LRU = 47

# 112 at that parent (73 after it), 133 with the LRU (82 after it): one
# stable sort for the span groups and for the unique misses, geometry
# read once per op, commands planned from ``tolist()``, one record per op.
# 76 / 85 before the last step; 59 / 69 while the gather checked the
# op's ids again (``TableData._check_ids`` after ``_start``'s) and a
# ``Bags`` built its offsets and ``rids`` through numpy's wrappers.
FIXED_FRAMES_PER_OP = 47
FIXED_FRAMES_PER_OP_LRU = 57

# With a full host LRU, CPython 3.11, numpy 2: 1 per command and 45 once
# while the LRU kept numpy tag and stamp rows (an ``argmin`` per
# eviction; a probe of ``%``, a broadcast compare, ``any``, ``nonzero``,
# a unique count and a stamp scatter).  Since it keeps a recency list
# per set, a key costs no numpy call: the probe is a ``tolist``, a mask
# and one gather, the refill a ``tolist`` and one scatter.  41 once
# until the gather stopped checking the ids ``_start`` had checked.
NUMPY_CALLS_PER_PAGE_LRU = 0
FIXED_NUMPY_CALLS_PER_OP_LRU = 30


def numpy_calls(run) -> int:
    """How many calls ``run`` makes into numpy's C functions (``c_call``
    events whose function, or the object it is bound to, belongs to
    numpy), with the collector off.  The profiler reports a ``c_call``
    for a builtin function or method only: ``np.zeros``, ``arr.tolist``
    and ``np.add.at`` count, a ufunc called directly (``np.maximum(a,
    b)``) and a function behind numpy's array-function dispatcher
    (``np.concatenate``) do not."""
    calls = 0

    def on_event(_frame, event, arg):
        nonlocal calls
        if event == "c_call":
            module = getattr(arg, "__module__", None) or type(
                getattr(arg, "__self__", None)
            ).__module__
            if module.startswith("numpy"):
                calls += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def frames_for_one_op(pages: int, lru: bool, count=python_calls, full: bool = False) -> int:
    system, table = make_stack()
    cache = None
    if lru:
        # One unrelated resident row: the probe takes its usual route,
        # and every row of the op misses and is refilled.  A ``full``
        # cache holds 16 unrelated rows in its one set, so each refill
        # also evicts one.
        cache = SetAssociativeLru(16 if full else 4096)
        resident = np.arange(2032, 2048) if full else np.array([2047])
        cache.insert_many(resident, table.get_rows(resident))
    backend = SsdSlsBackend(system, table, host_cache=cache)
    bags = [np.arange(pages)]
    results = []

    def one_op() -> None:
        backend.start(bags, results.append)
        system.sim.run()
        if cache is not None:
            cache.occupancy      # the owed refills land here

    calls = count(one_op)
    assert results[0].stats["commands"] == pages
    if full:
        assert cache.evictions == pages
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
def test_a_cots_op_with_the_host_lru_makes_a_bounded_number_of_numpy_calls():
    def calls(pages: int) -> int:
        return frames_for_one_op(pages, True, count=numpy_calls, full=True)

    calls(16)
    small, large = calls(16), calls(64)
    assert large == calls(64)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= NUMPY_CALLS_PER_PAGE_LRU, per_page
    assert fixed <= FIXED_NUMPY_CALLS_PER_OP_LRU, fixed
