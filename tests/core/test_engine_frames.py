"""What an SLS op costs, in Python frames: per flash page, and once.

The engine's host time scales with pages per op (16 on the bench model,
150-350 on the paper's RM1-RM3), and a frame is the unit of that cost
the interpreter never hides: ``sys.setprofile`` reports one ``call`` per
Python function entered.  One op over 64 and one over 192 one-row pages
differ by 128 pages and nothing else, so the difference is what a page
costs from its bucket at config time to its translate — engine, FTL CPU
queue, mapping lookup, flash die and bus, kernel dispatch.  The count
depends on no clock and, with the collector off (a plugin's
``gc.callbacks`` entry is a Python frame per pass), repeats exactly.

What an op pays once — its config built from the bags, checked, written,
bucketed and interleaved, its pages gathered, its result read back — is
the intercept of the line through a 16- and a 64-page op.
"""

import gc
import sys

import numpy as np
import pytest

from .test_engine import make_stack

# 18: 8 in the four Server jobs (sched, die, bus, translate), 1 record
# constructor (the page is its own flash read), 5 stage callbacks (sched,
# die, bus, landing, translate), ``GreedyFtl.ndp_read`` (page-cache
# probe, L2P lookup, the flash read count) with ``FlashArray.admit``, and
# the store read with its virtual page (no ``__init__`` frame).  It was
# 22 while a page was a ``_PageJob`` plus a flash ``_PageRead`` plus a
# ``TablePageContent`` built by its ``__init__``, and crossed
# ``PageCache.peek``, ``ndp_read_mapped_page``, ``MappingTable.lookup``
# and ``FlashArray.read``; 24 while each flash read added its latency to
# an accumulator nothing read, 23 while each called the retry model with
# no read errors configured.
FRAMES_PER_PAGE = 18
# Plus a ``_pump`` for every page past the 128-page window: half of the
# 128 pages between a 64- and a 192-page op (22.5 before).
FRAMES_PER_PAGE_PAST_WINDOW = 18.5
# An NDP page makes no call into numpy's C functions.
NUMPY_CALLS_PER_PAGE = 0


# 249 at the parent of the op-level rewrite on CPython 3.11 (210 after
# it): config checks that read the bounds off a sorted array, page
# buckets as ``[lo, hi)`` of arrays the entry holds once, one gather
# index, a record per op in the session and the NDP backend.  202 at
# the parent of the closed-form host core, 193 after it: no ``_finish``
# per host-core job, and the three device-to-host jobs (the config
# write's CQ entry, the result DMA and its CQ entry) hand off to the
# PCIe link in one event each.  175 since the driver's pickup of a CQ
# entry rides the entry's own event (no ``_on_cq_post`` / ``poll`` /
# ``schedule_call``), a doorbell pops the command it was rung for, the
# hand-off admits its core job in its own frame and a queue pair's
# check is ``outstanding < depth``.  159 since the gather reuses the
# bound the config proved (no ``external_ids``, ``_check_ids`` or
# ``_amax`` on the device side) and the config's checks call numpy's
# reductions directly (153 measured).  151 since the controller hands
# the engine ``partial(complete, qp, cmd)`` for an NDP command, not a
# ``lambda`` whose call is a frame of its own.  CPython 3.12 inlines
# comprehensions, so it counts fewer.
FIXED_FRAMES_PER_OP = 151
# numpy 2: 43 while the op's ids were range-checked four times (config,
# ``_process_config``, ``_table_vectors``'s ``ranks.max()``,
# ``TableData._check_ids``), ``max()`` went through numpy's Python
# ``_amax``, ``MappingTable.lookup_many`` cast its int64 input, and a
# ``Bags`` offset column went through ``np.cumsum``'s wrapper and its
# ``rids`` through ``np.diff``.
FIXED_NUMPY_CALLS_PER_OP = 27


def python_calls(run) -> int:
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event == "call":
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


def frames_for_one_op(pages: int, build_config: bool = False, count=python_calls) -> int:
    system, table = make_stack()
    bags = [np.arange(pages)]
    config = table.make_sls_config(bags)
    payloads = []

    def one_op() -> None:
        sls_config = table.make_sls_config(bags) if build_config else config
        # No stop predicate: ``run_until`` would call one per event.
        system.ndp_session.sls(sls_config, lambda payload, _timing: payloads.append(payload))
        system.sim.run()

    calls = count(one_op)
    assert payloads[0].flash_pages_read == pages
    return calls


def test_a_page_costs_a_bounded_number_of_frames():
    small, large = frames_for_one_op(64), frames_for_one_op(192)
    assert (small, large) == (frames_for_one_op(64), frames_for_one_op(192))
    per_page = (large - small) / 128
    assert per_page <= FRAMES_PER_PAGE_PAST_WINDOW, per_page


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
def test_an_op_pays_a_bounded_number_of_frames_once():
    small, large = frames_for_one_op(16, True), frames_for_one_op(64, True)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= FRAMES_PER_PAGE, per_page
    assert fixed <= FIXED_FRAMES_PER_OP, fixed


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
def test_an_op_makes_a_bounded_number_of_numpy_calls():
    """What a frame count cannot see: the op's calls into numpy's C
    functions, config build included (``numpy_calls`` in
    ``test_cots_frames.py``), none of them per page."""
    from .test_cots_frames import numpy_calls

    def calls(pages: int) -> int:
        return frames_for_one_op(pages, True, count=numpy_calls)

    calls(16)
    small, large = calls(16), calls(64)
    assert large == calls(64)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= NUMPY_CALLS_PER_PAGE, per_page
    assert fixed <= FIXED_NUMPY_CALLS_PER_OP, fixed
