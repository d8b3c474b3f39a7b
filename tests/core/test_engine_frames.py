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

from repro.core.engine import NdpEngineConfig

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
# With the SSD-side embedding cache on, a page also claims its rows'
# slots at its translate: one ``insert_tags`` frame over Python ints, and
# no numpy call (2, ``np.asarray`` and ``tolist``, while the claim took
# the page's ranks as an array and compared numpy scalar tags).
CACHE_SLOTS = 4096
FRAMES_PER_PAGE_CACHE = 19
NUMPY_CALLS_PER_PAGE_CACHE = 0


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
# ``lambda`` whose call is a frame of its own.  145 since the gather
# builds its index, contents and page indices in one loop over its pages
# (no list comprehensions) and a ``TableSpec.row_bytes`` reads its
# element width off the ``EmbDtype`` member (no property and
# ``Enum.__hash__`` frame).  CPython 3.12 inlines comprehensions, so it
# counts fewer.
FIXED_FRAMES_PER_OP = 145
# numpy 2: 43 while the op's ids were range-checked four times (config,
# ``_process_config``, ``_table_vectors``'s ``ranks.max()``,
# ``TableData._check_ids``), ``max()`` went through numpy's Python
# ``_amax``, ``MappingTable.lookup_many`` cast its int64 input, and a
# ``Bags`` offset column went through ``np.cumsum``'s wrapper and its
# ``rids`` through ``np.diff``; 27 while the gather built its index with
# ``np.add.accumulate``, ``np.arange`` and ``repeat`` (one ``np.array``
# of a list now).
FIXED_NUMPY_CALLS_PER_OP = 25
# The cache adds 5 frames per op: the probe, its settle's
# ``flush_gathers`` and an empty ``_gather``, the fill and its
# ``_ensure_storage``; and 6 numpy calls: the probe's ``tolist`` and hit
# mask, the ranks' ``tolist`` the claims slice, and the fill's
# ``tolist``, slot array and ``take`` of the vectors it stores.
FIXED_FRAMES_PER_OP_CACHE = 150
FIXED_NUMPY_CALLS_PER_OP_CACHE = 31


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


def frames_for_one_op(
    pages: int, build_config: bool = False, count=python_calls, cache_slots: int = 0
) -> int:
    system, table = make_stack(NdpEngineConfig(embcache_slots=cache_slots))
    bags = [np.arange(pages)]
    config = table.make_sls_config(bags)
    payloads = []
    if cache_slots:
        # One unrelated resident row, uncounted: the op's probe walks
        # every row, and each misses, is read and claims its slot.
        system.ndp_session.sls(table.make_sls_config([np.array([2047])]), lambda *_: None)
        system.sim.run()

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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
def test_with_the_embedding_cache_on_an_op_and_a_page_cost_bounded_frames():
    def frames(pages: int) -> int:
        return frames_for_one_op(pages, True, cache_slots=CACHE_SLOTS)

    small, large = frames(16), frames(64)
    assert large == frames(64)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= FRAMES_PER_PAGE_CACHE, per_page
    assert fixed <= FIXED_FRAMES_PER_OP_CACHE, fixed


@pytest.mark.skipif(sys.version_info < (3, 11), reason="pinned on CPython 3.11")
def test_with_the_embedding_cache_on_a_page_makes_no_numpy_call():
    from .test_cots_frames import numpy_calls

    def calls(pages: int) -> int:
        return frames_for_one_op(pages, True, count=numpy_calls, cache_slots=CACHE_SLOTS)

    calls(16)
    small, large = calls(16), calls(64)
    assert large == calls(64)
    per_page = (large - small) / 48
    fixed = small - 16 * per_page
    assert per_page <= NUMPY_CALLS_PER_PAGE_CACHE, per_page
    assert fixed <= FIXED_NUMPY_CALLS_PER_OP_CACHE, fixed
