"""What a garbage-collection page move costs, in Python frames.

The collector relocates each valid page of its victim: flash read, FTL
CPU time, allocate and program, remap — and checks before each stage
that no foreground write made the copy stale.  Two migrations of one
victim, holding 8 and 40 valid pages, differ by 32 moves and nothing
else, so the slope is a move's cost.  Counted with ``sys.setprofile``
and the collector off, as in ``tests/core/test_engine_frames.py``.
"""

from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd

from ..core.test_engine_frames import python_calls
from .test_gc_wear import fill

# 51 on CPython 3.11 while a program built two ``PhysAddr`` records
# (flash array and store) where a read does the die arithmetic, each
# stage called ``PageMove.stale``, the collector started every move
# through a method of its own and each flash read fed a latency
# accumulator nothing read; 40 while each flash read called the retry
# model with no read errors configured; 39 while the move's flash read
# was a record of its own (the move is a ``PageRead`` now).
FRAMES_PER_MOVE = 38


def frames_for_a_migration(valid: int) -> int:
    sim = Simulator()
    ftl = small_ssd(sim, pages_per_block=64).ftl
    geometry = ftl.geometry
    # Writes stripe over the dies: this closes one block on each.
    fill(sim, ftl, range(geometry.dies * geometry.pages_per_block))
    victim = ftl.mapping.lookup(0) // geometry.pages_per_block
    for lpn in ftl.mapping.valid_lpns_in_block(victim)[valid:]:
        ftl.trim_page(lpn)
    die = victim // geometry.blocks_per_die

    def migrate() -> None:
        ftl.gc._migrate_block(die, victim)
        sim.run()

    calls = python_calls(migrate)
    assert ftl.gc.pages_moved == valid and ftl.gc.blocks_reclaimed == 1
    return calls


def test_a_gc_page_move_costs_a_bounded_number_of_frames():
    small, large = frames_for_a_migration(8), frames_for_a_migration(40)
    assert (small, large) == (frames_for_a_migration(8), frames_for_a_migration(40))
    per_move = (large - small) / 32
    assert per_move <= FRAMES_PER_MOVE, per_move
