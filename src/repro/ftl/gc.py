"""Greedy garbage collection.

When a die's free-block pool drops below the low watermark, the collector
picks the closed block with the fewest valid pages, migrates the valid
pages to fresh locations (paying flash reads/programs and FTL CPU time),
erases the victim, and returns it to the free pool — repeating until the
high watermark is restored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .mover import PageMove

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ftl import GreedyFtl

__all__ = ["GarbageCollector"]


class GarbageCollector:
    def __init__(self, ftl: "GreedyFtl", low_watermark: int = 2, high_watermark: int = 4):
        if low_watermark < 1 or high_watermark < low_watermark:
            raise ValueError("watermarks must satisfy 1 <= low <= high")
        self.ftl = ftl
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self._active = [False] * ftl.geometry.dies
        self.runs = 0
        self.pages_moved = 0
        self.moves_aborted = 0
        self.blocks_reclaimed = 0
        self.stalls = 0

    def reset_stats(self) -> None:
        """Clear the GC gauges benchmarks read (not collection state)."""
        self.runs = 0
        self.pages_moved = 0
        self.moves_aborted = 0
        self.blocks_reclaimed = 0
        self.stalls = 0

    # ------------------------------------------------------------------
    def maybe_collect(self, die: int) -> None:
        if self._active[die]:
            return
        if self.ftl.blocks.free_blocks_in_die(die) >= self.low_watermark:
            return
        self._active[die] = True
        self.runs += 1
        self._collect_step(die)

    def _collect_step(self, die: int) -> None:
        blocks = self.ftl.blocks
        if blocks.free_blocks_in_die(die) >= self.high_watermark:
            self._active[die] = False
            return
        candidates = [
            b
            for b in self._closed_blocks_in_die(die)
            if b not in self.ftl.migrating_blocks and self.ftl.block_erasable(b)
        ]
        if not candidates:
            self._active[die] = False
            self.stalls += 1
            return
        victim = self.ftl.mapping.min_valid_block(candidates)
        if self.ftl.mapping.valid_pages_in_block(victim) >= self.ftl.geometry.pages_per_block:
            # Device is effectively full; collecting gains nothing.
            self._active[die] = False
            self.stalls += 1
            return
        self._migrate_block(die, victim)

    def _closed_blocks_in_die(self, die: int) -> List[int]:
        per_die = self.ftl.geometry.blocks_per_die
        lo, hi = die * per_die, (die + 1) * per_die
        return [b for b in self.ftl.blocks.closed_blocks() if lo <= b < hi]

    # ------------------------------------------------------------------
    def _migrate_block(self, die: int, victim: int) -> None:
        self.ftl.migrating_blocks.add(victim)
        lpns = self.ftl.mapping.valid_lpns_in_block(victim)
        remaining = len(lpns)
        tracer = self.ftl.sim.tracer
        span = None
        if tracer is not None:
            # One span per victim block: valid-page relocation through
            # the erase that reclaims it — the die time GC steals from
            # foreground reads.
            span = tracer.begin(
                "gc.migrate", die=die, block=victim, valid_pages=remaining
            )
        if remaining == 0:
            self._erase_victim(die, victim, span, lpns)
            return

        def move_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._erase_victim(die, victim, span, lpns)

        # Each copy lands within the victim's die, reserve included.
        # Should that be consumed mid-migration (e.g. a victim with more
        # valid pages than one block's remnant), the move goes cross-die
        # rather than wedging the collector.
        on_moved = self._page_moved
        for lpn in lpns:
            PageMove(self, lpn, move_done, die=die, reserve=0, on_moved=on_moved).start()

    def _page_moved(self) -> None:
        self.pages_moved += 1

    def _erase_victim(self, die: int, victim: int, span=None, lpns=None) -> None:
        ftl = self.ftl

        def after_erase() -> None:
            ftl.migrating_blocks.discard(victim)
            ftl.blocks.release_block(victim)
            self.blocks_reclaimed += 1
            if span is not None and ftl.sim.tracer is not None:
                ftl.sim.tracer.end(span)
            if ftl.layout_migrator is not None and lpns:
                # Piggyback layout adaptation on the relocation we just
                # paid for: the victim's surviving rows are re-packed
                # against the current heatmap (bounded per cycle).
                ftl.layout_migrator.on_block_reclaimed(lpns)
            ftl.wear_check()
            ftl.notify_blocks_released()
            self._collect_step(die)

        ftl.flash.erase(victim, after_erase)
