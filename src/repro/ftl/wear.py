"""Static wear leveling.

When the erase-count spread across blocks exceeds a threshold, the
coldest closed block (fewest erases, holding static data) is migrated so
its block rejoins the allocation pool and absorbs future program/erase
cycles.  This is the classic static wear-leveling scheme used by simple
FTLs such as the Cosmos+ greedy FTL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .mover import PageMove

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ftl import GreedyFtl

__all__ = ["WearLeveler"]


class WearLeveler:
    def __init__(self, ftl: "GreedyFtl", threshold: int = 64):
        self.ftl = ftl
        self.threshold = threshold
        self.migrations = 0
        self.moves_aborted = 0
        self.checks = 0
        self._busy = False

    def reset_stats(self) -> None:
        """Clear the wear gauges benchmarks read (not migration state)."""
        self.migrations = 0
        self.moves_aborted = 0
        self.checks = 0

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Trigger a migration if the wear spread exceeds the threshold."""
        self.checks += 1
        if self._busy:
            return
        # Don't start a migration when free space is tight: foreground GC
        # has priority on the remaining blocks.
        if self.ftl.blocks.total_free_blocks < self.ftl.geometry.dies:
            return
        victim = self._select_cold_block()
        if victim is None:
            return
        self._busy = True
        self._migrate(victim)

    def _select_cold_block(self) -> Optional[int]:
        blocks = self.ftl.blocks
        if blocks.wear_spread() <= self.threshold:
            return None
        closed = [
            b
            for b in blocks.closed_blocks()
            if b not in self.ftl.migrating_blocks and self.ftl.block_erasable(b)
        ]
        if not closed:
            return None
        coldest = min(closed, key=lambda b: int(blocks.erase_counts[b]))
        hottest = int(blocks.erase_counts.max())
        if hottest - int(blocks.erase_counts[coldest]) <= self.threshold:
            return None
        return coldest

    # ------------------------------------------------------------------
    def _migrate(self, victim: int) -> None:
        ftl = self.ftl
        ftl.migrating_blocks.add(victim)
        lpns = ftl.mapping.valid_lpns_in_block(victim)
        remaining = len(lpns)

        def finish_block() -> None:
            def after_erase() -> None:
                ftl.migrating_blocks.discard(victim)
                ftl.blocks.release_block(victim)
                self.migrations += 1
                self._busy = False
                ftl.notify_blocks_released()

            ftl.flash.erase(victim, after_erase)

        if remaining == 0:
            finish_block()
            return

        def move_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                finish_block()

        for lpn in lpns:
            self._move_page(lpn, move_done)

    def _move_page(self, lpn: int, on_done) -> None:
        # Background service: stay above the per-die GC reserve when
        # possible; a mid-migration squeeze may dip into it (the erase at
        # the end of this migration returns a block immediately).
        # on_moved=None: wear leveling counts blocks (``migrations``), not
        # pages.
        PageMove(self, lpn, on_done, die=None, reserve=1, on_moved=None).start()
