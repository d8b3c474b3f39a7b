"""The page mover garbage collection and wear leveling share.

Relocating one valid page is flash read -> FTL CPU -> allocate + program
-> remap, and foreground traffic may rewrite the lpn at any of the three
yield points.  Once it does, the copy in hand is stale: the move aborts
before paying for an allocation + program that could never be remapped
(and, worse, would remap the lpn back to stale content if only checked
before the mover's own callbacks ran).

A move in flight is one :class:`PageMove` whose bound methods are the
stage callbacks; it is its own flash read (a
:class:`~repro.flash.array.PageRead`).  Its owner says where the copy should land (``die``,
``reserve``: its first :meth:`BlockManager.allocate_page`; out of space
there, any page anywhere), counts ``moves_aborted``, and passes what a
completed move should tell it as data: ``on_moved``, or ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..flash.array import PageRead
from .blocks import OutOfSpaceError
from .mapping import UNMAPPED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gc import GarbageCollector
    from .wear import WearLeveler

__all__ = ["PageMove"]


@dataclass(slots=True, eq=False)
class PageMove(PageRead):
    owner: Union["GarbageCollector", "WearLeveler"]
    lpn: int
    on_done: Callable[[], None]
    die: Optional[int]
    reserve: int
    on_moved: Optional[Callable[[], None]]
    old_ppn: int = UNMAPPED
    new_ppn: int = UNMAPPED
    content: Any = None

    def start(self) -> None:
        ftl = self.owner.ftl
        self.old_ppn = ftl.mapping.lookup(self.lpn)
        ftl.flash.admit(self, self.old_ppn)

    # Each stage first checks that the lpn still maps to the page being
    # moved; a foreground rewrite makes the copy stale and aborts.

    def abort(self) -> None:
        self.owner.moves_aborted += 1
        self.on_done()

    def landed(self, content: Any) -> None:
        ftl = self.owner.ftl
        if ftl.mapping.lookup(self.lpn) != self.old_ppn:
            self.abort()
            return
        self.content = content
        cpu = ftl.cpu
        cpu.ftl_core.submit(cpu.costs.gc_page_move_s, self.after_cpu, priority=2)

    def after_cpu(self) -> None:
        ftl = self.owner.ftl
        if ftl.mapping.lookup(self.lpn) != self.old_ppn:
            self.abort()
            return
        try:
            self.new_ppn = ftl.blocks.allocate_page(self.die, self.reserve)
        except OutOfSpaceError:
            self.new_ppn = ftl.blocks.allocate_page()
        ftl.program_page(self.new_ppn, self.content, self.after_program)

    def after_program(self) -> None:
        # Last line of defense: the rewrite may land between the allocate
        # and this completion.  The programmed page is then garbage (never
        # mapped, reclaimed on the next erase of its block) but the
        # mapping stays correct.
        mapping = self.owner.ftl.mapping
        if mapping.lookup(self.lpn) != self.old_ppn:
            self.abort()
            return
        mapping.map(self.lpn, self.new_ppn)
        if self.on_moved is not None:
            self.on_moved()
        self.on_done()
