"""``read_pages(ftl, lpns, on_done)``: :meth:`GreedyFtl.read` with a
callback, the form the FTL suites drive it in.

One :class:`HostRead` for the command, as the controller's ``BlockRead``
is: a single page is the record's own, several are its ``pages``, paid
for once.  ``on_done(contents)`` gets every page's content, in page
order, once the last is in."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List

from repro.ftl.ftl import GreedyFtl, HostRead

__all__ = ["read_pages"]


class _Pages(HostRead):
    __slots__ = ("on_done",)

    def pages_read(self) -> None:
        pages = self.pages
        self.on_done([self.content] if pages is None else [page.content for page in pages])


def read_pages(ftl: GreedyFtl, lpns: List[int], on_done: Callable[[List[Any]], None]) -> None:
    if not lpns:
        ftl.sim.call_soon(partial(on_done, []))
        return
    read = _Pages(lpns[0])
    read.on_done = on_done
    if len(lpns) > 1:
        read.pages = [HostRead(lpn) for lpn in lpns]
    ftl.read(read)
