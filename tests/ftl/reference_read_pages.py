"""The parent commit's ``Ftl._read_pages_scalar``, kept verbatim as a free
function (``self`` reads ``ftl``): one page-cache and one mapping
``lookup`` per page, one ``flash.read`` and one closure per missing page,
in page order.  ``tests/hotpath/test_read_pages_batch.py`` holds the
batched ``Ftl.read_pages`` to its instants, contents and counters.

Copied from commit ce681c24a305dd25b8c466047358b64ea22bfe43; do not edit
to follow ``src/``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ftl.ftl import GreedyFtl
from repro.ftl.mapping import UNMAPPED

__all__ = ["read_pages_scalar"]


def read_pages_scalar(
    ftl: GreedyFtl, lpns: list[int], on_done: Callable[[list[Any]], None]
) -> None:
    if not lpns:
        ftl.sim.call_soon(lambda: on_done([]))
        return
    if len(lpns) == 1:
        ftl.read_page(lpns[0], lambda content, _hit: on_done([content]))
        return
    ftl.host_page_reads += len(lpns)
    costs = ftl.cpu.costs
    contents: list[Any] = [None] * len(lpns)
    # Probe the cache up front; misses go to flash after the CPU cost.
    miss_indices: list[int] = []
    for i, lpn in enumerate(lpns):
        hit, content = ftl.page_cache.lookup(lpn)
        if hit:
            contents[i] = content
        else:
            miss_indices.append(i)
    base = costs.io_miss_s if miss_indices else costs.io_hit_s
    cpu_cost = base + (len(lpns) - 1) * costs.io_extra_page_s

    def after_cpu() -> None:
        if not miss_indices:
            on_done(contents)
            return
        remaining = {"n": len(miss_indices)}
        for i in miss_indices:
            lpn = lpns[i]
            ppn = ftl.mapping.lookup(lpn)
            if ppn == UNMAPPED:
                contents[i] = None
                remaining["n"] -= 1
                continue
            ftl.flash_page_reads += 1

            def make(i: int, lpn: int):
                def cb(content: Any) -> None:
                    contents[i] = content
                    if content is not None:  # don't cache uncorrectable reads
                        ftl.page_cache.insert(lpn, content)
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        on_done(contents)

                return cb

            ftl.flash.read(ppn, make(i, lpn))
        if remaining["n"] == 0:
            on_done(contents)

    ftl.cpu.ftl_core.submit(cpu_cost, after_cpu)
