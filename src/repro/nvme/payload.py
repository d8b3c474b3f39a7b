"""Payload objects carried by simulated NVMe data transfers.

Read data is returned as a list of page *segments* referencing the page
content objects held by the flash store/page cache.  Carrying references
(rather than copying 16KB byte buffers per access) keeps the simulator
fast while preserving data identity end-to-end; ``to_bytes`` materializes
real bytes when a test or host consumer needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

import numpy as np

__all__ = [
    "ReadSegment",
    "ReadPayload",
    "PageImagePayload",
    "page_content_to_bytes",
]


def page_content_to_bytes(content: Any, page_bytes: int) -> np.ndarray:
    """Materialize a page content object into a uint8 array of page size."""
    if content is None:
        return np.zeros(page_bytes, dtype=np.uint8)
    if isinstance(content, np.ndarray):
        buf = content.view(np.uint8).reshape(-1)
        if buf.size != page_bytes:
            raise ValueError(f"page buffer is {buf.size} bytes, expected {page_bytes}")
        return buf
    materialize = getattr(content, "materialize", None)
    if materialize is not None:
        buf = materialize()
        if buf.size != page_bytes:
            raise ValueError("materialized page has wrong size")
        return buf
    raise TypeError(f"cannot materialize page content of type {type(content)!r}")


@dataclass(slots=True)
class ReadSegment:
    """One contiguous byte range within a single logical page."""

    lpn: int
    content: Any
    offset: int
    nbytes: int


@dataclass
class PageImagePayload:
    """Full-page write images carried by reference, one content per LPN.

    The IO write path normally carries raw bytes; live embedding updates
    instead ship fresh virtual page contents (``TablePageContent``) so a
    rewritten page keeps reading through the table's committed data
    while the device pays the full transfer + program costs.  The write
    command's SLBA must be page-aligned and span exactly
    ``len(contents)`` pages; ``nbytes`` is the modelled wire size.
    """

    contents: List[Any]
    nbytes: int


@dataclass(slots=True)
class ReadPayload:
    """Ordered segments covering the LBA range of a read command."""

    segments: List[ReadSegment]
    nbytes: int

    def to_bytes(self, page_bytes: int) -> np.ndarray:
        """Concatenate all segments into one uint8 buffer."""
        parts = []
        for seg in self.segments:
            page = page_content_to_bytes(seg.content, page_bytes)
            parts.append(page[seg.offset : seg.offset + seg.nbytes])
        if not parts:
            return np.zeros(0, dtype=np.uint8)
        out = np.concatenate(parts)
        if out.size != self.nbytes:
            raise AssertionError("payload size mismatch")
        return out
