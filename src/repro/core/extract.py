"""Extract embedding vectors from flash page content.

Page content can be a virtual table page (fast path used for preloaded
tables), a raw byte buffer written through the IO path, or ``None`` for
never-written pages.  All paths return float32 vectors, dequantizing as
needed.

:func:`extract_vectors` handles one page.  The two batch forms take an
entire command's or entry's pages so virtual pages of one table collapse
into a single gather instead of one Python call chain per page (critical
for ONE_PER_PAGE layouts, where every row is its own page):
:func:`extract_vectors_many` takes a flat (page, slot) list and groups it
(the SSD read path); :func:`extract_vectors_paged` takes pages, the
storage ranks the caller already holds grouped page by page, and how
many fall on each page (the NDP engine's per-entry gather).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..quant import QuantSpec, decode_vectors

__all__ = ["extract_vectors", "extract_vectors_many", "extract_vectors_paged"]


def _extract_from_buffer(
    content: Any,
    slots: np.ndarray,
    vec_dim: int,
    rows_per_page: int,
    quant: QuantSpec,
) -> np.ndarray:
    buf = np.asarray(content).view(np.uint8).reshape(-1)
    row_bytes = quant.row_bytes(vec_dim)
    needed = rows_per_page * row_bytes
    if buf.size < needed:
        raise ValueError(
            f"page buffer too small: {buf.size} bytes < {needed} for layout"
        )
    rows = buf[:needed].reshape(rows_per_page, row_bytes)
    raw = rows[slots].reshape(slots.size, row_bytes).view(quant.dtype.numpy_dtype)
    return decode_vectors(raw.reshape(slots.size, vec_dim), quant)


def extract_vectors(
    content: Any,
    slots: np.ndarray,
    vec_dim: int,
    rows_per_page: int,
    quant: QuantSpec,
) -> np.ndarray:
    """Return float32 ``[len(slots), vec_dim]`` for in-page row ``slots``."""
    slots = np.asarray(slots, dtype=np.int64)
    if slots.size and (slots.min() < 0 or slots.max() >= rows_per_page):
        raise IndexError("slot out of page range")
    if content is None:
        return np.zeros((slots.size, vec_dim), dtype=np.float32)
    vectors = getattr(content, "vectors", None)
    if vectors is not None:
        out = vectors(slots)
        if out.shape != (slots.size, vec_dim):
            raise ValueError("virtual page returned wrong vector shape")
        return out
    return _extract_from_buffer(content, slots, vec_dim, rows_per_page, quant)


def _table_vectors(table: Any, ranks: np.ndarray, top: int, vec_dim: int) -> np.ndarray:
    """Canonical vectors stored at storage ``ranks`` of ``table``.

    What ``TablePageContent.vectors`` returns page by page, for any
    number of pages at once: the table's layout resolves each rank to
    the row stored there, and ranks past the table's end (the tail of
    its last page) are zero.  ``ranks`` are int64 and non-negative, and
    ``top`` is at least the largest of them: the caller proved both, so
    the ranks are neither reduced nor checked again.
    """

    def gather(stored: np.ndarray) -> np.ndarray:
        got = table.rows_at(stored)
        if got.shape != (stored.size, vec_dim):
            raise ValueError("virtual page returned wrong vector shape")
        return got

    rows = table.spec.rows
    if top < rows:
        return gather(ranks)
    out = np.zeros((ranks.size, vec_dim), dtype=np.float32)
    in_range = ranks < rows
    if np.any(in_range):
        out[in_range] = gather(ranks[in_range])
    return out


def extract_vectors_many(
    contents_by_lpn: Mapping[int, Any],
    lpns: np.ndarray,
    slots: np.ndarray,
    vec_dim: int,
    rows_per_page: int,
    quant: QuantSpec,
) -> np.ndarray:
    """Batch extract: row ``i`` is slot ``slots[i]`` of page ``lpns[i]``.

    Equivalent to one :func:`extract_vectors` call per row with the row's
    page content (missing pages yield zero vectors, like ``None``
    content), but each distinct page is looked at once — and when every
    page is a virtual page of one table (objects carrying
    ``table``/``page_index``; an NDP entry's pages, an SSD command's)
    the whole batch is a single ``table.get_rows`` gather in input
    order with no per-page numpy work.
    """
    lpns = np.asarray(lpns, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    if slots.size == 0:
        return np.zeros((0, vec_dim), dtype=np.float32)
    if slots.min() < 0 or slots.max() >= rows_per_page:
        raise IndexError("slot out of page range")
    uniq, inverse = np.unique(lpns, return_inverse=True)
    contents = [contents_by_lpn.get(lpn) for lpn in uniq.tolist()]
    table = getattr(contents[0], "table", None)
    if table is not None and all(
        getattr(content, "table", None) is table for content in contents
    ):
        page_index = np.array([content.page_index for content in contents])
        ranks = page_index[inverse] * rows_per_page + slots
        return _table_vectors(table, ranks, int(ranks.max()), vec_dim)
    out = np.zeros((slots.size, vec_dim), dtype=np.float32)
    for gi, content in enumerate(contents):
        if content is not None:
            idx = np.flatnonzero(inverse == gi)
            out[idx] = extract_vectors(
                content, slots[idx], vec_dim, rows_per_page, quant
            )
    return out


def extract_vectors_paged(
    contents: Sequence[Any],
    page_indices: Sequence[int],
    sizes: Sequence[int],
    ranks: np.ndarray,
    top: int,
    vec_dim: int,
    rows_per_page: int,
    quant: QuantSpec,
) -> np.ndarray:
    """Batch extract, page by page: the next ``sizes[i]`` of ``ranks``
    from page ``contents[i]``, blocks concatenated in that order.

    ``page_indices[i]`` is where the caller expects page ``i`` to sit in
    its table, and ``ranks`` holds storage ranks on that page — the ranks
    a caller that bucketed rows into pages already holds: int64, none
    negative and none above ``top``.  When every
    page is a virtual page of one table *and is the page the caller
    expects* (``content.page_index``, never the LPN it was read from,
    says which rows a virtual page holds) the batch is one gather at
    ``ranks``, with no per-page numpy work.  Anything else — a raw
    buffer, ``None``, two tables, a virtual page found somewhere else —
    is one :func:`extract_vectors` per page at the in-page slots of its
    block, with its slot-range and shape checks.
    """
    table = getattr(contents[0], "table", None)
    if table is not None:
        for content, page_index in zip(contents, page_indices):
            if getattr(content, "table", None) is not table or content.page_index != page_index:
                break
        else:
            return _table_vectors(table, ranks, top, vec_dim)
    slots = ranks % rows_per_page
    blocks = []
    lo = 0
    for content, n in zip(contents, sizes):
        blocks.append(extract_vectors(content, slots[lo : lo + n], vec_dim, rows_per_page, quant))
        lo += n
    return np.concatenate(blocks)
