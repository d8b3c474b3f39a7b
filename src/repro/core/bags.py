"""SparseLengthsSum input as the operator takes it: ``(indices, lengths)``.

Caffe2's ``SparseLengthsSum(table, indices, lengths)`` — the paper's
operator — reads one flat index vector plus where each bag ends.
:class:`Bags` is that pair, made once where the ids are drawn
(``RecModel.sample_batches``) or handed in (:meth:`Bags.of`), and read as
``.ids`` / ``.offsets`` / ``.rids`` by every layer below: the scheduler
coalesces requests with :meth:`Bags.concat`, the stage splits row shards
and the NDP backend its cold remainder with :meth:`Bags.select`, and the
table sums with one ``np.add.reduceat`` at ``.starts`` where the bags are
proven non-empty, else with ``segment_sum_offsets``.  Nothing below the seam walks
bag by bag; :meth:`Bags.of` is the one place a list of arrays is
flattened (``tests/test_layering.py`` holds ``src/`` to that).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = ["Bags", "BagsLike", "as_ids"]


def as_ids(values) -> np.ndarray:
    """``values`` as a flat int64 id vector (itself when it is one).

    A non-empty array that is not of integer dtype is refused: a cast
    would serve ``3.7`` as row 3 and ``True`` as row 1 without a word.
    An empty one passes whatever its dtype (``np.array([])`` is float64).
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise TypeError(f"row ids must be integers, got dtype {array.dtype}")
    array = array.astype(np.int64, copy=False)
    # Not reshape(-1) on what is flat already: that is a second array
    # object (a view) for every request that holds the first.
    return array if array.ndim == 1 else array.reshape(-1)


@lru_cache(maxsize=256)
def _uniform_layout(n: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(offsets, rids, starts)`` of ``n`` bags of ``length`` ids,
    read-only so every batch of that shape can share them; ``starts`` is
    None when the bags are empty."""
    offsets = np.arange(n + 1, dtype=np.int64) * length
    rids = np.repeat(np.arange(n, dtype=np.int64), length)
    offsets.setflags(write=False)
    rids.setflags(write=False)
    return offsets, rids, offsets[:-1] if length else None


def _offsets_of(counts) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=offsets[1:])
    return offsets


class Bags:
    """``n`` bags of row ids: flat ``ids`` and ``offsets`` of length n+1.

    Bag ``i`` is ``ids[offsets[i]:offsets[i + 1]]``, with ``offsets[0] == 0``
    and ``offsets[-1] == ids.size``; ``rids[k]`` is the
    bag (the result row) id ``ids[k]`` sums into, ascending, derived on
    first use.  The arrays are shared, never copied — by a coalesced
    batch with the request it came from, by every uniform batch of one
    shape — so nobody writes into them.

    ``starts`` is ``offsets[:-1]`` when every bag is known to hold at
    least one id — :meth:`uniform` bags of non-zero length, and a
    :meth:`concat` of such parts — and None otherwise: the table pools
    bags with starts in one ``np.add.reduceat`` and checks the others
    for empty bags (``segment_sum_offsets``).

    ``len``, iteration and indexing behave like the list of per-result
    arrays this replaces; each bag comes back as a view of ``ids``.
    """

    __slots__ = ("ids", "offsets", "_rids", "starts")

    def __init__(
        self,
        ids: np.ndarray,
        offsets: np.ndarray,
        rids: np.ndarray | None = None,
        starts: np.ndarray | None = None,
    ):
        self.ids = ids
        self.offsets = offsets
        self._rids = rids
        self.starts = starts

    @property
    def rids(self) -> np.ndarray:
        rids = self._rids
        if rids is None:
            offsets = self.offsets
            rids = self._rids = np.arange(len(self), dtype=np.int64).repeat(
                offsets[1:] - offsets[:-1]
            )
        return rids

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, bags: "BagsLike") -> "Bags":
        """``bags`` as a :class:`Bags`: itself when it is one, else the
        flattening of a sequence of per-result id arrays (each reshaped
        flat, each held to :func:`as_ids`)."""
        if type(bags) is cls:
            return bags
        parts = [as_ids(bag) for bag in bags]
        ids = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return cls(ids, _offsets_of([part.size for part in parts]))

    @classmethod
    def uniform(cls, ids: np.ndarray, n: int) -> "Bags":
        """Flat ``ids`` cut into ``n`` bags of equal length."""
        length = ids.size // n if n else 0
        if n * length != ids.size:
            raise ValueError(f"{ids.size} ids do not make {n} equal bags")
        return cls(ids, *_uniform_layout(n, length))

    @classmethod
    def concat(cls, parts: Sequence) -> "Bags":
        """One batch out of several, bags in order: part ``k`` holds
        bags ``[sum(len(p) for p in parts[:k]), ... + len(parts[k]))``.
        A single part passes through untouched."""
        parts = [cls.of(part) for part in parts]
        if len(parts) < 2:
            return parts[0] if parts else cls.of(())
        offsets = [parts[0].offsets]
        base = parts[0].ids.size
        nonempty = parts[0].starts is not None
        for part in parts[1:]:
            offsets.append(part.offsets[1:] + base)
            base += part.ids.size
            if part.starts is None:
                nonempty = False
        offsets = np.concatenate(offsets)
        return cls(
            np.concatenate([part.ids for part in parts]),
            offsets,
            starts=offsets[:-1] if nonempty else None,
        )

    def select(self, keep: np.ndarray) -> "Bags":
        """The same bags holding only the ids at ``keep`` — a boolean
        mask or ascending positions — possibly leaving some empty."""
        rids = self.rids[keep]
        counts = np.bincount(rids, minlength=len(self))
        return Bags(self.ids[keep], _offsets_of(counts), rids)

    # ------------------------------------------------------------------
    # The sequence of per-result arrays
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        ids = self.ids
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield ids[lo:hi]

    def __getitem__(self, index):
        offsets = self.offsets
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise IndexError("Bags slices are contiguous")
            hi = max(lo, hi)
            base = offsets[lo]
            return Bags(self.ids[base : offsets[hi]], offsets[lo : hi + 1] - base)
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"bag {index} of {n}")
        index %= n
        return self.ids[offsets[index] : offsets[index + 1]]

    def __repr__(self) -> str:
        return f"Bags({len(self)} bags, {self.ids.size} ids)"


# What the public entry points take: a Bags, or anything Bags.of flattens.
BagsLike = Union[Bags, Sequence[np.ndarray]]
