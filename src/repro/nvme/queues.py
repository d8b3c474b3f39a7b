"""NVMe submission/completion queue pairs with doorbell and pickup callbacks."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..params import Count, PosCount, checked
from .commands import NvmeCommand, NvmeCompletion

__all__ = ["SubmissionQueue", "CompletionQueue", "QueuePair", "QueueFullError"]


class QueueFullError(RuntimeError):
    pass


class SubmissionQueue:
    """Bounded ring written by the host, drained by the controller."""

    def __init__(self, qid: int, depth: int):
        self.qid = qid
        self.depth = depth
        self._ring: Deque[NvmeCommand] = deque()
        self._doorbell: Optional[Callable[[int], None]] = None
        self.submitted = 0

    def set_doorbell(self, callback: Callable[[int], None]) -> None:
        self._doorbell = callback

    def push(self, cmd: NvmeCommand) -> None:
        if len(self._ring) >= self.depth:
            raise QueueFullError(f"SQ{self.qid} full (depth {self.depth})")
        self._ring.append(cmd)
        self.submitted += 1
        if self._doorbell is not None:
            self._doorbell(self.qid)

    def pop(self) -> Optional[NvmeCommand]:
        return self._ring.popleft() if self._ring else None

    def __len__(self) -> int:
        return len(self._ring)


class CompletionQueue:
    """Written by the controller, drained by the host driver's pickup.

    The polling driver registers its pickup with :meth:`set_pickup`: a
    handler and the host time between an entry landing and the handler
    running (its completion-handling cost).  The controller schedules
    the pickup when it sends the entry, so landing and pickup are one
    event, at ``landing + pickup_s``; :meth:`post` runs then and hands
    the entry straight to the handler.
    """

    def __init__(self, qid: int, depth: int):
        self.qid = qid
        self.depth = depth
        self._pickup: Optional[Callable[[NvmeCompletion], None]] = None
        self.pickup_s = 0.0
        self.completed = 0

    def set_pickup(self, deliver: Callable[[NvmeCompletion], None], pickup_s: float) -> None:
        """``deliver(cpl)`` runs ``pickup_s`` after each entry lands (the
        driver noticing the phase-bit flip on its next poll and handling
        the entry)."""
        self._pickup = deliver
        self.pickup_s = pickup_s

    def post(self, cpl: NvmeCompletion) -> None:
        if self._pickup is None:
            raise RuntimeError(f"CQ{self.qid} has no pickup registered")
        self.completed += 1
        self._pickup(cpl)


class QueuePair:
    """One SQ/CQ pair; NVMe IO queues map 1:1 in this model."""

    @checked
    def __init__(self, qid: Count, depth: PosCount):
        self.qid = qid
        self.depth = depth
        self.sq = SubmissionQueue(qid, depth)
        self.cq = CompletionQueue(qid, depth)
        self.outstanding = 0

    @property
    def can_submit(self) -> bool:
        # A ring never holds more commands than are outstanding, so the
        # ring is below depth whenever this is.
        return self.outstanding < self.depth
