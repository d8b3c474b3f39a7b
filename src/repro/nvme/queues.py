"""NVMe submission/completion queue pairs with doorbell callbacks."""

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
    """Bounded ring written by the controller, polled by the host driver."""

    def __init__(self, qid: int, depth: int):
        self.qid = qid
        self.depth = depth
        self._ring: Deque[NvmeCompletion] = deque()
        self._on_post: Optional[Callable[[int], None]] = None
        self.completed = 0

    def set_notify(self, callback: Callable[[int], None]) -> None:
        """Notify hook used by the polling driver model (stands in for the
        host noticing a phase-bit flip on its next poll)."""
        self._on_post = callback

    def post(self, cpl: NvmeCompletion) -> None:
        self._ring.append(cpl)
        self.completed += 1
        if self._on_post is not None:
            self._on_post(self.qid)

    def poll(self) -> Optional[NvmeCompletion]:
        return self._ring.popleft() if self._ring else None

    def __len__(self) -> int:
        return len(self._ring)


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
        return self.outstanding < self.depth and len(self.sq._ring) < self.depth
