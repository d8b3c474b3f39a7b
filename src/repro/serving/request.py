"""Inference requests as the serving layer sees them.

One :class:`InferenceRequest` is one user-facing unit of work: a model
name plus a :class:`~repro.models.base.Batch` (dense inputs + per-table
lookup bags).  The serving layer stamps its lifecycle times so the stats
can split total latency into queueing delay, embedding-stage time and
dense-stage time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..models.base import Batch

__all__ = ["RequestState", "InferenceRequest"]


class RequestState(Enum):
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    COMPLETE = "complete"
    REJECTED = "rejected"   # refused at submit (capacity/quota/deadline)
    DROPPED = "dropped"     # admitted, then shed before dispatch (QoS)


# eq=False: a live request is identified by identity, not field values —
# queue removal (timeout/hedge cancellation) must never match a
# different-but-equal request, and field comparison through the
# numpy-backed Batch is ill-defined anyway.
@dataclass(slots=True, eq=False)
class InferenceRequest:
    """One in-flight inference request.

    ``values`` holds the per-table SLS result rows belonging to this
    request (scattered back out of the coalesced batch); ``output`` holds
    the model's scores when the server computes outputs.

    QoS fields: ``deadline`` is an *absolute* simulated time by which the
    request must complete to count toward goodput (``inf`` means no SLO);
    ``priority`` mirrors the lane priority the admission config assigned
    at submit; ``drop_reason`` names why a REJECTED/DROPPED request was
    shed (see :mod:`repro.serving.admission`).
    """

    model: str
    batch: Batch
    request_id: int = -1
    state: RequestState = RequestState.QUEUED
    t_arrival: float = 0.0
    t_dispatch: float = -1.0
    t_emb_done: float = -1.0
    # When the dense-stage job claimed an NN worker (== t_emb_done with
    # an idle/unbounded pool; later when dense workers are contended).
    t_dense_start: float = -1.0
    t_done: float = -1.0
    # When a DROPPED request was shed (deadline drop, timeout cancel,
    # host shed) — its queue-wait ends here, and it never had a service
    # phase, so drops stay out of the service-time histograms.
    t_drop: float = -1.0
    deadline: float = float("inf")
    priority: int = 0
    drop_reason: Optional[str] = None
    # Originating user (copied from the batch; None = anonymous) — the
    # key locality-aware cluster routers hash on.
    user_id: Optional[int] = None
    # Graceful-degradation quality accounting: a completed request whose
    # batch lost lookups to a down shard/device is ``degraded`` with
    # ``missing_bags`` counting its (bag, table) pairs served partially.
    degraded: bool = False
    missing_bags: int = 0
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    output: Optional[np.ndarray] = None
    on_done: Optional[Callable[["InferenceRequest"], None]] = None
    obs_batch: Any = None  # the tracer's span of the batch it was dispatched in

    @property
    def latency(self) -> float:
        """Arrival-to-completion time in simulated seconds."""
        return self.t_done - self.t_arrival

    @property
    def queue_delay(self) -> float:
        """Time spent waiting in the request queue before dispatch."""
        return self.t_dispatch - self.t_arrival

    @property
    def drop_wait(self) -> float:
        """Arrival-to-shed time for a dropped request (0.0 if unknown)."""
        if self.t_drop < 0:
            return 0.0
        return self.t_drop - self.t_arrival

    @property
    def dense_wait(self) -> float:
        """Time spent waiting for a dense NN worker (0.0 when unknown)."""
        if self.t_dense_start < 0 or self.t_emb_done < 0:
            return 0.0
        return self.t_dense_start - self.t_emb_done

    @property
    def done(self) -> bool:
        return self.state in (
            RequestState.COMPLETE,
            RequestState.REJECTED,
            RequestState.DROPPED,
        )

    @property
    def within_deadline(self) -> bool:
        """Completed in time (vacuously true without an SLO deadline)."""
        return self.state is RequestState.COMPLETE and self.t_done <= self.deadline

    def __repr__(self) -> str:
        return (
            f"InferenceRequest(#{self.request_id}, model={self.model}, "
            f"state={self.state.value})"
        )
