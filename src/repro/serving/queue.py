"""Admission-bounded, model-fair request queue with QoS lanes.

Requests wait in per-model FIFO lanes.  The scheduler drains one lane at
a time (so same-model requests coalesce into one batched SLS op) but the
lanes rotate round-robin, the host-side analogue of the NDP engine's
step-3a round-robin page feed: no model's traffic can starve another's.

Admission counts every live request — queued *and* dispatched — against
``max_inflight`` (the :class:`~repro.serving.server.ServingConfig`
``max_inflight_requests`` knob); :meth:`release` frees a slot when a
request completes.  Arrivals beyond the limit are rejected rather than
buffered without bound, keeping tail latency finite under overload.

An optional :class:`~repro.serving.admission.AdmissionConfig` layers
three QoS policies on top (all default-off, so the seed behaviour is
unchanged):

* **per-model quotas** — a lane whose live count reached its quota
  rejects further arrivals (reason ``quota``) even while global slots
  remain, bounding how much of the server one tenant can occupy;
* **priority lanes** — lanes belong to priority classes; the scheduler
  serves the highest class with queued work and round-robins only
  *within* a class, so latency-critical models cut ahead of batch ones;
* **deadline-aware early drop** — :meth:`pop_batch` hands each request
  to an ``on_expired`` filter before batching it, letting the server
  shed already-doomed requests at dispatch time instead of wasting
  device time on them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..params import PosCount, checked
from .admission import REASON_CAPACITY, REASON_QUOTA, AdmissionConfig
from .request import InferenceRequest

__all__ = ["RequestQueue"]


class RequestQueue:
    """Bounded multi-lane FIFO: round-robin within a priority class,
    strict precedence across classes."""

    @checked
    def __init__(
        self, max_inflight: PosCount, admission: Optional[AdmissionConfig] = None
    ):
        self.max_inflight = max_inflight
        self.admission = admission or AdmissionConfig()
        self.inflight = 0          # admitted and not yet released
        self.inflight_by_model: Dict[str, int] = {}
        self._lanes: Dict[str, Deque[InferenceRequest]] = {}
        # priority class -> lanes with queued work, RR order.  With no
        # configured priorities everything lives in class 0 and the
        # behaviour is exactly the seed's single rotation.
        self._rotations: Dict[int, Deque[str]] = {}
        # The same rotations, highest class first: sorted when a class
        # first appears instead of on every scan.
        self._by_priority: List[Deque[str]] = []

    # ------------------------------------------------------------------
    def offer(self, request: InferenceRequest) -> bool:
        """Admit ``request`` if an in-flight slot (and its lane's quota)
        is free; ``False`` rejects, with ``request.drop_reason`` naming
        which limit fired."""
        if self.inflight >= self.max_inflight:
            request.drop_reason = REASON_CAPACITY
            return False
        quota = self.admission.quota_for(request.model)
        if (
            quota is not None
            and self.inflight_by_model.get(request.model, 0) >= quota
        ):
            request.drop_reason = REASON_QUOTA
            return False
        self.inflight += 1
        self.inflight_by_model[request.model] = (
            self.inflight_by_model.get(request.model, 0) + 1
        )
        lane = self._lanes.get(request.model)
        if lane is None:
            lane = self._lanes[request.model] = deque()
        if not lane:
            self._rotation_for(request.model).append(request.model)
        lane.append(request)
        return True

    def _rotation_for(self, model: str) -> Deque[str]:
        priority = self.admission.priority_for(model)
        rotations = self._rotations
        rotation = rotations.get(priority)
        if rotation is None:
            rotation = rotations[priority] = deque()
            self._by_priority = list(map(rotations.get, sorted(rotations, reverse=True)))
        return rotation

    # ------------------------------------------------------------------
    def next_model(
        self, ready: Optional[Callable[[str], bool]] = None
    ) -> Optional[str]:
        """The next lane with queued work that ``ready`` accepts.

        Priority classes are scanned highest first; within a class the
        scan is round-robin.  The returned lane keeps its rotation
        position until popped; lanes whose ``ready`` check fails (e.g.
        no free worker) are skipped this round without losing their turn.
        """
        for rotation in self._by_priority:
            for i in range(len(rotation)):
                model = rotation[i]
                if ready is None or ready(model):
                    return model
        return None

    def pop_batch(
        self,
        model: str,
        limit: int,
        on_expired: Optional[Callable[[InferenceRequest], bool]] = None,
    ) -> List[InferenceRequest]:
        """Dequeue up to ``limit`` requests from ``model``'s lane (FIFO).

        ``on_expired`` (when given) inspects each candidate first; a
        ``True`` return means the callback consumed the request (the
        server dropped it and released its slot) and it is excluded from
        the batch — deadline-aware early drop happens here, at the last
        moment before device time would be spent.

        Rotates the lane to the back of its priority class's round-robin
        order; drops it from the rotation when emptied.
        """
        lane = self._lanes.get(model)
        if not lane:
            return []
        out: List[InferenceRequest] = []
        while lane and len(out) < limit:
            request = lane.popleft()
            if on_expired is not None and on_expired(request):
                continue
            out.append(request)
        rotation = self._rotation_for(model)
        try:
            rotation.remove(model)
        except ValueError:
            pass
        if lane:
            rotation.append(model)
        return out

    def remove(self, request: InferenceRequest) -> bool:
        """Remove one *queued* request from its lane (timeout/hedge
        cancellation).

        The request stays admitted — as with :meth:`drain_queued`, the
        caller owns the terminal transition and the :meth:`release`.
        Returns ``False`` when the request is not queued here (already
        popped for dispatch, or never offered).
        """
        lane = self._lanes.get(request.model)
        if not lane:
            return False
        try:
            lane.remove(request)
        except ValueError:
            return False
        if not lane:
            rotation = self._rotation_for(request.model)
            try:
                rotation.remove(request.model)
            except ValueError:
                pass
        return True

    def drain_queued(self) -> List[InferenceRequest]:
        """Remove and return every queued (undispatched) request, lane by
        lane in lane-creation order (deterministic).

        The requests stay admitted — the caller owns their terminal
        transition (drop + :meth:`release` per request), the way
        :meth:`~repro.serving.server.InferenceServer.shed_queued` sheds a
        failed cluster host's backlog.  Lanes and rotations end empty.
        """
        out: List[InferenceRequest] = []
        for lane in self._lanes.values():
            out.extend(lane)
            lane.clear()
        for rotation in self._rotations.values():
            rotation.clear()
        return out

    def release(self, model: Optional[str] = None) -> None:
        """Return one admission slot (a request completed or was dropped).

        ``model`` keeps the per-lane quota accounting exact; the server
        always passes it.  The bare form is kept for direct queue users
        *without* quotas — with quotas configured it would silently
        leave the lane's live count inflated (permanently starving it),
        so it raises instead.
        """
        if self.inflight <= 0:
            raise RuntimeError("release without a matching offer")
        if model is None:
            if self.admission.quota_by_model:
                raise RuntimeError(
                    "release() needs the request's model when per-model "
                    "quotas are configured"
                )
            self.inflight -= 1
            return
        live = self.inflight_by_model.get(model, 0)
        if live <= 0:
            raise RuntimeError(f"release for idle model {model!r}")
        self.inflight -= 1
        self.inflight_by_model[model] = live - 1

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def __len__(self) -> int:
        return self.queued

    def __repr__(self) -> str:
        lanes = {m: len(q) for m, q in self._lanes.items() if q}
        return f"RequestQueue(inflight={self.inflight}, queued={lanes})"
