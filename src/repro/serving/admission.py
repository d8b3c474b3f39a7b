"""QoS admission control: deadlines, quotas and priority lanes.

The seed serving layer sheds load one way: reject at the in-flight
limit.  Production recommendation tiers are SLO-centric (MicroRec's
tail-latency-goodput framing): a request that will blow its deadline is
worth *dropping early* so the device time it would have wasted serves a
request that can still make it, some tenants deserve a bounded share of
the admission slots, and latency-critical traffic should cut ahead of
batch traffic.  :class:`AdmissionConfig` declares those three policies;
:class:`~repro.serving.queue.RequestQueue`,
:class:`~repro.serving.scheduler.BatchScheduler` and
:class:`~repro.serving.server.InferenceServer` enforce them.

Terminal accounting (see :class:`~repro.serving.stats.ServingStats`):

* **rejected** — refused at submit (``capacity`` at the global in-flight
  limit, ``quota`` at a per-model quota, ``deadline`` when the request
  arrives already expired).
* **dropped** — admitted but shed before dispatch because its deadline
  passed while queued (reason ``deadline``).
* **goodput** — completed *within* its deadline; a late completion
  counts as completed but not as goodput.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional

from ..params import Int, NonNeg, Pos, PosCount, check_domains

__all__ = [
    "AdmissionConfig",
    "REASON_CAPACITY",
    "REASON_QUOTA",
    "REASON_DEADLINE",
]

# Canonical reject/drop reason strings (keys of ServingStats.*_by_reason).
REASON_CAPACITY = "capacity"
REASON_QUOTA = "quota"
REASON_DEADLINE = "deadline"


@dataclass(frozen=True)
class AdmissionConfig:
    """Declarative QoS policy for one :class:`InferenceServer`.

    ``slo_by_model`` maps model names to *relative* deadlines in
    simulated seconds: a submitted request without an explicit absolute
    deadline is stamped ``now + slo``.  ``deadline_drop`` enables early
    shedding: at dispatch time, queued requests whose deadline has
    already passed (plus ``drop_headroom_s``, an estimate of the
    unavoidable service time ahead of them) are dropped instead of
    dispatched.  ``quota_by_model`` caps each model's admitted-and-live
    requests (queued + dispatched) below the global in-flight limit.
    ``priority_by_model`` assigns lanes to priority classes: the
    scheduler serves the highest-priority class with queued work first
    and round-robins *within* a class, so equal-priority models keep the
    seed's fairness while latency-critical tenants cut ahead.
    """

    deadline_drop: bool = False
    drop_headroom_s: NonNeg = 0.0
    slo_by_model: Mapping[str, Pos] = field(default_factory=dict)
    quota_by_model: Mapping[str, PosCount] = field(default_factory=dict)
    priority_by_model: Mapping[str, Int] = field(default_factory=dict)

    __post_init__ = check_domains

    # ------------------------------------------------------------------
    def slo_for(self, model: str) -> Optional[float]:
        return self.slo_by_model.get(model)

    def quota_for(self, model: str) -> Optional[int]:
        return self.quota_by_model.get(model)

    def priority_for(self, model: str) -> int:
        return self.priority_by_model.get(model, 0)

    @property
    def any_deadlines(self) -> bool:
        return self.deadline_drop or bool(self.slo_by_model)

    def describe(self) -> Dict[str, object]:
        """Compact knob dump for experiment/benchmark report rows."""
        return asdict(self)
