"""Declarative fault schedules: what breaks, where, and when.

RecSSD's latency story assumes every SSD and NDP engine is healthy; at
fleet scale the tail is dominated by the *unhealthy* minority — the
fail-slow drive whose reads take 10x, the die whose pages stop
correcting, the NDP engine that wedges.  A :class:`FaultSpec` is a
schedule of :class:`FaultEvent` entries, set as
:class:`~repro.workload.scenario.ScenarioSpec` ``faults`` — the one
schedule of every run, a single host or the fleet a
:class:`~repro.cluster.scenario.ClusterSpec` wraps the scenario in; the
:class:`~repro.faults.injector.FaultInjector` arms the schedule on the
sim kernel and applies each event at its simulated time.

Fault kinds (``FaultEvent.kind``):

========================  ====================================================
``fail_slow``             Multiply one SSD's flash service times (read,
                          program, erase, command, and 1/bandwidth) by
                          ``factor``.  Models a degraded die / thermal
                          throttle / firmware pathology: the device still
                          answers, just slowly — the classic tail killer.
``restore_speed``         Undo ``fail_slow``: restore the original timing.
``read_errors``           Swap in a :class:`~repro.flash.reliability.ReadRetryModel`
                          that fails a ``fraction`` of page reads past the
                          retry budget (:class:`UncorrectableError`); the
                          affected rows contribute zeros and are counted as
                          ``uncorrectable_rows`` / ``uncorrectable_pages``.
``clear_read_errors``     Restore the device's original reliability model.
``ndp_crash``             Mark one SSD's NDP engine down; the NDP backend
                          falls back to the host-orchestrated SLS read path
                          (``ndp_fallbacks`` accounting).
``ndp_restore``           Bring the NDP engine back.
``device_down``           Fail-stop one SSD: backends over its tables become
                          unavailable and sharded stages degrade (partial
                          sums, ``missing_bags`` accounting).
``device_up``             Bring the SSD back.
``host_fail``             Cluster only: fail-stop a host (shed queued work,
                          exactly once).
``host_drain``            Cluster only: drain a host gracefully (no new
                          routes; admitted work completes).
``host_restore``          Cluster only: return a host to the rotation.
========================  ====================================================

Device-scoped kinds address ``(host, device)``: ``host`` names a cluster
node (must be ``None`` for single-host scenarios) and ``device`` indexes
into that host's ``System.devices``.  Host-scoped kinds are only valid
in a cluster context, and the injector is the one scheduler of host
lifecycle.  All events are deterministic: timing swaps are
pure arithmetic and ``read_errors`` draws from its own seeded stream, so
fixed-seed faulty runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Optional, Tuple

from ..params import Count, Domain, Fraction, Pos, check_domains

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultSpec"]

FAULT_KINDS = (
    "fail_slow",
    "restore_speed",
    "read_errors",
    "clear_read_errors",
    "ndp_crash",
    "ndp_restore",
    "device_down",
    "device_up",
    "host_fail",
    "host_drain",
    "host_restore",
)

_HOST_KINDS = ("host_fail", "host_drain", "host_restore")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or repair) at simulated time ``t``."""

    t: Annotated[float, Domain(0.0, text="a finite time >= 0")]
    kind: str
    host: Optional[str] = None
    device: Count = 0
    factor: Pos = 10.0
    fraction: Fraction = 0.01
    seed: Count = 0

    def __post_init__(self) -> None:
        check_domains(self)
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (have {FAULT_KINDS})"
            )
        if self.kind == "fail_slow" and not self.factor > 1.0:
            raise ValueError("fail_slow factor must be > 1")
        if self.kind == "read_errors" and not (0.0 < self.fraction < 1.0):
            # Upper bound matches ReliabilityConfig's: p == 1.0 would
            # mean no read ever completes.
            raise ValueError("read_errors fraction must be in (0, 1)")
        if self.kind in _HOST_KINDS and self.host is None:
            raise ValueError(f"{self.kind} requires a host name")

    @property
    def host_scoped(self) -> bool:
        return self.kind in _HOST_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """An ordered schedule of :class:`FaultEvent` entries."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(event)!r}")

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def hosts(self) -> Tuple[str, ...]:
        """Host names referenced by any event (for spec validation)."""
        return tuple(
            sorted({e.host for e in self.events if e.host is not None})
        )
