"""Tail-tolerance policy: timeouts, retries, hedging, circuit breaking.

The flip side of :mod:`repro.faults.injector`: injection makes the tail
bad, tolerance keeps the *fleet's* tail good anyway.  The policy knobs
live in :class:`ToleranceConfig` (attached to a
:class:`~repro.cluster.scenario.ClusterSpec`); the mechanism lives in
:class:`~repro.cluster.cluster.Cluster`, which when configured wraps
each logical request in a retry/hedge state machine:

* **timeout** (``timeout_s``) — an attempt that has not completed after
  ``timeout_s`` is cancelled if still queued (then retried elsewhere) or,
  if already on the devices, backed up by a *hedged retry* on another
  replica (first completion wins).
* **retry** (``max_retries``, ``backoff_s``) — retryable failures
  (capacity/quota rejects, ``host_down`` drops, timeouts — never
  deadline expiries) are re-submitted to an alternate routable replica
  after exponential backoff ``backoff_s * 2**(attempt-1)``.
* **hedge** (``hedge_after_s``) — a second copy of the request is
  dispatched proactively after ``hedge_after_s``; the first completion
  wins and the loser is cancelled if still queued
  (``hedges_won/hedges_lost`` accounting).
* **circuit breaker** (``breaker``) — :class:`HealthTracker` keeps a
  per-host EWMA of completion latency; a host whose EWMA crosses
  ``latency_threshold_s`` (with ``min_samples`` confidence) is *ejected*
  from routing (OPEN), then probed back in after ``probe_after_s``
  (HALF_OPEN): one healthy completion closes the breaker, an unhealthy
  one re-ejects.  The last routable host is never ejected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Annotated, Dict, Optional

from ..params import Count, Domain, NonNeg, Pos, PosCount, check_domains

__all__ = [
    "REASON_TIMEOUT",
    "REASON_HEDGE",
    "BreakerConfig",
    "ToleranceConfig",
    "HealthTracker",
]

# Drop reasons introduced by the tolerance layer (ServingStats
# drops_by_reason keys, alongside admission's capacity/quota/deadline).
REASON_TIMEOUT = "timeout"
REASON_HEDGE = "hedge_cancelled"


@dataclass(frozen=True)
class BreakerConfig:
    """Per-host circuit breaker on completion-latency EWMA."""

    latency_threshold_s: Pos
    ewma_alpha: Annotated[float, Domain(0.0, 1.0, lo_open=True)] = 0.2
    min_samples: PosCount = 8
    probe_after_s: Pos = 0.05

    __post_init__ = check_domains


@dataclass(frozen=True)
class ToleranceConfig:
    """Fleet tail-tolerance knobs; ``None``/0 disables each mechanism."""

    timeout_s: Optional[Pos] = None
    max_retries: Count = 0
    backoff_s: NonNeg = 0.0
    hedge_after_s: Optional[Pos] = None
    breaker: Optional[BreakerConfig] = None

    __post_init__ = check_domains

    def describe(self) -> Dict[str, object]:
        return asdict(self)


_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half_open"


class HealthTracker:
    """EWMA latency health per host, driving breaker ejections.

    ``observe`` feeds completion latencies; ``on_timeout`` feeds a
    penalty sample (2x the threshold) so a host that stops completing
    still trips the breaker.  Ejection flips the node's ``ejected`` flag
    (folded into ``routable``); a probe is scheduled on the *sim* clock
    so fixed-seed runs stay deterministic.
    """

    def __init__(self, sim, nodes, config: BreakerConfig, stats=None):
        self.sim = sim
        self.config = config
        self.stats = stats
        self._nodes = {node.name: node for node in nodes}
        self._ewma: Dict[str, float] = {}
        self._count: Dict[str, int] = {}
        self._state: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def observe(self, host: str, latency_s: float) -> None:
        alpha = self.config.ewma_alpha
        prev = self._ewma.get(host)
        ewma = (
            latency_s
            if prev is None
            else alpha * latency_s + (1.0 - alpha) * prev
        )
        self._ewma[host] = ewma
        self._count[host] = self._count.get(host, 0) + 1
        state = self._state.get(host, _CLOSED)
        if state == _HALF_OPEN:
            # One probe completion decides: healthy closes, slow re-opens.
            if latency_s <= self.config.latency_threshold_s:
                self._state[host] = _CLOSED
                if self.stats is not None:
                    self.stats.breaker_restores += 1
            else:
                self._eject(host)
        elif state == _CLOSED:
            if (
                self._count[host] >= self.config.min_samples
                and ewma > self.config.latency_threshold_s
            ):
                self._eject(host)

    def on_timeout(self, host: str) -> None:
        """A timed-out attempt is evidence too: feed a penalty sample."""
        self.observe(host, 2.0 * self.config.latency_threshold_s)

    # ------------------------------------------------------------------
    def _eject(self, host: str) -> None:
        node = self._nodes[host]
        others = sum(
            1
            for n in self._nodes.values()
            if n is not node and n.routable
        )
        if others == 0:
            # Never eject the last routable host: a slow answer beats
            # no answer, and the probe cycle would deadlock routing.
            self._state[host] = _CLOSED
            return
        node.ejected = True
        self._state[host] = _OPEN
        if self.stats is not None:
            self.stats.breaker_ejections += 1
        self.sim.schedule(
            self.config.probe_after_s, lambda: self._probe(host)
        )

    def _probe(self, host: str) -> None:
        if self._state.get(host) != _OPEN:
            return
        node = self._nodes[host]
        node.ejected = False
        self._state[host] = _HALF_OPEN
        # Fresh window: the half-open verdict hangs on what the host
        # does *now*, not on the history that ejected it.
        self._ewma.pop(host, None)
        self._count[host] = 0
        if self.stats is not None:
            self.stats.breaker_probes += 1

    def state_of(self, host: str) -> str:
        return self._state.get(host, _CLOSED)
