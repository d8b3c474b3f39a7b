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

from dataclasses import dataclass
from typing import Dict, Optional

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

    latency_threshold_s: float
    ewma_alpha: float = 0.2
    min_samples: int = 8
    probe_after_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.latency_threshold_s > 0:
            raise ValueError("latency_threshold_s must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not self.probe_after_s > 0:
            raise ValueError("probe_after_s must be positive")


@dataclass(frozen=True)
class ToleranceConfig:
    """Fleet tail-tolerance knobs; ``None``/0 disables each mechanism."""

    timeout_s: Optional[float] = None
    max_retries: int = 0
    backoff_s: float = 0.0
    hedge_after_s: Optional[float] = None
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.backoff_s >= 0:
            raise ValueError("backoff_s must be >= 0")
        if self.hedge_after_s is not None and not self.hedge_after_s > 0:
            raise ValueError("hedge_after_s must be positive")

    def describe(self) -> Dict[str, object]:
        return {
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "hedge_after_s": self.hedge_after_s,
            "breaker": (
                None
                if self.breaker is None
                else {
                    "latency_threshold_s": self.breaker.latency_threshold_s,
                    "ewma_alpha": self.breaker.ewma_alpha,
                    "min_samples": self.breaker.min_samples,
                    "probe_after_s": self.breaker.probe_after_s,
                }
            ),
        }


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
