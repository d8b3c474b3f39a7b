"""A sim-time periodic sampler over the counters objects already keep.

A counter in this repo is an attribute on the object that owns it
(``ServingStats.completed``, ``ftl.gc.runs``, ``flash.page_reads``):
bumped with ``+= 1`` where the thing happens, cleared by that object's
``reset_stats()`` (:mod:`repro.sim.resettable`), read by name.  There is
no instrument class between the bump and the attribute — an ``inc()``
call per bump is host time on the hot paths and buys nothing a probe
cannot read.

The :class:`PeriodicSampler` turns live gauges into *time series*: every
``period_s`` simulated seconds it calls a probe callable, which returns a
``{name: value}`` mapping, and appends ``(t, mapping)`` to
``sampler.samples``.  Unlike the tracer, the sampler DOES schedule
simulator events (one per tick), so it is strictly opt-in: nothing
creates or starts one implicitly, goldens never run with one active, and
``stop()`` cancels the pending tick so ``run_until``-style settle loops
cannot be wedged by an immortal heartbeat.  The probe must be read-only —
it observes queue depths / inflight / hit rates, never mutates them.

:func:`serving_probe` builds the standard probe for an
:class:`~repro.serving.server.InferenceServer` (queue depth, inflight,
cache hit rate, GC pressure, per-lane goodput); any zero-argument
callable returning a mapping works.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..params import Pos, PosCount, checked

__all__ = ["PeriodicSampler", "serving_probe"]


class PeriodicSampler:
    """Snapshot a probe mapping into a time series every ``period_s``.

    Explicit lifecycle: :meth:`start` schedules the first tick,
    :meth:`stop` cancels the pending one.  Each sample is
    ``(t, dict(probe()))``.  ``max_samples`` bounds memory (and run
    length) for open-ended scenarios; the sampler stops itself when the
    bound is reached.
    """

    @checked
    def __init__(
        self,
        sim,
        probe: Callable[[], Mapping[str, float]],
        period_s: Pos,
        max_samples: Optional[PosCount] = None,
    ):
        self.sim = sim
        self.probe = probe
        self.period_s = period_s
        self.max_samples = max_samples
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> "PeriodicSampler":
        if self._handle is None:
            self._handle = self.sim.schedule(self.period_s, self._tick)
        return self

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        self.samples.append((self.sim.now, dict(self.probe())))
        if self.max_samples is not None and len(self.samples) >= self.max_samples:
            return
        self._handle = self.sim.schedule(self.period_s, self._tick)

    def series(self, name: str) -> List[Tuple[float, float]]:
        """The ``(t, value)`` time series of one probed key."""
        return [(t, row[name]) for t, row in self.samples if name in row]

    def reset_stats(self) -> None:
        self.samples.clear()

    def __repr__(self) -> str:
        return (
            f"PeriodicSampler(period={self.period_s}, "
            f"samples={len(self.samples)}, running={self.running})"
        )


def serving_probe(server) -> Callable[[], Dict[str, float]]:
    """The standard read-only probe for an ``InferenceServer``: queue
    depth, inflight, cumulative cache hit rate, GC pressure and per-lane
    goodput — the live shape of a diurnal/burst scenario."""

    def probe() -> Dict[str, float]:
        stats = server.stats
        out: Dict[str, float] = {
            "queue_depth": float(server.queue.queued),
            "inflight": float(stats.inflight),
            "submitted": float(stats.submitted),
            "completed": float(stats.completed),
            "dropped": float(stats.dropped),
            "rejected": float(stats.rejected),
            "cache_hit_rate": stats.cache_hit_rate(),
        }
        device = getattr(server.system, "device", None)
        ftl = getattr(device, "ftl", None)
        if ftl is not None:
            out["gc_runs"] = float(ftl.gc.runs)
            out["gc_pages_moved"] = float(ftl.gc.pages_moved)
            out["ftl_page_reads"] = float(ftl.host_page_reads)
            out["ftl_page_writes"] = float(ftl.host_page_writes)
        for lane, goodput in getattr(stats, "goodput_by_model", {}).items():
            out[f"goodput[{lane}]"] = float(goodput)
        return out

    return probe
