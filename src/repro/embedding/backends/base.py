"""SLS backend interface.

A backend executes one SparseLengthsSum operation for one table over a
batch of per-result bags, returning the accumulated vectors plus the
simulated latency and a component breakdown.  Backends are asynchronous
(the pipeline and multi-table stages overlap them); ``run_sync`` drives
the simulator for one-off use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ...core.bags import Bags, BagsLike
from ...host.system import System
from ...sim.stats import Breakdown
from ..table import EmbeddingTable

__all__ = ["SlsOpResult", "SlsBackend", "flatten_bags"]


@dataclass(slots=True)
class SlsOpResult:
    values: np.ndarray
    start_time: float
    end_time: float
    breakdown: Breakdown = field(default_factory=Breakdown)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time


def flatten_bags(bags: BagsLike) -> tuple[np.ndarray, np.ndarray]:
    """Return (rows, result_ids) flattened from per-result bags."""
    bags = Bags.of(bags)
    return bags.ids, bags.rids


class SlsBackend(ABC):
    """One table's SLS executor on a given system.

    Any number of operations may be in flight at once; the backend tracks
    ``inflight``/``max_inflight`` so callers (the serving layer, tests) can
    observe genuine overlap in simulated time.
    """

    def __init__(self, system: System, table: EmbeddingTable):
        self.system = system
        self.table = table
        self.ops = 0
        self.inflight = 0
        self.max_inflight = 0

    def start(self, bags: BagsLike, on_done: Callable[[SlsOpResult], None]) -> None:
        """Begin the operation; ``on_done(result)`` fires at completion.

        The one conversion on this path: ``_start`` and everything below
        it read ``bags.ids`` / ``.offsets`` / ``.rids``.
        """
        bags = Bags.of(bags)
        self.ops += 1
        self.inflight += 1
        if self.inflight > self.max_inflight:
            self.max_inflight = self.inflight

        # Online heat: when a tracker is installed on the table (layout
        # migration enabled), every op's rows feed the histogram here —
        # the one funnel all backend kinds share.  External row ids on
        # purpose: heat is a property of what the model asks for, not of
        # where the layout currently stores it.
        tracker = getattr(self.table, "heat_tracker", None)
        if tracker is not None:
            tracker.record(bags.ids)

        # Observability choke point: every backend kind (dram, ssd, ndp)
        # funnels through here, so one ``sls_op`` span covers them all.
        # The span stays pushed for the synchronous part of ``_start``,
        # parenting any NVMe commands the backend issues inline.
        tracer = self.system.sim.tracer
        op_span = None
        if tracer is not None:
            op_span = tracer.begin(
                "sls_op", backend=type(self).__name__, bags=len(bags)
            )

        def finished(result: SlsOpResult) -> None:
            if op_span is not None:
                tracer.end(op_span)
            self.inflight -= 1
            on_done(result)

        if op_span is not None:
            tracer.push(op_span)
            try:
                self._start(bags, finished)
            finally:
                tracer.pop()
        else:
            self._start(bags, finished)

    @abstractmethod
    def _start(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        """Backend-specific implementation behind :meth:`start`."""

    def _deliver(self, done: tuple) -> None:
        """A ``sim.schedule_call`` target that completes an op now:
        ``done`` is ``(values, start, breakdown, stats, on_done)``."""
        values, start, breakdown, stats, on_done = done
        on_done(SlsOpResult(values, start, self.system.sim.now, breakdown, stats))

    @property
    def available(self) -> bool:
        """False when the backing device is fail-stopped.

        DRAM-backed tables have no device and are always available;
        sharded stages skip unavailable backends and degrade the result
        instead of failing the batch.
        """
        device = getattr(self.table, "device", None)
        return not getattr(device, "down", False)

    def reset_stats(self) -> None:
        """Clear op counters (in-flight gauges keep tracking live ops)."""
        self.ops = 0
        self.max_inflight = self.inflight

    def run_sync(self, bags: BagsLike) -> SlsOpResult:
        box: List[SlsOpResult] = []
        self.start(bags, box.append)
        self.system.sim.run_until(lambda: bool(box))
        return box[0]

    @property
    def name(self) -> str:  # pragma: no cover - cosmetic
        return type(self).__name__
