"""DRAM SLS backend: the Caffe2 SparseLengthsSum baseline."""

from __future__ import annotations

from typing import Callable

from ...core.bags import Bags
from ...sim.stats import Breakdown
from .base import SlsBackend, SlsOpResult

__all__ = ["DramSlsBackend"]


class DramSlsBackend(SlsBackend):
    """Tables resident in host DRAM; latency from the host cost model."""

    def _start(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        sim = self.system.sim
        start = sim.now
        values = self.table.ref_sls(bags)
        n_lookups = bags.ids.size
        latency = self.system.host_cpu.dram_sls_time(
            n_lookups=n_lookups, row_bytes=self.table.spec.row_bytes
        )
        breakdown = Breakdown({"host_gather": latency})
        stats = {"lookups": float(n_lookups)}

        def finish() -> None:
            on_done(
                SlsOpResult(
                    values=values,
                    start_time=start,
                    end_time=sim.now,
                    breakdown=breakdown,
                    stats=stats,
                )
            )

        sim.schedule(latency, finish)
