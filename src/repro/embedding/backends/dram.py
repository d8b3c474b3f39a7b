"""DRAM SLS backend: the Caffe2 SparseLengthsSum baseline."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ...sim.stats import Breakdown
from .base import SlsBackend, SlsOpResult, flatten_bags

__all__ = ["DramSlsBackend"]


class DramSlsBackend(SlsBackend):
    """Tables resident in host DRAM; latency from the host cost model."""

    def _start(self, bags: Sequence[np.ndarray], on_done: Callable[[SlsOpResult], None]) -> None:
        sim = self.system.sim
        start = sim.now
        rows, _rids = flatten_bags(bags)
        values = self.table.ref_sls(bags)
        latency = self.system.host_cpu.dram_sls_time(
            n_lookups=int(rows.size), row_bytes=self.table.spec.row_bytes
        )
        breakdown = Breakdown({"host_gather": latency})
        stats = {"lookups": float(rows.size)}

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
