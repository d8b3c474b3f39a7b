"""Embedded-CPU cost model for the SSD firmware.

The Cosmos+ board runs the FTL on a dual-core 1GHz ARM Cortex-A9.  We
model the two cores the way the RecSSD firmware uses them:

* ``host_core`` — NVMe host-interface work: command fetch, DMA descriptor
  management, completion posting.
* ``ftl_core``  — FTL work proper: mapping, page scheduling, and for
  RecSSD the SLS config processing and translation (vector accumulation).

Both are single-server stations, so firmware work serializes exactly as
it does on the prototype — this contention is what produces the
baseline's ~10K IOPS command-bound random-read ceiling and the
"Translation is roughly half of FTL time" behaviour in Fig 8.
``host_core`` serves its jobs in arrival order, so it is a closed-form
:class:`~repro.sim.resources.Core` whose DMA and CQ-entry jobs hand off
to the device-to-host link in one event; ``ftl_core`` orders flash
scheduling, SLS work and GC moves by priority, so it is a queued
:class:`~repro.sim.resources.Server`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import NonNeg, check_domains
from ..sim.kernel import Simulator
from ..sim.resources import Core, Server
from ..sim.units import us

__all__ = ["FtlCpuCosts", "FtlCpu"]


@dataclass(frozen=True)
class FtlCpuCosts:
    """Firmware path costs in seconds (defaults calibrated to the paper)."""

    # Conventional IO path
    cmd_fetch_s: NonNeg = us(6.0)          # host_core: SQ fetch + parse
    cmd_complete_s: NonNeg = us(5.0)       # host_core: CQ post + doorbell
    dma_setup_s: NonNeg = us(4.0)          # host_core: per data DMA descriptor
    io_miss_s: NonNeg = us(70.0)           # ftl_core: map+schedule+track (flash path)
    io_hit_s: NonNeg = us(16.0)            # ftl_core: page-cache hit fast path
    io_extra_page_s: NonNeg = us(5.0)      # ftl_core: each additional page of a
                                           # multi-page command (map + queue fill)
    write_accept_s: NonNeg = us(25.0)      # ftl_core: write buffering + map update
    gc_page_move_s: NonNeg = us(40.0)      # ftl_core: per valid page migrated

    # RecSSD NDP path (Section 4.1)
    sls_entry_alloc_s: NonNeg = us(15.0)   # allocate + init SLS request entry
    sls_pair_s: NonNeg = us(2.0)           # config processing per (id, result) pair
    sls_page_sched_s: NonNeg = us(3.0)     # feed one page request to scheduler
    sls_translate_fixed_s: NonNeg = us(8.0)  # per returned flash page
    sls_translate_byte_s: NonNeg = 0.03e-6  # per accumulated embedding byte
    sls_cache_hit_vec_s: NonNeg = us(6.0)  # accumulate one vector from emb. cache
    sls_result_page_s: NonNeg = us(8.0)    # stage one result page for host DMA

    __post_init__ = check_domains


class FtlCpu:
    """The two firmware cores."""

    def __init__(self, sim: Simulator, costs: FtlCpuCosts | None = None):
        self.sim = sim
        self.costs = costs or FtlCpuCosts()
        self.host_core = Core(sim, name="arm.host_core")
        self.ftl_core = Server(sim, capacity=1, name="arm.ftl_core")

    @property
    def idle(self) -> bool:
        return self.host_core.idle and self.ftl_core.idle
