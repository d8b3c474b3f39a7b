"""SSD device assembly: flash + FTL + NVMe controller + NDP engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Dict, Optional

from ..core.engine import NdpEngineConfig, NdpSlsEngine
from ..flash.array import FlashArray
from ..flash.geometry import FlashGeometry
from ..flash.reliability import ReliabilityConfig
from ..flash.timing import FlashTiming
from ..ftl.cpu import FtlCpu, FtlCpuCosts
from ..ftl.ftl import FtlConfig, GreedyFtl
from ..nvme.commands import SlbaCodec
from ..nvme.controller import NvmeController
from ..nvme.pcie import PcieConfig, PcieLink
from ..nvme.queues import QueuePair
from ..params import Domain, PosCount, check_domains, checked
from ..sim.kernel import Simulator

__all__ = ["SsdConfig", "SsdDevice"]


@dataclass(frozen=True)
class SsdConfig:
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    ftl: FtlConfig = field(default_factory=FtlConfig)
    cpu_costs: FtlCpuCosts = field(default_factory=FtlCpuCosts)
    pcie: PcieConfig = field(default_factory=PcieConfig)
    ndp: NdpEngineConfig = field(default_factory=NdpEngineConfig)
    # Minimum table size/alignment (Section 4.3's SLBA request-id codec),
    # in LBAs.  Tables are placed at multiples of this; request ids stay
    # far below it, so `slba % alignment` recovers the id.
    slba_alignment_lbas: Annotated[int, Domain(2, integral=True)] = 1 << 14

    __post_init__ = check_domains


class SsdDevice:
    """A complete simulated NVMe SSD with the RecSSD NDP engine installed."""

    def __init__(self, sim: Simulator, config: Optional[SsdConfig] = None):
        self.sim = sim
        self.config = config or SsdConfig()
        self.flash = FlashArray(
            sim, self.config.geometry, self.config.timing, self.config.reliability
        )
        self.cpu = FtlCpu(sim, self.config.cpu_costs)
        self.ftl = GreedyFtl(sim, self.flash, self.cpu, self.config.ftl)
        self.pcie = PcieLink(sim, self.config.pcie)
        self.controller = NvmeController(sim, self.ftl, self.pcie)
        self.codec = SlbaCodec(self.config.slba_alignment_lbas)
        self.ndp = NdpSlsEngine(sim, self.ftl, self.controller, self.codec, self.config.ndp)
        self.controller.ndp_engine = self.ndp
        self._qpairs: Dict[int, QueuePair] = {}
        self._next_table_lba = 0
        # Fault-injection fail-stop flag: a down device's SLS backends
        # report unavailable and sharded stages degrade around it.
        self.down = False

    # ------------------------------------------------------------------
    # Queues
    # ------------------------------------------------------------------
    def create_qpair(self, depth: int = 64) -> QueuePair:
        qid = len(self._qpairs) + 1
        qp = QueuePair(qid, depth)
        self._qpairs[qid] = qp
        self.controller.attach_qpair(qp)
        return qp

    @property
    def qpairs(self) -> Dict[int, QueuePair]:
        return dict(self._qpairs)

    # ------------------------------------------------------------------
    # Table placement (aligned for the SLBA request-id codec)
    # ------------------------------------------------------------------
    @checked
    def allocate_table_region(self, n_pages: PosCount) -> int:
        """Reserve an aligned LBA range for a table; returns the base LBA."""
        align = self.codec.alignment
        base = -(-self._next_table_lba // align) * align
        n_lbas = n_pages * self.ftl.lbas_per_page
        end = base + max(n_lbas, align)
        if end > self.ftl.logical_lbas:
            raise ValueError(
                f"table of {n_pages} pages does not fit "
                f"(need LBAs up to {end}, have {self.ftl.logical_lbas})"
            )
        self._next_table_lba = end
        return base

    # ------------------------------------------------------------------
    def capacity_bytes(self) -> int:
        return self.config.geometry.capacity_bytes
