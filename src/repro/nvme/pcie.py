"""PCIe link model: two simplex bandwidth pipes plus fixed latency."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..params import NonNeg, Pos, check_domains
from ..sim.kernel import Simulator
from ..sim.resources import BandwidthPipe
from ..sim.units import GB_S, us

__all__ = ["PcieConfig", "PcieLink"]


@dataclass(frozen=True)
class PcieConfig:
    """Defaults approximate PCIe Gen2 x8 (the Cosmos+ host link)."""

    bandwidth_bytes_s: Pos = GB_S(3.2)
    latency_s: NonNeg = us(1.0)

    __post_init__ = check_domains


class PcieLink:
    """Full-duplex link: independent host->device and device->host pipes."""

    def __init__(self, sim: Simulator, config: PcieConfig | None = None):
        self.sim = sim
        self.config = config or PcieConfig()
        self.h2d = BandwidthPipe(
            sim, self.config.bandwidth_bytes_s, self.config.latency_s, name="pcie.h2d"
        )
        self.d2h = BandwidthPipe(
            sim, self.config.bandwidth_bytes_s, self.config.latency_s, name="pcie.d2h"
        )

    def to_device(self, size_bytes: int, on_done: Callable[[], None]) -> None:
        self.h2d.transfer(size_bytes, on_done)

    # Nothing moves to the host on its own: every device-to-host transfer
    # follows a host-core job, ``d2h.transfer_after`` (NvmeController).

    @property
    def bytes_to_device(self) -> int:
        return self.h2d.bytes_transferred

    @property
    def bytes_to_host(self) -> int:
        return self.d2h.bytes_transferred
