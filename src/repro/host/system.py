"""Host system assembly: simulator + host CPU + SSD + driver + NDP session."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..driver.ndp import NdpSlsSession
from ..driver.unvme import DriverConfig, UnvmeDriver
from ..sim.kernel import Simulator
from ..ssd.device import SsdConfig, SsdDevice
from ..ssd.presets import cosmos_plus_config
from .cpu import HostCpu, HostCpuConfig

__all__ = ["SystemConfig", "System", "build_system"]


@dataclass(frozen=True)
class SystemConfig:
    host_cpu: HostCpuConfig = field(default_factory=HostCpuConfig)
    driver: DriverConfig = field(default_factory=DriverConfig)


class System:
    """Everything one experiment instance needs, sharing one simulator.

    A system always has a primary SSD (``device``/``driver``/
    ``ndp_session``); additional devices can be attached with
    :meth:`add_device` for multi-SSD scale-out experiments (the paper's
    prototype was single-SSD; Section 5 flags this as the limitation).
    """

    def __init__(
        self,
        ssd_config: SsdConfig,
        system_config: Optional[SystemConfig] = None,
        sim: Optional[Simulator] = None,
    ):
        self.sim = sim or Simulator()
        self.config = system_config or SystemConfig()
        self.host_cpu = HostCpu(self.config.host_cpu)
        self.devices: list[SsdDevice] = []
        self._drivers: dict[int, UnvmeDriver] = {}
        self._sessions: dict[int, NdpSlsSession] = {}
        self.device = self.add_device(ssd_config)

    # ------------------------------------------------------------------
    def add_device(self, ssd_config: SsdConfig) -> SsdDevice:
        """Attach another SSD (own driver + NDP session) to this host."""
        device = SsdDevice(self.sim, ssd_config)
        driver = UnvmeDriver(self.sim, device, self.config.driver)
        self.devices.append(device)
        self._drivers[id(device)] = driver
        self._sessions[id(device)] = NdpSlsSession(driver)
        return device

    def driver_for(self, device: SsdDevice) -> UnvmeDriver:
        return self._drivers[id(device)]

    def session_for(self, device: SsdDevice) -> NdpSlsSession:
        return self._sessions[id(device)]

    @property
    def driver(self) -> UnvmeDriver:
        return self._drivers[id(self.device)]

    @property
    def ndp_session(self) -> NdpSlsSession:
        return self._sessions[id(self.device)]

    def run_until(self, predicate, limit: float = float("inf")) -> float:
        return self.sim.run_until(predicate, limit)

    @property
    def now(self) -> float:
        return self.sim.now


def build_system(
    min_capacity_pages: int = 1 << 20,
    page_cache_pages: int = 4096,
    ndp=None,
    system_config: Optional[SystemConfig] = None,
    sim: Optional[Simulator] = None,
) -> System:
    """Convenience factory: a Cosmos+-like device plus default host.

    ``sim`` shares an existing simulator — multiple systems on one kernel
    is how :mod:`repro.cluster` runs N hosts in a single simulated fleet.
    """
    ssd_config = cosmos_plus_config(
        min_capacity_pages=min_capacity_pages,
        page_cache_pages=page_cache_pages,
        ndp=ndp,
    )
    return System(ssd_config, system_config, sim=sim)
