"""Device calibration: measure the simulator against the paper's numbers.

Section 5 of the paper fixes the prototype's envelope:

* ~10K IOPS per channel at 16KB pages, 8 channels,
* maximum sequential read throughput "just under 1.4GB/s",
* whole-stack random block reads around 10K IOPS (Section 3.2),
* single page access latencies in the 10s-100s of microseconds.

This experiment measures each on the assembled device (not from the
config constants), so any regression in the queueing model shows up as a
calibration drift.  :mod:`repro.experiments.claims` holds the target ranges.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..host.system import System
from ..ssd.presets import cosmos_plus_config
from .common import ExperimentResult

__all__ = ["run", "measure_sequential_bandwidth", "measure_random_iops",
           "measure_page_read_latency"]


def _fresh_system() -> System:
    return System(cosmos_plus_config(min_capacity_pages=1 << 15))


def _preload(ftl, n_pages: int) -> None:
    """Map ``n_pages`` zero pages from LPN 0, so reads hit flash, not
    the unmapped fast path."""

    class _Region:
        page_count = n_pages

        def page_content(self, offset):
            return np.zeros(ftl.page_bytes, dtype=np.uint8)

    ftl.preload_region(0, _Region())


def measure_sequential_bandwidth(n_bytes: int = 64 << 20) -> float:
    """Stream large coalesced reads; returns bytes/second."""
    system = _fresh_system()
    driver = system.driver
    ftl = system.device.ftl
    n_pages = n_bytes // ftl.page_bytes
    _preload(ftl, n_pages)
    lbas_per_cmd = 32  # 128KB transfers
    total_lbas = n_pages * ftl.lbas_per_page
    done = {"n": 0}
    t0 = system.sim.now
    for slba in range(0, total_lbas, lbas_per_cmd):
        driver.read(slba, min(lbas_per_cmd, total_lbas - slba),
                    lambda c: done.__setitem__("n", done["n"] + 1))
    n_cmds = -(-total_lbas // lbas_per_cmd)
    system.sim.run_until(lambda: done["n"] == n_cmds)
    return n_bytes / (system.sim.now - t0)


def measure_random_iops(n_cmds: int = 4000, seed: int = 0) -> float:
    """Whole-stack random single-LBA reads at full queue depth."""
    system = _fresh_system()
    driver = system.driver
    ftl = system.device.ftl
    n_pages = 1 << 14
    _preload(ftl, n_pages)
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, n_pages * ftl.lbas_per_page, size=n_cmds)
    done = {"n": 0}
    t0 = system.sim.now
    for lba in lbas:
        driver.read(int(lba), 1, lambda c: done.__setitem__("n", done["n"] + 1))
    system.sim.run_until(lambda: done["n"] == n_cmds)
    return n_cmds / (system.sim.now - t0)


def measure_page_read_latency() -> float:
    """Unloaded single flash page read latency (seconds)."""
    system = _fresh_system()
    flash = system.device.flash
    done: List[float] = []
    flash.read(0, lambda c: done.append(system.sim.now))
    system.sim.run_until(lambda: bool(done))
    return done[0]


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    seq_bytes = (16 << 20) if fast else (128 << 20)
    n_cmds = 2000 if fast else 10000
    seq_bw = measure_sequential_bandwidth(seq_bytes)
    iops = measure_random_iops(n_cmds, seed)
    latency = measure_page_read_latency()
    rows = [
        {"metric": "sequential_read_GB_s", "measured": seq_bw / 1e9},
        {"metric": "random_read_iops", "measured": iops},
        {"metric": "page_read_latency_us", "measured": latency * 1e6},
    ]
    return ExperimentResult(
        "calibration",
        "Device envelope vs the paper's prototype numbers",
        rows,
    )
