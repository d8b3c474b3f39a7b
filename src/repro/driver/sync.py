"""Synchronous wrappers: drive the simulator until an async op completes."""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.config import SlsConfig
from ..core.engine import SlsResultPayload
from ..nvme.commands import NvmeCompletion
from ..sim.kernel import Simulator
from .ndp import NdpSlsSession, SlsTiming
from .unvme import UnvmeDriver

__all__ = ["sync_read", "sync_write", "sync_sls", "run_all"]


def sync_read(sim: Simulator, driver: UnvmeDriver, slba: int, nlb: int) -> NvmeCompletion:
    box: List[NvmeCompletion] = []
    driver.read(slba, nlb, box.append)
    sim.run_until(lambda: bool(box))
    return box[0]


def sync_write(
    sim: Simulator, driver: UnvmeDriver, slba: int, nlb: int, data: np.ndarray
) -> NvmeCompletion:
    box: List[NvmeCompletion] = []
    driver.write(slba, nlb, data, box.append)
    sim.run_until(lambda: bool(box))
    return box[0]


def sync_sls(
    sim: Simulator, session: NdpSlsSession, config: SlsConfig
) -> tuple[SlsResultPayload, SlsTiming]:
    box: List[tuple[SlsResultPayload, SlsTiming]] = []
    session.sls(config, lambda payload, timing: box.append((payload, timing)))
    sim.run_until(lambda: bool(box))
    return box[0]


def run_all(sim: Simulator, boxes: List[list], expected: int) -> None:
    """Run until each box in ``boxes`` holds ``expected`` results."""
    sim.run_until(lambda: all(len(b) >= expected for b in boxes))
