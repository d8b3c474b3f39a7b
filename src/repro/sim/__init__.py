"""Discrete-event simulation substrate (kernel, resources, statistics)."""

from .kernel import ScheduleHandle, SimError, Simulator
from .resources import BandwidthPipe, Server
from .stats import Accumulator, Breakdown, summarize_latencies
from . import units

__all__ = [
    "Simulator",
    "SimError",
    "ScheduleHandle",
    "Server",
    "BandwidthPipe",
    "Accumulator",
    "Breakdown",
    "summarize_latencies",
    "units",
]
