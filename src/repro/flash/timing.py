"""Flash timing model.

Parameters follow the Cosmos+ OpenSSD prototype described in the paper:
10K IOPS per channel at 16KB pages (one page per ~100us of channel time),
8 channels for ~1.28GB/s aggregate ("just under 1.4GB/s"), single page
access latencies in the 10s-100s of microseconds, and O(ms) programs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import NonNeg, Pos, check_domains
from ..sim.units import MB_S, us

__all__ = ["FlashTiming"]


@dataclass(frozen=True)
class FlashTiming:
    """Per-operation NAND and channel-bus timing."""

    t_read_s: NonNeg = us(60.0)       # array read to die register (tR)
    t_program_s: NonNeg = us(800.0)   # page program (tPROG)
    t_erase_s: NonNeg = us(3000.0)    # block erase (tBERS)
    channel_bw_bytes_s: Pos = MB_S(160.0)    # per-channel bus bandwidth
    t_cmd_s: NonNeg = us(1.0)         # command/addr cycles per operation

    __post_init__ = check_domains

    def transfer_time(self, size_bytes: int) -> float:
        """Channel-bus occupancy for moving ``size_bytes`` to/from a die."""
        return size_bytes / self.channel_bw_bytes_s

    def sustained_read_ios_per_channel(self, page_bytes: int) -> float:
        """Pipelined page reads/s on one channel (bus-bound with >=2 ways)."""
        return 1.0 / (self.t_cmd_s + self.transfer_time(page_bytes))
