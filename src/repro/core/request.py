"""Pending-SLS-request buffer entries (Section 4.1, Figure 7).

Each entry holds the five elements the paper describes: the input config,
reformatted status structures (per-page input buckets + completion
counters), the pending flash page request queue, the pending host page
request queue, and the result scratchpad.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, List, Optional

import numpy as np

from ..sim.stats import Breakdown
from .config import SlsConfig

__all__ = ["SlsState", "PageWork", "SlsRequestEntry"]


class SlsState(Enum):
    ALLOCATED = "allocated"
    CONFIG_TRANSFER = "config_transfer"
    PROCESSING = "processing"
    GATHERING = "gathering"
    COMPLETE = "complete"
    FAILED = "failed"


@dataclass(slots=True, eq=False)
class PageWork:
    """The inputs of one request that live on one flash page."""

    lpn: int
    slots: np.ndarray       # row index within the page, per pair
    result_ids: np.ndarray  # accumulation destination, per pair
    ranks: Optional[np.ndarray] = None  # storage rank in the table, per pair


@dataclass(slots=True, weakref_slot=True, eq=False)
class SlsRequestEntry:
    request_id: int
    config: SlsConfig
    table_base_lpn: int
    state: SlsState = SlsState.ALLOCATED

    # Reformatted input configuration: the pairs that go to flash (cache
    # hits removed), page by page in id order, and the page-ordered work
    # units (the engine's page records) that address them.
    ranks: Optional[np.ndarray] = None       # storage rank in the table, per pair
    result_ids: Optional[np.ndarray] = None  # accumulation destination, per pair
    # ``ranks`` as Python ints: every page's bound, the cache's claims.
    rank_ints: Optional[List[int]] = field(default=None, init=False)
    pending_pages: Deque[Any] = field(default_factory=deque)
    pages_total: int = 0
    pages_done: int = 0
    pages_inflight: int = 0
    # Translated pages whose rows are not yet in the scratchpad, in
    # completion order.  The engine extracts and accumulates them in one
    # batch (``NdpSlsEngine._gather``).
    gather_pending: List[Any] = field(default_factory=list)

    # Fast-path work resolved from the SSD-side embedding cache: dense
    # [n, dim] vectors and their accumulation targets (batch probe result).
    cache_vectors: Optional[np.ndarray] = None
    cache_result_ids: Optional[np.ndarray] = None
    cache_work_pending: bool = False

    # Result scratchpad (accumulation happens in float32, as the firmware's
    # integer/float loop would).
    scratchpad: Optional[np.ndarray] = None

    # Host page requests waiting on completion (result-read commands).
    result_waiters: List[Callable[[], None]] = field(default_factory=list)

    # Timing / accounting
    overlapped: bool = False  # ever shared the buffer with another request
    t_start: float = 0.0
    t_config_written: float = 0.0
    t_processed: float = 0.0
    t_work_done: float = 0.0
    cpu_config_process: float = 0.0
    cpu_translation: float = 0.0
    flash_pages_read: int = 0
    page_cache_hits: int = 0
    emb_cache_hits: int = 0
    uncorrectable_pages: int = 0
    error: Optional[str] = None

    # ------------------------------------------------------------------
    def init_scratchpad(self) -> None:
        self.scratchpad = np.zeros(
            (self.config.num_results, self.config.vec_dim), dtype=np.float32
        )

    @property
    def work_done(self) -> bool:
        return (
            self.state in (SlsState.GATHERING, SlsState.COMPLETE)
            and not self.pending_pages
            and self.pages_inflight == 0
            and self.pages_done == self.pages_total
            and not self.cache_work_pending
        )

    def breakdown(self) -> Breakdown:
        """Figure 8's four FTL time components for this request."""
        elapsed = max(0.0, self.t_work_done - self.t_config_written)
        flash_wait = elapsed - self.cpu_config_process - self.cpu_translation
        return Breakdown(
            {
                "config_write": max(0.0, self.t_config_written - self.t_start),
                "config_process": self.cpu_config_process,
                "translation": self.cpu_translation,
                "flash_read": max(0.0, flash_wait),
            }
        )
