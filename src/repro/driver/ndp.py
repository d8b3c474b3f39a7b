"""Host-side NDP SLS session: the libflashrec analogue.

Pairs the config-write and result-read halves of an SLS operation,
allocating request ids within the SLBA codec's alignment window and
returning the device's result payload (accumulated vectors + the FTL
timing breakdown) to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Set

from ..core.config import SlsConfig
from ..core.engine import SlsResultPayload
from ..nvme.commands import NvmeCommand, Opcode
from ..sim.stats import Breakdown
from .unvme import UnvmeDriver

__all__ = ["SlsTiming", "NdpSlsSession", "NdpError"]


class NdpError(RuntimeError):
    pass


@dataclass
class SlsTiming:
    """Host-observed timing of one SLS operation."""

    submit_time: float
    config_done_time: float
    result_time: float
    breakdown: Breakdown

    @property
    def total(self) -> float:
        return self.result_time - self.submit_time


SlsCallback = Callable[[SlsResultPayload, SlsTiming], None]


@dataclass(slots=True, eq=False)
class _SlsOp:
    """One SLS op of a session from submit to result: the completions of
    its config-write and result-read halves are its bound methods."""

    session: "NdpSlsSession"
    rid: int
    slba: int
    result_nlb: int
    submit_time: float
    # The result read is issued from the config write's completion, where
    # the tracer's span stack is empty: the caller's span (the backend's
    # sls_op), captured at submit, parents both command halves.
    op_span: Any
    on_done: SlsCallback
    config_done_time: float = 0.0

    def config_done(self, cpl) -> None:
        session = self.session
        driver = session.driver
        self.config_done_time = driver.sim.now
        if not cpl.ok:
            session._inflight_rids.discard(self.rid)
            raise NdpError(f"SLS config write failed: {cpl.status}")
        cmd = NvmeCommand(opcode=Opcode.READ, slba=self.slba, nlb=self.result_nlb, ndp=True)
        tracer = driver.sim.tracer
        if tracer is not None and self.op_span is not None:
            tracer.push(self.op_span)
            try:
                driver.submit(cmd, self.result_done)
            finally:
                tracer.pop()
        else:
            driver.submit(cmd, self.result_done)

    def result_done(self, cpl) -> None:
        session = self.session
        session._inflight_rids.discard(self.rid)
        payload = cpl.payload
        if not cpl.ok or not isinstance(payload, SlsResultPayload):
            raise NdpError(f"SLS result read failed: {cpl.status}")
        session.ops_completed += 1
        timing = SlsTiming(
            submit_time=self.submit_time,
            config_done_time=self.config_done_time,
            result_time=session.driver.sim.now,
            breakdown=payload.breakdown,
        )
        self.on_done(payload, timing)


class NdpSlsSession:
    """Issues NDP SLS operations through a :class:`UnvmeDriver`."""

    def __init__(self, driver: UnvmeDriver):
        self.driver = driver
        self.codec = driver.device.codec
        self._next_rid = 1
        self._inflight_rids: Set[int] = set()
        self.ops_completed = 0

    # ------------------------------------------------------------------
    def _allocate_rid(self) -> int:
        for _ in range(self.codec.alignment):
            rid = self._next_rid
            self._next_rid = self._next_rid % (self.codec.alignment - 1) + 1
            if rid not in self._inflight_rids:
                self._inflight_rids.add(rid)
                return rid
        raise NdpError("no free request ids")

    # ------------------------------------------------------------------
    def sls(self, config: SlsConfig, on_done: SlsCallback) -> None:
        """Run one SLS op: config write, then result read when ready."""
        rid = self._allocate_rid()
        config.request_id = rid
        driver = self.driver
        slba = self.codec.encode(config.table_base_lba, rid)
        tracer = driver.sim.tracer
        op = _SlsOp(
            self,
            rid,
            slba,
            driver.nlb_for_bytes(config.result_bytes),
            driver.sim.now,
            tracer.current if tracer is not None else None,
            on_done,
        )
        driver.submit(
            NvmeCommand(
                opcode=Opcode.WRITE,
                slba=slba,
                nlb=driver.nlb_for_bytes(config.encoded_bytes),
                ndp=True,
                data=config,
            ),
            op.config_done,
        )
