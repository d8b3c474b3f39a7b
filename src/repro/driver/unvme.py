"""User-space polling NVMe driver model (Micron UNVMe analogue).

The paper's host stack uses UNVMe: a low-latency userspace library that
polls for completions and uses the maximum number of threads/command
queues.  We model per-command submission and completion-handling costs
and the queue-depth backpressure of the qpairs; polling pickup is
immediate (dedicated spinning threads), so the driver registers its
completion handler with each CQ together with the handling cost, and a
completion is handled ``complete_cost_s`` after its entry lands, in the
same event.

Commands issued back to back (one SLS op's block reads) reach their
submission queues at one instant, ``submit_cost_s`` later.  They ride one
event — a *train* — that pushes each onto its SQ in issue order; a
command joins the open train only while nothing else has been scheduled
since, which is exactly when its own event would have run straight after
the train's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..nvme.commands import NvmeCommand, NvmeCompletion, Opcode
from ..nvme.queues import QueuePair
from ..params import NonNeg, PosCount, check_domains
from ..sim.kernel import Simulator
from ..sim.units import us
from ..ssd.device import SsdDevice

__all__ = ["DriverConfig", "UnvmeDriver"]

CompletionCallback = Callable[[NvmeCompletion], None]


@dataclass(frozen=True)
class DriverConfig:
    num_qpairs: PosCount = 8
    queue_depth: PosCount = 64
    submit_cost_s: NonNeg = us(3.0)
    complete_cost_s: NonNeg = us(2.0)

    __post_init__ = check_domains


class UnvmeDriver:
    """Round-robin submission across qpairs with depth backpressure."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        config: Optional[DriverConfig] = None,
    ):
        self.sim = sim
        self.device = device
        self.config = config or DriverConfig()
        self._qpairs: List[QueuePair] = [
            device.create_qpair(self.config.queue_depth)
            for _ in range(self.config.num_qpairs)
        ]
        self._callbacks: Dict[int, tuple[CompletionCallback, QueuePair]] = {}
        self._backlog: Deque[tuple[NvmeCommand, CompletionCallback]] = deque()
        # Open ``nvme.cmd`` spans by cid (tracing only; empty otherwise).
        # Completion delivery only sees the cid, so the span handle has
        # to survive the submit -> deliver gap here.
        self._cmd_spans: Dict[int, object] = {}
        self._rr = 0
        # The open doorbell train: its (sq, cmd) pairs, the instant they
        # were issued and the event that will push them; None once it ran.
        self._train: Optional[List[tuple]] = None
        self._train_issued_at = 0.0
        self._train_event = None
        for qp in self._qpairs:
            qp.cq.set_pickup(self._deliver, self.config.complete_cost_s)
        self.commands_issued = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, cmd: NvmeCommand, on_done: CompletionCallback) -> None:
        """Issue ``cmd``; queues locally when every qpair is at full depth."""
        tracer = self.sim.tracer
        if tracer is not None:
            # Begins at submit, so driver-side backlog queueing is part
            # of the command's span; ends at completion delivery.  The
            # handle also rides on the command so the controller can
            # parent FTL work under it.
            span = tracer.begin(
                "nvme.cmd",
                opcode=cmd.opcode.name,
                cid=cmd.cid,
                slba=cmd.slba,
                nlb=cmd.nlb,
                ndp=cmd.ndp,
            )
            self._cmd_spans[cmd.cid] = span
            cmd.obs_span = span
        qp = self._pick_qpair()
        if qp is None:
            self._backlog.append((cmd, on_done))
            return
        self._issue(qp, cmd, on_done)

    def _pick_qpair(self) -> Optional[QueuePair]:
        # Round-robin scan starting where the last pick left off; same
        # selection sequence as the itertools.cycle original, without the
        # per-call iterator and property overhead on the hot path.
        qpairs = self._qpairs
        n = len(qpairs)
        rr = self._rr
        for k in range(n):
            idx = rr + k
            if idx >= n:
                idx -= n
            qp = qpairs[idx]
            if qp.outstanding < qp.depth:      # QueuePair.can_submit
                self._rr = idx + 1 if idx + 1 < n else 0
                return qp
        return None

    def _issue(self, qp: QueuePair, cmd: NvmeCommand, on_done: CompletionCallback) -> None:
        sim = self.sim
        qp.outstanding += 1
        cmd.submit_time = sim.now
        self._callbacks[cmd.cid] = (on_done, qp)
        self.commands_issued += 1
        # Submission cost: build SQE + doorbell write from the host thread.
        train = self._train
        if (
            train is not None
            and self._train_issued_at == sim.now
            and sim.is_latest(self._train_event)
        ):
            train.append((qp.sq, cmd))
            return
        self._train = train = [(qp.sq, cmd)]
        self._train_issued_at = sim.now
        self._train_event = sim.schedule_call(
            self.config.submit_cost_s, self._ring_doorbells, train
        )

    def _ring_doorbells(self, train: List[tuple]) -> None:
        if train is self._train:
            self._train = None
        for sq, cmd in train:
            sq.push(cmd)

    # ------------------------------------------------------------------
    # Completion (polling): a CQ entry, ``complete_cost_s`` after it lands
    # ------------------------------------------------------------------
    def _deliver(self, cpl: NvmeCompletion) -> None:
        entry = self._callbacks.pop(cpl.cid, None)
        if entry is None:
            raise RuntimeError(f"completion for unknown cid {cpl.cid}")
        on_done, qp = entry
        qp.outstanding -= 1
        tracer = self.sim.tracer
        if tracer is not None:
            span = self._cmd_spans.pop(cpl.cid, None)
            if span is not None:
                span.attrs["status"] = cpl.status.name
                tracer.end(span)
        backlog = self._backlog
        while backlog:
            qp = self._pick_qpair()
            if qp is None:
                break
            self._issue(qp, *backlog.popleft())
        on_done(cpl)

    # ------------------------------------------------------------------
    # Convenience IO
    # ------------------------------------------------------------------
    def read(self, slba: int, nlb: int, on_done: CompletionCallback) -> None:
        self.submit(NvmeCommand(Opcode.READ, slba, nlb), on_done)

    def write(
        self, slba: int, nlb: int, data: np.ndarray, on_done: CompletionCallback
    ) -> None:
        self.submit(
            NvmeCommand(opcode=Opcode.WRITE, slba=slba, nlb=nlb, data=data), on_done
        )

    def trim(self, slba: int, nlb: int, on_done: CompletionCallback) -> None:
        """Deallocate an LBA range (TRIM)."""
        self.submit(NvmeCommand(opcode=Opcode.DSM, slba=slba, nlb=nlb), on_done)

    @property
    def outstanding(self) -> int:
        return sum(qp.outstanding for qp in self._qpairs) + len(self._backlog)

    @property
    def lba_bytes(self) -> int:
        return self.device.ftl.config.lba_bytes

    def nlb_for_bytes(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.lba_bytes))
