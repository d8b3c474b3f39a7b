"""``repro.sim.resources`` against the parent commit's ``Server`` and
``BandwidthPipe`` (``reference_resources.py``): the bit-identity proof
for the event-engine fast path.

Hypothesis draws job streams in which same-instant ties are the common
case — zero and repeated service times, capacities 1-3, two priorities,
pipes with and without latency, ``on_start`` chain jobs, submits issued
from inside completion callbacks, and bad inputs mixed in — and each
stream runs on both implementations against a fresh simulator.  The
dispatch sequence ``(sim.now, job id)``, the event count and every
counter must be equal, floats compared with ``==``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import resources as engine
from repro.sim.kernel import SimError, Simulator

from . import reference_resources as reference

# Repeats make ties; 0.1 / 0.3 make float sums that are not exact; the
# negative value is the bad input.
TIMES = (0.0, 0.0, 1e-6, 1e-6, 2.5e-6, 0.1, 0.3)
SERVICE_TIMES = TIMES + (-1.0,)
SIZES = (0, 4096, 4096, 16384, 3, -1)
# An on_start job's authoritative end, relative to its start: None keeps
# ``now + service_time``; the negative one lands in the past.
CHAIN_ENDS = (None, None, 0.0, 1e-6, 0.3, -1.0)


@dataclass(frozen=True)
class Op:
    kind: str                   # "job" | "chain" | "xfer"
    target: int                 # resource index (taken modulo the count)
    amount: float               # service time, or bytes for a transfer
    priority: int
    chain_end: Optional[float]
    at: float                   # issue time, for a root op
    parent: Optional[int]       # issued from inside this op's completion


@dataclass(frozen=True)
class Program:
    capacities: Tuple[int, ...]
    pipes: Tuple[Tuple[float, float], ...]      # (bandwidth, latency)
    ops: Tuple[Op, ...]


@st.composite
def programs(draw) -> Program:
    capacities = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    pipes = tuple(
        draw(
            st.lists(
                st.tuples(st.sampled_from((1.0, 4e9)), st.sampled_from((0.0, 1e-6, 0.1))),
                min_size=1,
                max_size=2,
            )
        )
    )
    ops = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("job", "job", "job", "chain", "xfer")))
        ops.append(
            Op(
                kind=kind,
                target=draw(st.integers(0, 1)),
                amount=draw(st.sampled_from(SIZES if kind == "xfer" else SERVICE_TIMES)),
                priority=draw(st.integers(0, 1)),
                chain_end=draw(st.sampled_from(CHAIN_ENDS)),
                at=draw(st.sampled_from(TIMES)),
                parent=draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
            )
        )
    return Program(capacities, pipes, tuple(ops))


def execute(resources, program: Program):
    """Run ``program`` on ``resources``' classes; return all that is observable."""
    sim = Simulator()
    servers = [resources.Server(sim, capacity=c) for c in program.capacities]
    pipes = [resources.BandwidthPipe(sim, bw, latency) for bw, latency in program.pipes]
    children = defaultdict(list)
    for i, op in enumerate(program.ops):
        children[op.parent].append(i)
    log = []

    def issue(i: int) -> None:
        op = program.ops[i]

        def done() -> None:
            log.append((sim.now, i))
            for child in children[i]:
                issue(child)

        def on_start() -> Optional[float]:
            log.append((sim.now, f"start {i}"))
            return None if op.chain_end is None else sim.now + op.chain_end

        try:
            if op.kind == "xfer":
                pipes[op.target % len(pipes)].transfer(op.amount, done)
            elif op.kind == "chain":
                # Unconditionally: a busy server must refuse it.
                servers[op.target % len(servers)].submit(op.amount, done, on_start=on_start)
            else:
                servers[op.target % len(servers)].submit(op.amount, done, priority=op.priority)
        except SimError as error:
            log.append((sim.now, f"raised {i}: {error}"))

    for i in children[None]:
        sim.schedule_at(program.ops[i].at, partial(issue, i))
    end = sim.run()
    bus = [pipe._server for pipe in pipes]
    return {
        "log": log,
        "end": end,
        "event_count": sim.event_count,
        "pending": sim.pending_events,
        "servers": [
            (s.busy_time, s.jobs_started, s.jobs_completed, s.busy, s.queue_length, s.idle,
             s.utilization())
            for s in servers + bus
        ],
        "pipes": [(p.bytes_transferred, p.queue_length, p.utilization()) for p in pipes],
    }


@settings(max_examples=300, deadline=None)
@given(programs())
def test_same_dispatch_sequence_counters_and_errors(program):
    assert execute(engine, program) == execute(reference, program)


def test_streams_exercise_every_path():
    """The generator is not vacuous: one fixed stream reaches the free,
    queued, hand-off, chain, latency-hop and refusal paths."""
    job = partial(Op, "job", 0, priority=0, chain_end=None, at=0.0, parent=None)
    program = Program(
        capacities=(1,),
        pipes=((4e9, 0.1),),
        ops=(
            job(amount=0.3),                                        # free server
            job(amount=0.1, priority=1),                            # queued
            job(amount=0.1),                                        # queued, jumps ahead
            Op("chain", 0, 0.1, 0, 0.3, 0.0, None),                 # refused: busy
            Op("chain", 0, 0.1, 0, 0.3, 0.0, 1),                    # idle by then: starts
            Op("xfer", 0, 3, 0, None, 0.0, 2),                      # from a callback
            job(amount=-1.0),                                       # refused: negative
            Op("xfer", 0, -1, 0, None, 0.0, None),                  # refused: negative
        ),
    )
    seen = execute(engine, program)
    assert seen == execute(reference, program)
    events = [what for _, what in seen["log"]]
    assert [e for e in events if isinstance(e, int)] == [0, 2, 1, 5, 4]
    assert sum(isinstance(e, str) and e.startswith("raised") for e in events) == 3
    assert "start 4" in events
    # Chain job 4 started at 0.3 + 0.1 + 0.1 and was pinned to end 0.3 later.
    assert seen["log"][-1] == (0.3 + 0.1 + 0.1 + 0.3, 4)


@pytest.mark.parametrize("resources", [engine, reference], ids=["engine", "reference"])
def test_constructors_refuse_the_same_bad_inputs(resources):
    sim = Simulator()
    with pytest.raises(SimError, match="capacity"):
        resources.Server(sim, capacity=0)
    with pytest.raises(SimError, match="bandwidth"):
        resources.BandwidthPipe(sim, 0.0)
    with pytest.raises(SimError, match="bandwidth"):
        resources.BandwidthPipe(sim, -1.0)
