"""``repro.sim.resources`` against the staged ``Server`` and
``BandwidthPipe`` of ``reference_resources.py``: the bit-identity proof
for the event-engine fast path and for the one-event pipe transfer.

Hypothesis draws job streams in which same-instant ties are the common
case — zero and repeated service times, one or two one-server
stations, priorities on both sides of 0 (the engine keeps a FIFO per
priority where the reference keeps one heap), submits issued from
inside completion callbacks, and bad inputs mixed in — and each stream
runs on both implementations against a fresh simulator.

* A stream without transfers (``Server`` only): the dispatch sequence
  ``(sim.now, job id)``, the event count and every counter are equal,
  floats compared with ``==``.
* A stream with transfers: the pipe pushes each delivery when the
  transfer is admitted, where the staged pipe pushed it when the bus
  freed, so a delivery keeps its instant but not its place among
  *other* events of exactly that instant.  On every stream the pipe
  obeys its own laws (FIFO per pipe, ``deliver == end + latency`` with
  the closed-form ``end``, byte and busy counters, one event per
  transfer); on every stream whose staged run has no such tie — the
  common case with these pipe parameters, and the only case with the
  real ones (``tests/sim/test_pipe_ties.py``) — everything observable
  equals the staged run, with one event fewer per transfer on a pipe
  that has latency.
* A stream on the closed-form ``Core`` — its own jobs, jobs handed off
  to a pipe only it feeds (``transfer_after``), and jobs on other
  servers — against a one-server ``Server`` whose completions call the
  staged pipe.  The core pushes a queued completion at admission and a
  hand-off pushes only its delivery, so on every stream in which no
  core completion or delivery shares its float instant with an event
  of another resource, the dispatch sequence, ``busy_time``,
  ``jobs_started`` and the byte counters are equal, with one event
  fewer per hand-off (two on a pipe with latency) — and, where nothing
  is handed off, ``idle`` read in every callback is equal too.  A
  hand-off may also carry ``then_s`` (the driver's pickup of a CQ
  entry): one event at ``delivery + then_s`` against the staged pipe
  followed by ``schedule_call(then_s)``, one more event fewer, and the
  delivery instant it returns is the staged pipe's.  These streams
  draw core service times no sum of the other times meets (and none
  zero, which puts a completion at its issue's instant), so most of
  them have no tie and the equality runs on them instead of filtering
  them out.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sim import resources as engine
from repro.sim.kernel import SimError, Simulator

from . import reference_resources as reference

# Repeats make ties; 0.1 / 0.3 make float sums that are not exact; the
# negative value is the bad input.
TIMES = (0.0, 0.0, 1e-6, 1e-6, 2.5e-6, 0.1, 0.3)
SERVICE_TIMES = TIMES + (-1.0,)
# Repeats make same-priority FIFO order matter; -5 and 7 are outside the
# priorities the device uses.
PRIORITIES = (-5, 0, 0, 1, 1, 2, 7)
# A core job's service time on the core streams: odd values, so a core
# completion rarely lands on a root's or another server's instant.
CORE_TIMES = (1.7e-6, 2.9e-6, 0.13, -1.0)
# A hand-off's pickup delay (0.0: the pickup is the delivery).
THEN_S = (0.0, 2e-6, 0.7e-6)
SIZES = (0, 4096, 4096, 16384, 3, -1)
# PCIe's own (3.2 GB/s, 1 us) and values no sum of TIMES lands on; 0.0
# makes the bus-finish the delivery.
BANDWIDTHS = (3.2e9, 1e9 / 3)
LATENCIES = (0.0, 1e-6, 0.013)
# The delivery-order stream: no zero-byte transfer (on a zero-latency
# pipe it lands at its issuer's instant) and no latency a sum of TIMES
# meets, so few draws tie and are discarded.
UNTIED_SIZES = tuple(size for size in SIZES if size != 0)
UNTIED_LATENCIES = (0.0, 0.7e-6, 0.013)


@dataclass(frozen=True)
class Op:
    kind: str                   # "job" | "xfer" | "core" | "handoff" | "pickup"
    target: int                 # resource index (taken modulo the count)
    amount: float               # service time, or bytes for a transfer
    priority: int
    at: float                   # issue time, for a root op
    parent: Optional[int]       # issued from inside this op's completion
    size: int = 0               # bytes a hand-off moves after its job
    then: float = 0.0           # a pickup's delay after the delivery


@dataclass(frozen=True)
class Program:
    servers: int
    pipes: Tuple[Tuple[float, float], ...]      # (bandwidth, latency)
    ops: Tuple[Op, ...]


@st.composite
def programs(
    draw, transfers: bool, sizes=SIZES, latencies=LATENCIES
) -> Program:
    servers = draw(st.integers(1, 2))
    pipes = tuple(
        draw(
            st.lists(
                st.tuples(st.sampled_from(BANDWIDTHS), st.sampled_from(latencies)),
                min_size=1,
                max_size=2,
            )
        )
    )
    kinds = ("job", "job", "xfer", "xfer") if transfers else ("job",)
    ops = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        ops.append(
            Op(
                kind=kind,
                target=draw(st.integers(0, 1)),
                amount=draw(st.sampled_from(sizes if kind == "xfer" else SERVICE_TIMES)),
                priority=draw(st.sampled_from(PRIORITIES)),
                at=draw(st.sampled_from(TIMES)),
                parent=draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
            )
        )
    return Program(servers, pipes, tuple(ops))


def execute(resources, program: Program):
    """Run ``program`` on ``resources``' classes; return all that is observable."""
    sim = Simulator()
    servers = [resources.Server(sim) for _ in range(program.servers)]
    pipes = [resources.BandwidthPipe(sim, bw, latency) for bw, latency in program.pipes]
    children = defaultdict(list)
    for i, op in enumerate(program.ops):
        children[op.parent].append(i)
    log = []
    admitted = [[] for _ in pipes]      # per pipe: (instant, bytes, op) in admission order

    def issue(i: int) -> None:
        op = program.ops[i]

        def done() -> None:
            log.append((sim.now, i))
            for child in children[i]:
                issue(child)

        try:
            if op.kind == "xfer":
                pipes[op.target % len(pipes)].transfer(op.amount, done)
                admitted[op.target % len(pipes)].append((sim.now, op.amount, i))
            else:
                servers[op.target % len(servers)].submit(op.amount, done, priority=op.priority)
        except SimError as error:
            log.append((sim.now, f"raised {i}: {error}"))

    for i in children[None]:
        sim.schedule_at(program.ops[i].at, partial(issue, i))
    end = sim.run()
    return {
        "log": log,
        "end": end,
        "event_count": sim.event_count,
        "pending": sim.pending_events,
        "servers": [
            (s.busy_time, s.jobs_started, s.jobs_completed, s.busy, s.queue_length, s.idle,
             s.utilization())
            for s in servers
        ],
        "pipes": [(p.bytes_transferred, p.utilization()) for p in pipes],
        "admitted": admitted,
    }


@settings(max_examples=300, deadline=None)
@given(programs(transfers=False))
def test_same_dispatch_sequence_counters_and_errors(program):
    assert execute(engine, program) == execute(reference, program)


@settings(max_examples=300, deadline=None)
@given(programs(transfers=True))
def test_pipe_laws_hold_on_every_stream(program):
    seen = execute(engine, program)
    delivered = {what: instant for instant, what in seen["log"] if isinstance(what, int)}
    order = list(delivered)
    for (bandwidth, latency), (nbytes, utilization), admitted in zip(
        program.pipes, seen["pipes"], seen["admitted"]
    ):
        free_at, busy = 0.0, 0.0
        for instant, size, i in admitted:
            end = (free_at if free_at > instant else instant) + size / bandwidth
            assert delivered[i] == end + latency, (i, instant, size)
            free_at = end
            busy += size / bandwidth
        ops = [i for _, _, i in admitted]
        assert [i for i in order if i in set(ops)] == ops           # FIFO
        assert nbytes == sum(size for _, size, _ in admitted)
        assert utilization == (busy / seen["end"] if seen["end"] > 0 else 0.0)
    roots = sum(op.parent is None for op in program.ops)
    jobs = sum(completed for _, _, completed, *_ in seen["servers"])
    assert seen["event_count"] == roots + jobs + sum(map(len, seen["admitted"]))
    assert seen["pending"] == 0


def a_delivery_ties(program: Program, seen) -> bool:
    """Whether a delivery shares its float instant with anything but
    deliveries of its own pipe: another pipe's delivery, a job completion
    or a root issue.  What the delivery itself issued (a zero-time job, a
    refused submission, and what those issue in turn) runs after it in
    either engine, so it is not a tie."""
    pipe_of = {
        i: op.target % len(program.pipes)
        for i, op in enumerate(program.ops)
        if op.kind == "xfer"
    }
    sharing = defaultdict(list)
    for op in program.ops:
        if op.parent is None:
            sharing[op.at].append(("root", None))
    for instant, what in seen["log"]:
        if isinstance(what, str):           # a refusal: "raised <op>: ..."
            what = int(what.split()[1].rstrip(":"))
            sharing[instant].append(("other", what))
        else:
            sharing[instant].append((pipe_of.get(what, "other"), what))

    def issued_by(i: Optional[int], delivery: int) -> bool:
        while i is not None:
            if i == delivery:
                return True
            i = program.ops[i].parent
        return False

    for who in sharing.values():
        for pipe, delivery in who:
            if isinstance(pipe, int) and any(
                other != pipe and not issued_by(i, delivery) for other, i in who
            ):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(programs(transfers=True, sizes=UNTIED_SIZES, latencies=UNTIED_LATENCIES))
def test_same_dispatch_sequence_when_no_delivery_ties(program):
    want = execute(reference, program)
    assume(not a_delivery_ties(program, want))
    got = execute(engine, program)
    hops = sum(
        len(admitted)
        for (_, latency), admitted in zip(program.pipes, want["admitted"])
        if latency > 0
    )
    assert got.pop("event_count") == want.pop("event_count") - hops
    assert got == want


def test_streams_exercise_every_path():
    """The generator is not vacuous: one fixed stream reaches the free,
    queued, hand-off, latency-hop and refusal paths."""
    job = partial(Op, "job", 0, priority=0, at=0.0, parent=None)
    program = Program(
        servers=1,
        pipes=((4e9, 0.1),),
        ops=(
            job(amount=0.3),                                        # free server
            job(amount=0.1, priority=1),                            # queued
            job(amount=0.1),                                        # queued, jumps ahead
            Op("job", 0, 0.3, 0, 0.0, 1),                           # from a callback
            Op("xfer", 0, 3, 0, 0.0, 2),                            # from a callback
            job(amount=-1.0),                                       # refused: negative
            Op("xfer", 0, -1, 0, 0.0, None),                        # refused: negative
        ),
    )
    seen = execute(engine, program)
    staged = execute(reference, program)
    assert seen.pop("event_count") == staged.pop("event_count") - 1     # the latency hop
    assert seen == staged
    events = [what for _, what in seen["log"]]
    assert [e for e in events if isinstance(e, int)] == [0, 2, 1, 4, 3]
    assert sum(isinstance(e, str) and e.startswith("raised") for e in events) == 2
    # Job 3 took the server its parent freed at 0.3 + 0.1 + 0.1.
    assert seen["log"][-1] == (0.3 + 0.1 + 0.1 + 0.3, 3)


@pytest.mark.parametrize("resources", [engine, reference], ids=["engine", "reference"])
def test_constructors_refuse_the_same_bad_inputs(resources):
    sim = Simulator()
    with pytest.raises(SimError, match="bandwidth"):
        resources.BandwidthPipe(sim, 0.0)
    with pytest.raises(SimError, match="bandwidth"):
        resources.BandwidthPipe(sim, -1.0)


@dataclass(frozen=True)
class CoreProgram:
    servers: int                        # the other servers
    pipe: Tuple[float, float]           # the hand-off pipe's (bandwidth, latency)
    ops: Tuple[Op, ...]


@st.composite
def core_programs(draw, handoffs: bool) -> CoreProgram:
    servers = draw(st.integers(1, 2))
    pipe = draw(st.tuples(st.sampled_from(BANDWIDTHS), st.sampled_from(LATENCIES)))
    kinds = (
        ("core", "core", "handoff", "pickup", "job") if handoffs else ("core", "core", "job")
    )
    ops = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        ops.append(
            Op(
                kind=kind,
                target=draw(st.integers(0, 1)),
                amount=draw(st.sampled_from(SERVICE_TIMES if kind == "job" else CORE_TIMES)),
                priority=draw(st.sampled_from(PRIORITIES)) if kind == "job" else 0,
                at=draw(st.sampled_from(TIMES)),
                parent=draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
                # A hand-off's transfer starts inside the run, where a
                # staged pipe could not refuse it at admission.
                size=draw(st.sampled_from(SIZES[:-1])) if kind in ("handoff", "pickup") else 0,
                then=draw(st.sampled_from(THEN_S)) if kind == "pickup" else 0.0,
            )
        )
    return CoreProgram(servers, pipe, tuple(ops))


def execute_core(resources, program: CoreProgram):
    """Run ``program`` with ``resources``' core (the engine's ``Core``, the
    reference's one-server ``Server``) and hand-offs; return all that is
    observable."""
    sim = Simulator()
    bandwidth, latency = program.pipe
    pipe = resources.BandwidthPipe(sim, bandwidth, latency)
    delivered = {}              # op -> the instant its transfer delivered
    if resources is engine:
        core = engine.Core(sim)

        def handoff(i, service_time, size, done, then_s=0.0):
            delivered[i] = pipe.transfer_after(core, service_time, size, done, then_s)
    else:
        core = reference.Server(sim)

        def handoff(i, service_time, size, done, then_s=None):
            def arrived():
                delivered[i] = sim.now
                if then_s is None:
                    done()
                else:
                    sim.schedule_call(then_s, lambda _arg: done(), None)

            core.submit(service_time, lambda: pipe.transfer(size, arrived))
    servers = [resources.Server(sim) for _ in range(program.servers)]
    children = defaultdict(list)
    for i, op in enumerate(program.ops):
        children[op.parent].append(i)
    log = []
    idle = []

    def issue(i: int) -> None:
        op = program.ops[i]

        def done() -> None:
            log.append((sim.now, i))
            idle.append(core.idle)
            for child in children[i]:
                issue(child)

        try:
            if op.kind == "core":
                core.submit(op.amount, done)
            elif op.kind == "handoff":
                handoff(i, op.amount, op.size, done)
            elif op.kind == "pickup":
                handoff(i, op.amount, op.size, done, op.then)
            else:
                servers[op.target % len(servers)].submit(op.amount, done, priority=op.priority)
        except SimError as error:
            log.append((sim.now, f"raised {i}: {error}"))

    for i in children[None]:
        sim.schedule_at(program.ops[i].at, partial(issue, i))
    end = sim.run()
    return {
        "log": log,
        "idle": idle,
        "delivered": delivered,
        "end": end,
        "event_count": sim.event_count,
        "pending": sim.pending_events,
        "core": (core.busy_time, core.jobs_started, core.idle),
        "servers": [(s.busy_time, s.jobs_started, s.jobs_completed) for s in servers],
        "pipe": (pipe.bytes_transferred, pipe.utilization()),
    }


def a_core_event_ties(program: CoreProgram, seen) -> bool:
    """Whether a core completion or a delivery shares its float instant
    with an event of another resource or a root issue."""
    sharing = defaultdict(set)
    for op in program.ops:
        if op.parent is None:
            sharing[op.at].add("root")
    for instant, what in seen["log"]:
        if isinstance(what, int):
            op = program.ops[what]
            if op.kind == "job":
                sharing[instant].add(("job", op.target % program.servers))
            else:
                sharing[instant].add(op.kind)
    return any(
        len(who) > 1 and who & {"core", "handoff", "pickup"} for who in sharing.values()
    )


def _core_equal(program: CoreProgram, handoffs: bool) -> None:
    want = execute_core(reference, program)
    assume(not a_core_event_ties(program, want))
    got = execute_core(engine, program)
    kinds = [program.ops[what].kind for _, what in want["log"] if isinstance(what, int)]
    hops = (kinds.count("handoff") + kinds.count("pickup")) * (
        2 if program.pipe[1] > 0 else 1
    ) + kinds.count("pickup")
    assert got.pop("event_count") == want.pop("event_count") - hops
    if handoffs:
        # A hand-off keeps the core busy until its delivery, where the
        # Server freed at the job's end.
        got.pop("idle"), want.pop("idle")
    assert got == want


@settings(max_examples=300, deadline=None)
@given(core_programs(handoffs=False))
def test_the_closed_form_core_is_the_server_when_no_completion_ties(program):
    _core_equal(program, handoffs=False)


@settings(max_examples=300, deadline=None)
@given(core_programs(handoffs=True))
def test_core_then_pipe_is_server_then_staged_pipe_when_nothing_ties(program):
    _core_equal(program, handoffs=True)


def test_core_streams_exercise_every_path():
    """One fixed stream reaches the free, queued and hand-off paths, a
    hand-off queued on the pipe, and a refusal."""
    core = partial(Op, "core", 0, priority=0, at=0.0, parent=None)
    program = CoreProgram(
        servers=1,
        pipe=(4e9, 0.1),
        ops=(
            core(amount=0.3),                                       # free core
            core(amount=0.2),                                       # queued
            Op("handoff", 0, 0.25, 0, 0.0, None, size=8),           # queued, then the pipe
            Op("handoff", 0, 0.0, 0, 0.0, None, size=4),            # queues on the pipe
            Op("core", 0, 0.3, 0, 0.0, 1),                          # from a callback
            core(amount=-1.0),                                      # refused: negative
        ),
    )
    seen = execute_core(engine, program)
    staged = execute_core(reference, program)
    assert seen.pop("event_count") == staged.pop("event_count") - 4
    seen.pop("idle"), staged.pop("idle")
    assert seen == staged
    done = {what: instant for instant, what in seen["log"] if isinstance(what, int)}
    assert list(done) == [0, 1, 2, 3, 4]
    assert sum(isinstance(what, str) for _, what in seen["log"]) == 1
    # The hand-offs leave the core at 0.75 and share the pipe; job 4 took
    # the core at 0.75.
    assert done[2] == 0.3 + 0.2 + 0.25 + 8 / 4e9 + 0.1
    assert done[3] == 0.3 + 0.2 + 0.25 + 8 / 4e9 + 4 / 4e9 + 0.1
    assert done[4] == 0.3 + 0.2 + 0.25 + 0.3


def test_a_pickup_is_one_event_then_s_after_its_delivery():
    """One fixed stream: two hand-offs with a pickup delay, one queued
    behind a core job and one issued from its callback with a zero
    delay, against a ``Server``, the staged pipe and ``schedule_call``."""
    program = CoreProgram(
        servers=1,
        pipe=(4e9, 0.1),
        ops=(
            Op("core", 0, 0.3, 0, 0.0, None),                              # free core
            Op("pickup", 0, 0.25, 0, 0.0, None, size=8, then=2e-6),        # queued
            Op("pickup", 0, 0.13, 0, 0.0, 1, size=4, then=0.0),            # from a callback
        ),
    )
    seen = execute_core(engine, program)
    staged = execute_core(reference, program)
    # Per pickup the staged side has the job's end, the bus-finish, the
    # latency hop and the scheduled call; the engine has one event.
    assert seen.pop("event_count") == staged.pop("event_count") - 2 * 3
    seen.pop("idle"), staged.pop("idle")
    assert seen == staged
    landed = 0.3 + 0.25 + 8 / 4e9 + 0.1
    done = {what: instant for instant, what in seen["log"]}
    assert seen["delivered"][1] == landed and done[1] == landed + 2e-6
    assert done[2] == seen["delivered"][2] == (landed + 2e-6 + 0.13) + 4 / 4e9 + 0.1


def test_the_core_is_busy_until_its_last_event_has_run():
    """``idle`` is false up to and including the instant of the core's
    last event — a completion, or the delivery a completion rides — until
    that event has run; ``run_until`` on it stops right after it."""
    sim = Simulator()
    core = engine.Core(sim)
    pipe = engine.BandwidthPipe(sim, 1e6, 1e-3)
    seen = []
    probe = lambda: seen.append((sim.now, core.idle))  # noqa: E731
    sim.schedule(1e-3, probe)                           # runs before the completion
    assert core.idle
    core.submit(1e-3, probe)
    assert not core.idle
    sim.run_until(lambda: core.idle)
    assert seen == [(1e-3, False), (1e-3, True)] and sim.now == 1e-3
    # A hand-off admitted at 1e-3: the job ends at 2e-3, the transfer at
    # 3e-3, the delivery is at 4e-3.
    sim.schedule_at(2e-3, probe)                        # job over, delivery due
    sim.schedule_at(4e-3, probe)                        # runs before the delivery
    pipe.transfer_after(core, 1e-3, 1000, probe)
    sim.run_until(lambda: core.idle)
    assert seen[2:] == [(2e-3, False), (4e-3, False), (4e-3, True)]
    assert sim.now == 4e-3 and core.jobs_started == 2 and pipe.bytes_transferred == 1000
    # A job admitted after a hand-off can finish before its delivery.
    pipe.transfer_after(core, 1e-3, 1000, probe)
    core.submit(0.0, probe)
    sim.run_until(lambda: core.idle)
    assert [idle for _, idle in seen[5:]] == [False, True]
    assert sim.now == 4e-3 + 1e-3 + 1e-3 + 1e-3
    # A hand-off with a pickup delay: busy at its delivery, until the
    # pickup ``then_s`` later has run.
    delivered = pipe.transfer_after(core, 1e-3, 1000, probe, 5e-4)
    sim.schedule_at(delivered, probe)
    sim.run_until(lambda: core.idle)
    assert seen[7:] == [(delivered, False), (delivered + 5e-4, True)]
