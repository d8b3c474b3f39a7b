"""One doorbell event per issue train, against one event per command.

``UnvmeDriver`` lets a command join the push event of the command issued
just before it when nothing else was scheduled in between (and the
instant is the same).  ``PerCommandDriver`` is the parent commit's
``_issue``: one ``schedule_call(submit_cost_s, sq.push, cmd)`` per
command.  Hypothesis draws scripts of issues, unrelated ``schedule``
calls and pauses, and both drivers must push the same commands onto the
same SQs at the same instants, show every unrelated event the same queue
state, and deliver the same completions at the same instants — with
exactly one event fewer per command that joined a train.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.driver.unvme import DriverConfig, UnvmeDriver
from repro.sim.kernel import Simulator
from repro.sim.units import us
from repro.ssd.presets import small_ssd


class PerCommandDriver(UnvmeDriver):
    """The issue of commit ce0b2752faea3761a0d03fd27667ae24ad84d4f2, one
    push event per command, on this driver's command fields (a command
    carries its qpair and callback) and with its round-robin pick folded
    in, as ``UnvmeDriver._issue`` has it."""

    def _issue(self, cmd) -> bool:
        n = len(self._qpairs)
        for k in range(n):
            qp = self._qpairs[(self._rr + k) % n]
            if qp.outstanding < qp.depth:
                break
        else:
            return False
        self._rr = (self._rr + k + 1) % n
        qp.outstanding += 1
        cmd.qp = qp
        cmd.submit_time = self.sim.now
        self._callbacks[cmd.cid] = cmd
        self.commands_issued += 1
        # Submission cost: build SQE + doorbell write from the host thread.
        self.sim.schedule_call(self.config.submit_cost_s, qp.sq.push, cmd)
        return True


# ("issue", slba) | ("issue in 1 us", slba) | ("schedule", delay in submit
# costs) | ("pause", microseconds)
Step = Tuple[str, float]
steps = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), st.integers(0, 31)),
        st.tuples(st.just("issue"), st.integers(0, 31)),
        st.tuples(st.just("issue"), st.integers(0, 31)),
        # Scheduled *before* the issues that follow it in the script, so
        # when it runs their train may still be the latest event — but it
        # was opened at an earlier instant and must not be joined.
        st.tuples(st.just("issue in 1 us"), st.integers(0, 31)),
        # Delay 1.0 lands exactly on the push instant of a command issued
        # now: the tie a train must not reorder.
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0, 1.0, 2.5])),
        st.tuples(st.just("pause"), st.sampled_from([0.0, 1.0, 3.0, 40.0])),
    ),
    min_size=1,
    max_size=30,
)


def execute(driver_cls, script: List[Step], submit_cost_s: float = us(3.0)) -> dict:
    sim = Simulator()
    device = small_ssd(sim)
    # Depth 2 x 2 pairs: scripts overflow into the backlog, which drains
    # (and issues) from inside completion delivery.
    driver = driver_cls(
        sim, device, DriverConfig(num_qpairs=2, queue_depth=2, submit_cost_s=submit_cost_s)
    )
    pushes, seen, completions = [], [], []
    for qp in driver._qpairs:
        def push(cmd, qp=qp, push=qp.sq.push):
            pushes.append((sim.now, qp.qid, cmd.slba))
            push(cmd)

        qp.sq.push = push
    rings = []
    if hasattr(driver, "_ring_doorbells"):
        ring = driver._ring_doorbells

        def counting(train):
            rings.append(len(train))
            ring(train)

        driver._ring_doorbells = counting

    def observe(tag: int) -> None:
        seen.append(
            (sim.now, tag, [qp.sq.submitted for qp in driver._qpairs], driver.outstanding)
        )

    def issue(i: int) -> None:
        driver.read(int(script[i][1]), 1, lambda cpl: completions.append(
            (sim.now, i, cpl.status, cpl.complete_time)
        ))

    def play(position: int) -> None:
        for i in range(position, len(script)):
            kind, amount = script[i]
            if kind == "issue":
                issue(i)
            elif kind == "issue in 1 us":
                sim.schedule(us(1.0), lambda i=i: issue(i))
            elif kind == "schedule":
                sim.schedule(amount * submit_cost_s, lambda i=i: observe(i))
            else:
                sim.schedule(us(amount), lambda i=i: play(i + 1))
                return

    play(0)
    sim.run()
    issued = sum(kind.startswith("issue") for kind, _ in script)
    assert len(completions) == issued and driver.outstanding == 0
    return {
        "pushes": pushes,
        "seen": seen,
        "completions": completions,
        "now": sim.now,
        "issued": driver.commands_issued,
        "events": sim.event_count,
        "rings": rings,
    }


def assert_same_but_for_the_fused_events(script, **config) -> dict:
    got = execute(UnvmeDriver, script, **config)
    want = execute(PerCommandDriver, script, **config)
    for key in ("pushes", "seen", "completions", "now", "issued"):
        assert got[key] == want[key], key
    assert sum(got["rings"]) == got["issued"]
    assert got["events"] == want["events"] - (got["issued"] - len(got["rings"]))
    return got


@settings(max_examples=200, deadline=None)
@given(script=steps, free_submit=st.booleans())
def test_same_pushes_observations_and_completions(script, free_submit):
    # A zero submit cost puts the push in the issuing instant itself: a
    # train that already ran must not be joined.
    assert_same_but_for_the_fused_events(script, submit_cost_s=0.0 if free_submit else us(3.0))


def test_commands_of_one_instant_ride_one_event():
    got = assert_same_but_for_the_fused_events([("issue", slba) for slba in range(4)])
    assert got["rings"] == [4]
    assert [slba for _, _, slba in got["pushes"]] == [0, 1, 2, 3]
    assert {instant for instant, _, _ in got["pushes"]} == {us(3.0)}


def test_two_instants_are_two_trains():
    script = [("issue", 0), ("issue", 1), ("pause", 1.0), ("issue", 2), ("issue", 3)]
    got = assert_same_but_for_the_fused_events(script)
    assert got["rings"] == [2, 2]
    assert [instant for instant, _, _ in got["pushes"]] == [us(3.0)] * 2 + [us(1.0) + us(3.0)] * 2


def test_an_unrelated_event_between_two_issues_splits_the_train():
    # The unrelated event lands on the push instant, after the first
    # command's push and before the second's: it sees one submission.
    script = [("issue", 0), ("schedule", 1.0), ("issue", 1)]
    got = assert_same_but_for_the_fused_events(script)
    assert got["rings"] == [1, 1]
    ((instant, _tag, submitted, outstanding),) = got["seen"]
    assert instant == us(3.0) and sum(submitted) == 1 and outstanding == 2


def test_a_later_instant_does_not_join_a_train_that_is_still_the_latest_event():
    # The delayed issue was scheduled first, so when it runs nothing has
    # been scheduled since the train of command 1 was opened, 1 us earlier.
    script = [("issue in 1 us", 0), ("issue", 1)]
    got = assert_same_but_for_the_fused_events(script)
    assert got["rings"] == [1, 1]
    assert [(instant, slba) for instant, _, slba in got["pushes"]] == [
        (us(3.0), 1), (us(1.0) + us(3.0), 0),
    ]


def test_a_train_that_ran_is_not_joined():
    """With a free submit a train runs in the instant it was opened, and
    when its push lands on an SQ the controller is already fetching from,
    it schedules nothing: it is still the latest event, at the same
    instant, and gone."""
    sim = Simulator()
    device = small_ssd(sim)
    driver = UnvmeDriver(
        sim, device, DriverConfig(num_qpairs=1, queue_depth=8, submit_cost_s=0.0)
    )
    (qp,) = driver._qpairs
    done = []
    driver.read(0, 1, done.append)
    sim.schedule(us(0.5), lambda: driver.read(1, 1, done.append))    # mid-fetch of the first
    sim.run_until(lambda: qp.sq.submitted == 2)
    assert sim.now == us(0.5) and sim.is_latest(driver._train_event)
    driver.read(2, 1, done.append)
    sim.run()
    assert len(done) == 3 and driver.outstanding == 0
