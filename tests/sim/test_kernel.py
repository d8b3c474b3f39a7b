"""Tests for the DES kernel: ordering, cancellation, the clock."""

import math

import pytest

from repro.sim.kernel import SimError


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3e-6, lambda: order.append("c"))
        sim.schedule(1e-6, lambda: order.append("a"))
        sim.schedule(2e-6, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self, sim):
        order = []
        for i in range(5):
            sim.schedule(1e-6, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(5e-6, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(5e-6)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1e-6, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(0.0, lambda: None)

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda sim: sim.schedule(math.nan, print),
            lambda sim: sim.schedule_at(math.nan, print),
            lambda sim: sim.schedule_call(math.nan, print, "arg"),
        ],
        ids=["schedule", "schedule_at", "schedule_call"],
    )
    def test_nan_time_refused(self, sim, schedule):
        """A NaN time compares false with everything, so the heap would
        run it ahead of finite events that are due earlier."""
        sim.schedule(1e-6, lambda: None)
        with pytest.raises(SimError):
            schedule(sim)
        assert sim.pending_events == 1

    def test_cancellation(self, sim):
        fired = []
        handle = sim.schedule(1e-6, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert not fired
        assert handle.cancelled

    def test_run_until_time_limit(self, sim):
        fired = []
        sim.schedule(1e-6, lambda: fired.append(1))
        sim.schedule(10e-6, lambda: fired.append(2))
        sim.run(until=5e-6)
        assert fired == [1]
        assert sim.now == pytest.approx(5e-6)
        sim.run()
        assert fired == [1, 2]

    def test_run_until_a_past_time_is_refused(self, sim):
        # Regression: run(until=3.0) at now == 6.0 with a later event
        # pending set the clock back to 3.0, after which schedule_at(4.0)
        # was accepted although 6.0 had already been simulated.
        sim.schedule_at(6.0, lambda: None)
        sim.schedule_at(9.0, lambda: None)
        sim.run(until=6.0)
        assert sim.now == 6.0
        with pytest.raises(SimError, match="before current time"):
            sim.run(until=3.0)
        assert sim.now == 6.0
        with pytest.raises(SimError):
            sim.schedule_at(4.0, lambda: None)
        # run(until=now) stays a no-op.
        assert sim.run(until=6.0) == 6.0
        assert sim.event_count == 1
        assert sim.run() == 9.0

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1e-6, lambda: order.append("inner"))

        sim.schedule(1e-6, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == pytest.approx(2e-6)

    def test_run_until_predicate(self, sim):
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 10:
                sim.schedule(1e-6, tick)

        sim.schedule(1e-6, tick)
        sim.run_until(lambda: state["n"] >= 3)
        assert state["n"] == 3
        sim.run()
        assert state["n"] == 10

    def test_run_until_raises_when_drained(self, sim):
        with pytest.raises(SimError, match="event heap drained") as err:
            sim.run_until(lambda: False)
        assert "pending_events=0" in str(err.value)

    def test_run_until_says_when_the_limit_stopped_it(self, sim):
        # Regression: this used to claim "event heap drained" with two
        # events still pending.
        for t in (1e-6, 2e-6, 3e-6, 4e-6):
            sim.schedule(t, lambda: None)
        with pytest.raises(SimError, match="limit reached") as err:
            sim.run_until(lambda: False, limit=1.5e-6)
        message = str(err.value)
        assert "drained" not in message
        assert "limit=1.5e-06" in message
        assert f"now={sim.now}" in message
        assert "pending_events=2" in message
        # The event that crosses the limit still runs.
        assert sim.event_count == 2

    def test_event_count(self, sim):
        for _ in range(7):
            sim.schedule(1e-6, lambda: None)
        sim.run()
        assert sim.event_count == 7

    def test_pending_events_excludes_cancelled(self, sim):
        h1 = sim.schedule(1e-6, lambda: None)
        sim.schedule(2e-6, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1

    def test_is_latest_until_anything_else_is_scheduled(self, sim):
        from repro.sim.resources import BandwidthPipe, Server

        first = sim.schedule(1e-6, lambda: None)
        assert sim.is_latest(first)
        second = sim.schedule_at(5e-7, lambda: None)  # earlier, but scheduled later
        assert sim.is_latest(second) and not sim.is_latest(first)
        # The engine's own pushes count: a Server job and a pipe
        # transfer each take sequence numbers.
        for schedule_something in (
            lambda: Server(sim).submit(1e-6, lambda: None),
            lambda: BandwidthPipe(sim, 1e9).transfer(64, lambda: None),
        ):
            latest = sim.schedule(1e-6, lambda: None)
            assert sim.is_latest(latest)
            schedule_something()
            assert not sim.is_latest(latest)
        # Running an event schedules nothing: still the latest, though gone.
        last = sim.schedule(0.0, lambda: None)
        sim.step()
        assert sim.is_latest(last)
