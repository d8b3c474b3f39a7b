"""Tests for the DES kernel: ordering, cancellation, processes."""

import pytest

from repro.sim.kernel import Signal, SimError, Simulator, Timeout, drain


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


class TestProcesses:
    def test_timeout_sequence(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield Timeout(2e-6)
            trace.append(sim.now)
            yield Timeout(3e-6)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == pytest.approx([0.0, 2e-6, 5e-6])

    def test_process_result_and_join(self, sim):
        def worker():
            yield Timeout(1e-6)
            return 42

        results = []
        proc = sim.process(worker())
        proc.join(results.append)
        sim.run()
        assert results == [42]
        assert proc.result == 42
        assert not proc.alive

    def test_join_after_completion(self, sim):
        def worker():
            yield Timeout(1e-6)
            return "done"

        proc = sim.process(worker())
        sim.run()
        late = []
        proc.join(late.append)
        sim.run()
        assert late == ["done"]

    def test_wait_on_signal(self, sim):
        signal = Signal(sim)
        got = []

        def waiter():
            value = yield signal
            got.append(value)

        sim.process(waiter())
        sim.schedule(4e-6, lambda: signal.fire("hello"))
        sim.run()
        assert got == ["hello"]

    def test_signal_wakes_all_waiters(self, sim):
        signal = Signal(sim)
        got = []

        def waiter(i):
            value = yield signal
            got.append((i, value))

        for i in range(3):
            sim.process(waiter(i))
        sim.schedule(1e-6, lambda: signal.fire("x"))
        sim.run()
        assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]

    def test_process_waits_on_process(self, sim):
        trace = []

        def child():
            yield Timeout(5e-6)
            return "child-result"

        def parent():
            value = yield sim.process(child())
            trace.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert trace == [(pytest.approx(5e-6), "child-result")]

    def test_drain_runs_all(self, sim):
        def worker(d):
            yield Timeout(d)

        procs = [sim.process(worker(i * 1e-6)) for i in range(1, 4)]
        drain(sim, procs)
        assert all(not p.alive for p in procs)

    def test_invalid_yield_raises(self, sim):
        def bad():
            yield "nonsense"

        sim.process(bad())
        with pytest.raises(SimError):
            sim.run()
