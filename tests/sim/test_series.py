"""``Simulator.schedule_series`` is scheduling every event eagerly, with
only the next event of a series in the heap.

A random program plants eager events and series, and its events may
schedule zero-delay work, more eager events or a whole new series when
they fire.  It runs twice: once with each series planted through
``schedule_series`` and once with one ``schedule_at`` per event.  Every
dispatch is logged with the clock, the sequence counter, the event
count, ``pending_events`` and the answer of ``is_latest`` for every
handle held, and the runs are stopped mid-series by ``run(until=...)``
and ``run_until`` and resumed.  The two logs must be equal.

On the benchmark workloads (the 1/10-size census runs of
``tests/golden/workload_runs.py``) the heap holds what is in flight:
the run starts with one event per planned series, and the heap never
gets as long as the number of requests planted.
"""

from __future__ import annotations

import gc
import math
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perf.workloads import BY_NAME
from repro.sim.kernel import SimError, Simulator

from ..golden.workload_runs import SEEDS, observed

GRID = st.integers(0, 4).map(float)     # few instants: ties and zero gaps
OFFSETS = st.lists(GRID, max_size=6).map(sorted)

# An event's action when it fires: nothing, zero-delay work, an eager
# event ``delay`` from now, or a series armed at ``now + offsets``.
LEAF = st.one_of(
    st.none(),
    st.just(("zero",)),
    st.tuples(st.just("eager"), GRID),
)
ACTION = st.one_of(
    LEAF,
    st.tuples(st.just("arm"), OFFSETS, st.lists(LEAF, min_size=6, max_size=6)),
)
PLANT = st.one_of(
    st.tuples(st.just("at"), GRID, ACTION),
    st.tuples(st.just("call"), GRID, ACTION),
    st.tuples(st.just("series"), OFFSETS, st.lists(ACTION, min_size=6, max_size=6)),
)
STOP = st.one_of(
    st.tuples(st.just("until"), st.floats(0.0, 9.0)),
    st.tuples(st.just("count"), st.integers(1, 12)),
)


class Driver:
    """Runs one program; ``lazy`` plants series with ``schedule_series``."""

    def __init__(self, lazy: bool):
        self.sim = Simulator()
        self.lazy = lazy
        self.log = []
        self.handles = []
        self.labels = 0

    def label(self) -> int:
        self.labels += 1
        return self.labels

    def plant_series(self, times, actions) -> None:
        args = [(self.label(), action) for action in actions[: len(times)]]
        if self.lazy:
            self.sim.schedule_series(times, self.fire, args)
        else:
            for t, arg in zip(times, args):
                self.sim.schedule_at(t, partial(self.fire, arg))

    def plant(self, op) -> None:
        kind, what, action = op
        sim = self.sim
        if kind == "at":
            thunk = partial(self.fire, (self.label(), action))
            self.handles.append(sim.schedule_at(sim.now + what, thunk))
        elif kind == "call":
            self.handles.append(sim.schedule_call(what, self.fire, (self.label(), action)))
        else:
            self.plant_series([sim.now + t for t in what], action)

    def fire(self, arg) -> None:
        label, action = arg
        sim = self.sim
        self.log.append((
            "fire", label, sim.now, sim._seq, sim.event_count, sim.pending_events,
            tuple(sim.is_latest(h) for h in self.handles),
        ))
        if action is None:
            return
        if action[0] == "zero":
            sim.schedule_call(0.0, self.fire, (self.label(), None))
        elif action[0] == "eager":
            self.plant(("call", action[1], None))
        else:
            self.plant(("series", action[1], action[2]))

    def stop(self, how) -> None:
        sim = self.sim
        if how[0] == "until":
            sim.run(until=max(how[1], sim.now))
        else:
            target = sim.event_count + how[1]
            try:
                sim.run_until(lambda: sim.event_count >= target)
            except SimError as err:
                self.log.append(("hang", str(err)))
        self.log.append(("stop", sim.now, sim._seq, sim.event_count, sim.pending_events))


def play(program, stops, lazy: bool) -> Driver:
    driver = Driver(lazy)
    for op in program:
        driver.plant(op)
    driver.log.append(("planted", driver.sim._seq, driver.sim.pending_events))
    for how in stops:
        driver.stop(how)
    driver.sim.run()
    driver.stop(("until", 0.0))
    return driver


@settings(max_examples=200, deadline=None)
@given(st.lists(PLANT, max_size=6), st.lists(STOP, max_size=4))
def test_a_series_runs_as_if_every_event_were_scheduled_eagerly(program, stops):
    lazy = play(program, stops, lazy=True)
    eager = play(program, stops, lazy=False)
    assert lazy.log == eager.log
    assert not lazy.sim._heap and not eager.sim._heap


def test_the_heap_holds_one_event_per_series():
    sim = Simulator()
    fired = []
    sim.schedule_series([1.0, 2.0, 2.0, 3.0], fired.append, "abcd")
    sim.schedule_series([0.5, 2.0], fired.append, "xy")
    assert len(sim._heap) == 2 and sim.pending_events == 6 and sim._seq == 6
    sim.run(until=2.0)
    assert fired == ["x", "a", "b", "c", "y"]   # equal times run in planting order
    assert len(sim._heap) == 1 and sim.pending_events == 1
    sim.run()
    assert fired == ["x", "a", "b", "c", "y", "d"] and sim.event_count == 6


def test_a_fired_argument_is_released():
    class Arg:
        pass

    args = [Arg() for _ in range(3)]
    refs = [weakref.ref(a) for a in args]
    sim = Simulator()
    sim.schedule_series([1.0, 2.0, 3.0], lambda _arg: None, args)
    del args
    gc.collect()
    assert all(ref() is not None for ref in refs)
    sim.step()
    assert refs[0]() is None and refs[1]() is not None and refs[2]() is not None
    sim.run()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    "times, args, match",
    [
        ([2.0, 1.0], "ab", "before 2.0"),
        ([0.5, 2.0], "ab", "before 1.0"),
        ([1.0, math.nan, 3.0], "abc", "nan"),
        ([math.nan], "a", "nan"),
        ([1.0, 2.0], "abc", "3 arguments"),
    ],
    ids=["out-of-order", "past", "nan", "nan-first", "lengths"],
)
def test_a_bad_series_is_refused_before_anything_is_scheduled(times, args, match):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimError, match=match):
        sim.schedule_series(times, print, args)
    assert sim._seq == 2 and sim.pending_events == 1 and len(sim._heap) == 1


def test_an_empty_series_schedules_nothing():
    sim = Simulator()
    sim.schedule_series([], print, [])
    assert sim._seq == 0 and not sim._heap


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_the_heap_of_a_benchmark_run_holds_what_is_in_flight(name, seed):
    """Planted eagerly, a run started with every arrival (and every update
    batch) in the heap: 109-180 deep against 100 requests planted, and
    1,201 against 1,200 on ``dram_serve``."""
    _record, census = observed(name, seed)
    assert census.start_depth == census.series, (census.start_depth, census.series)
    assert census.max_depth < census.planted, (census.max_depth, census.planted)
