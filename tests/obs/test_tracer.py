"""Tracer unit tests: span lifecycle, stack parenting, install contract."""

from __future__ import annotations

import pytest

from repro.obs import NULL_TRACER, Span, Tracer
from repro.sim.kernel import Simulator


def test_span_lifecycle_and_duration():
    tracer = Tracer()
    span = tracer.begin("work", kind="unit")
    assert not span.done
    tracer.end(span)
    assert span.done
    assert span.duration == 0.0  # no sim installed -> clock pinned at 0
    assert span.attrs == {"kind": "unit"}
    d = span.to_dict()
    assert d["name"] == "work" and d["sid"] == span.sid


def test_install_uses_sim_clock():
    sim = Simulator()
    tracer = Tracer().install(sim)
    assert sim.tracer is tracer
    span = tracer.begin("op")
    sim.schedule(0.5, lambda: tracer.end(span))
    sim.run()
    assert span.t0 == 0.0 and span.t1 == 0.5
    tracer.uninstall()
    assert sim.tracer is None


def test_stack_parenting_and_context_manager():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        assert tracer.current is outer
        with tracer.span("inner") as inner:
            assert inner.parent_sid == outer.sid
        # explicit begin also inherits the stack top
        child = tracer.begin("child")
        assert child.parent_sid == outer.sid
        tracer.end(child)
    assert tracer.current is None
    assert [s.name for s in tracer.spans] == ["outer", "inner", "child"]


def test_explicit_parent_overrides_stack():
    tracer = Tracer()
    a = tracer.begin("a")
    with tracer.span("unrelated"):
        b = tracer.begin("b", parent=a)
    assert b.parent_sid == a.sid


def test_add_retrospective_and_event():
    tracer = Tracer()
    root = tracer.add("request", 1.0, 3.0, request_id=7)
    child = tracer.add("queue", 1.0, 2.0, parent=root)
    assert child.parent_sid == root.sid
    assert root.duration == 2.0
    ev = tracer.event("drop", reason="deadline")
    assert ev.t0 == ev.t1
    assert tracer.events == [ev]
    with pytest.raises(ValueError):
        tracer.add("bad", 2.0, 1.0)


def test_end_twice_raises():
    tracer = Tracer()
    span = tracer.begin("x")
    tracer.end(span)
    with pytest.raises(ValueError):
        tracer.end(span)


def test_pop_empty_and_reset_guard():
    tracer = Tracer()
    with pytest.raises(IndexError):
        tracer.pop()
    span = tracer.begin("open")
    tracer.push(span)
    with pytest.raises(RuntimeError):
        tracer.reset()
    tracer.pop()
    tracer.end(span)
    tracer.reset()
    assert len(tracer) == 0 and tracer.events == []


def test_find_iter_len():
    tracer = Tracer()
    for _ in range(3):
        tracer.end(tracer.begin("a"))
    tracer.end(tracer.begin("b"))
    tracer.event("e")
    assert len(tracer.find("a")) == 3
    assert len(tracer) == 5  # spans + events
    assert sum(1 for _ in tracer.iter_all()) == 5


def test_null_tracer_is_inert():
    before = len(NULL_TRACER)
    span = NULL_TRACER.begin("x")
    NULL_TRACER.end(span)
    NULL_TRACER.add("y", 0.0, 1.0)
    NULL_TRACER.event("z")
    assert len(NULL_TRACER) == before == 0
    assert NULL_TRACER.events == []
    with pytest.raises(RuntimeError):
        NULL_TRACER.install(Simulator())
