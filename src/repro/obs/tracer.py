"""Sim-time request tracing: spans, instant events, and causality.

The :class:`Tracer` is a passive observer of the simulated timeline.  It
is installed on a :class:`~repro.sim.kernel.Simulator` (``tracer.install(sim)``
sets ``sim.tracer``), and every instrumentation site in the stack guards
itself with ``tracer = sim.tracer`` / ``if tracer is not None`` — when no
tracer is installed the entire subsystem costs one attribute load per
site.  A tracer NEVER schedules simulator events and NEVER draws random
numbers: with tracing on or off, the event timeline and every simulated
number are bit-identical (pinned by ``tests/test_golden.py``).

Spans
-----
A :class:`Span` is a named ``[t0, t1]`` interval in *simulated* seconds
with an optional parent and free-form attributes::

    span = tracer.begin("nvme.cmd", opcode="READ", cid=7)   # t0 = sim.now
    ...                                                     # async work
    tracer.end(span)                                        # t1 = sim.now

Because the simulator is a single-threaded callback loop, synchronous
call chains can use the context-manager form, which also maintains the
*current-span stack* used for implicit parenting::

    with tracer.span("batch", model="dlrm", requests=ids):
        worker.stage.start(...)     # sites below see this span as parent

Async continuations (an NVMe completion, a batch-done callback) carry
their :class:`Span` handle through the closure and call :meth:`end`
explicitly; :meth:`push` / :meth:`pop` bracket a synchronous section
under an async span without ending it.

Spans whose interval is only known after the fact (e.g. the per-request
tree synthesized from request timestamps at completion) are recorded
retrospectively with :meth:`add`.

Instant events (:meth:`event`) mark zero-duration occurrences — routing
decisions, drops, fault injections — and parent under the current stack
top like spans do.

The trace is just ``tracer.spans`` + ``tracer.events`` (lists, in
creation order).  ``repro.obs.analysis`` builds per-request trees and
latency attributions from it; ``repro.obs.export`` serializes it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER"]


class Span:
    """A named sim-time interval with parent causality and attributes."""

    __slots__ = ("sid", "name", "t0", "t1", "parent_sid", "attrs")

    def __init__(
        self,
        sid: int,
        name: str,
        t0: float,
        parent_sid: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.t1: Optional[float] = None
        self.parent_sid = parent_sid
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def done(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise ValueError(f"span {self.name!r} (sid={self.sid}) not ended")
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "parent_sid": self.parent_sid,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        end = f"{self.t1:.9f}" if self.t1 is not None else "..."
        return f"Span({self.name!r}, sid={self.sid}, [{self.t0:.9f}, {end}])"


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer.push(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self._tracer.pop()
        self._tracer.end(self.span)


class Tracer:
    """Collects spans and instant events against a simulator's clock."""

    def __init__(self) -> None:
        self.sim = None
        self.spans: List[Span] = []
        self.events: List[Span] = []
        self._stack: List[Span] = []
        self._next_sid = 1

    # ------------------------------------------------------------------
    # installation
    def install(self, sim) -> "Tracer":
        """Attach to ``sim`` so instrumentation sites find this tracer."""
        if self.sim is not None and self.sim is not sim:
            raise RuntimeError("tracer already installed on another simulator")
        self.sim = sim
        sim.tracer = self
        return self

    def uninstall(self) -> None:
        if self.sim is not None:
            self.sim.tracer = None
            self.sim = None

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ------------------------------------------------------------------
    # span lifecycle
    def _new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def begin(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Open a span at ``sim.now``.  ``parent=None`` uses the current
        stack top (or no parent if the stack is empty)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            self._new_sid(),
            name,
            self.now,
            parent.sid if parent is not None else None,
            attrs if attrs else None,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` at ``sim.now``."""
        if span.t1 is not None:
            raise ValueError(f"span {span.name!r} (sid={span.sid}) ended twice")
        span.t1 = self.now
        return span

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a retrospective, already-complete span ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"span {name!r} ends before it starts: {t1} < {t0}")
        span = Span(
            self._new_sid(),
            name,
            t0,
            parent.sid if parent is not None else None,
            attrs if attrs else None,
        )
        span.t1 = t1
        self.spans.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instant (zero-duration) event at ``sim.now``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._new_sid(),
            name,
            self.now,
            parent.sid if parent is not None else None,
            attrs if attrs else None,
        )
        span.t1 = span.t0
        self.events.append(span)
        return span

    # ------------------------------------------------------------------
    # current-span stack (implicit parenting for synchronous sections)
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Context manager: begin + push on enter, pop + end on exit."""
        return _SpanContext(self, self.begin(name, **attrs))

    def push(self, span: Span) -> None:
        """Make ``span`` the implicit parent for sites called below."""
        self._stack.append(span)

    def pop(self) -> Span:
        return self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # inspection
    def find(self, name: str) -> List[Span]:
        """All spans (not events) with ``name``, in creation order."""
        return [s for s in self.spans if s.name == name]

    def iter_all(self) -> Iterator[Span]:
        """Spans then events, each in creation order."""
        yield from self.spans
        yield from self.events

    def reset(self) -> None:
        """Drop all recorded spans/events (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open stack spans")
        self.spans.clear()
        self.events.clear()

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
            f"installed={self.sim is not None})"
        )


#: Sentinel no-op default: ``sim.tracer`` is ``None`` (checked with
#: ``is not None`` at every site), but code that wants an
#: always-callable tracer object can use ``NULL_TRACER`` — it swallows
#: everything and records nothing.
class _NullTracer(Tracer):
    def begin(self, name, parent=None, **attrs):  # pragma: no cover - trivial
        return Span(0, name, 0.0)

    def end(self, span):
        span.t1 = span.t0
        return span

    def add(self, name, t0, t1, parent=None, **attrs):
        span = Span(0, name, t0)
        span.t1 = t1
        return span

    def event(self, name, **attrs):
        span = Span(0, name, 0.0)
        span.t1 = 0.0
        return span

    def install(self, sim):
        raise RuntimeError("NULL_TRACER cannot be installed")


NULL_TRACER = _NullTracer()
