"""Host time per layer: spans around the benchmark's calls, cProfile inside.

The stack is event-driven, so most device work runs in callbacks that
``Simulator.run_until`` dispatches, not beneath the call that scheduled
it.  Timing only the public entry points would therefore charge almost
everything to ``run_workload``.  Instead each span enables the stdlib
profile hook, which times every function call, and :func:`attribute`
folds the resulting table by the package a function is defined in.
Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro

__all__ = ["LAYERS", "PHASES", "layer_of", "attribute", "Tracer", "NO_TRACE"]

# One layer per ``src/repro`` package that does work in the benchmark.
# ``host`` also takes ``ssd`` (both only assemble components); ``harness``
# takes the benchmark's own frames, the idle packages (``obs``, ``faults``,
# ``experiments``) and anything that cannot be traced back to a caller.
LAYERS = (
    "sim", "flash", "ftl", "nvme", "core", "driver", "embedding", "models",
    "serving", "workload", "cluster", "traces", "host", "harness",
)
PHASES = ("setup", "run")

_REPRO_ROOT = Path(repro.__file__).resolve().parent
_PERF_ROOT = Path(__file__).resolve().parent
_FOLDED = {"ssd": "host"}

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for stdlib, numpy and C."""
    path = Path(filename)
    if _REPRO_ROOT in path.parents:
        package = path.relative_to(_REPRO_ROOT).parts[0]
        layer = _FOLDED.get(package, package)
        return layer if layer in LAYERS else "harness"
    if _PERF_ROOT in path.parents:
        return "harness"
    return None


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats`` table into ``{layer: {"self_s", "calls_in"}}``.

    ``stats`` is the table ``cProfile.Profile.create_stats`` builds (and
    ``pstats`` reads): ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)``.  A layer's self time is the
    summed ``tt`` of its functions.  Self time of a
    function outside every layer (C builtins, numpy, stdlib) is charged,
    caller edge by caller edge, to the layer of the Python caller — through
    further outside callers if need be — so it lands on whoever asked for
    the work instead of in an "other" bucket.  ``calls_in`` counts calls
    into a layer's functions made directly from another layer's.  The self
    times sum to the table's total.
    """
    table = {layer: {"self_s": 0.0, "calls_in": 0.0} for layer in LAYERS}
    shares_memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, seen: frozenset) -> Dict[str, float]:
        """How an outside function's callers split over the layers."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in seen:
            return {"harness": 1.0}
        split: Dict[str, float] = {}
        total = 0.0
        for caller, (ncalls, _cc, _tt, ct) in callers.items():
            weight = ct if ct > 0 else float(ncalls)
            total += weight
            for name, share in shares(caller, seen | {func}).items():
                split[name] = split.get(name, 0.0) + weight * share
        result = (
            {name: value / total for name, value in split.items()}
            if total > 0
            else {"harness": 1.0}
        )
        shares_memo[func] = result
        return result

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            table[layer]["self_s"] += tt
            for caller, edge in callers.items():
                caller_layer = layer_of(caller[0])
                if caller_layer is not None and caller_layer != layer:
                    table[layer]["calls_in"] += edge[0]
            continue
        charged = 0.0
        for caller, edge in callers.items():
            charged += edge[2]
            for name, share in shares(caller, frozenset((func,))).items():
                table[name]["self_s"] += edge[2] * share
        # Frames entered before the hook was on have no caller edge.
        table["harness"]["self_s"] += tt - charged
    return table


class Tracer:
    """Spans kept in memory, with one profile per phase.

    A span is ``{id, name, workload, phase, parent, start, end}`` (host
    seconds from ``time.perf_counter``).  Spans given a phase run with
    that phase's profile hook on; they must not nest, because only one
    hook can be active.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self.profiles = {phase: cProfile.Profile() for phase in PHASES}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, phase: Optional[str] = None) -> Iterator[dict]:
        span = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "phase": phase,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        profile = self.profiles[phase] if phase is not None else None
        if profile is not None:
            profile.enable()
        try:
            yield span
        finally:
            if profile is not None:
                profile.disable()
            span["end"] = time.perf_counter()
            self._open.pop()

    def layer_tables(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{phase: attribute(that phase's profile)}``."""
        tables = {}
        for phase, profile in self.profiles.items():
            profile.create_stats()
            tables[phase] = attribute(profile.stats)
        return tables

    def seconds(self, phase: str) -> float:
        """Host seconds spent inside the spans of one phase."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["phase"] == phase
        )


class _NoTrace:
    """Tracing off: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str, phase: Optional[str] = None):
        return self._null


NO_TRACE = _NoTrace()
