#!/usr/bin/env python3
"""Host cost as an exact count: Python frames and numpy calls per layer.

A wall-clock claim needs ten alternating pairs on a shared box, and a
clock that noisy cannot fail a test.  What the host does per request can
be counted instead, and the count is the same run after run on one
interpreter: this script runs each row below at a fixed small size under
``sys.setprofile`` with the collector off and counts, per layer,

* Python frames: a ``call`` event in ``repro`` code is its package's
  layer (``perf.layers.layer_of``, the map behind ``perf``'s
  ``*_self_s`` split); a frame of code outside every layer (a
  dataclass's generated ``__init__``, the stdlib, numpy's Python
  wrappers) is charged to the nearest caller inside one, as ``perf``
  charges their time;
* numpy calls: ``c_call`` events whose function, or the object it is
  bound to, belongs to numpy, charged the same way.  The profiler
  reports builtin functions and methods only, so this count sees
  builtin-method calls only: a ufunc called directly (``ids % n``, a
  compare, ``np.add``), a slice, or a function behind numpy's
  array-function dispatcher (``np.concatenate``) is not one, while a
  ufunc's method (``np.logical_and.reduce``, ``np.add.reduceat``) and
  an array method (``ndarray.take``) are.  Removing operator work can
  therefore leave this count where it was.

Rows: the five ``BENCHMARK.json`` workloads through ``perf.workloads``
(serving only; the update drain after the last request is its own
``/drain`` row; ``cluster_chash`` is the one that runs the NDP engine's
SSD-side embedding cache, ``dram_serve`` the one that runs no device),
the paper's ``rm1`` served from a spec on the COTS baseline (``ssd``,
with its host LRU) and on ``ndp``, as
``tests/workload/test_tenant_backend.py`` builds them (:func:`cell_spec`,
which also builds the model cells ``tools/perf_pairs.py --cell`` times), and
``gc/page_move``: a garbage-collection page move, the difference of two
migrations of one victim holding 8 and 40 valid pages (as
``tests/ftl/test_gc_frames.py`` builds them), which no workload row
moves at its size.  A row holds totals and the requests completed (the
GC row: its 32 moves); the report divides.

``FRAMES.json`` keeps the rows per interpreter (``major.minor``), with
the numpy version they were counted on (numpy's Python-level frames and
its builtins both count); ``tests/test_frame_ledger.py`` holds a fresh
count to them.  Usage (from
the repo root; ``perf`` is imported as a library)::

    PYTHONPATH=src python tools/frame_ledger.py            # print the rows
    PYTHONPATH=src python tools/frame_ledger.py --write    # re-pin this interpreter's rows
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from perf.layers import LAYERS, layer_of  # noqa: E402
from perf.workloads import BY_NAME, observe, run, setup  # noqa: E402
from repro.models import BackendKind, RunnerConfig, build_model  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.ssd.presets import small_ssd  # noqa: E402
from repro.workload import ScenarioSpec, TenantSpec  # noqa: E402
from repro.workload import run as run_spec  # noqa: E402
from repro.workload import setup as setup_spec  # noqa: E402

__all__ = [
    "FRAMES", "ROWS", "CELLS", "Counter", "cell_spec", "setup_cell", "count_rows", "gc_move_rows",
    "interpreter", "numpy_version", "pinned", "moved",
]

FRAMES = _ROOT / "tools" / "ledger" / "FRAMES.json"
SEED = 13
WORKLOAD_SCALE = 0.02       # 20 of a BENCHMARK.json workload's 1,000 requests
CELL_REQUESTS = 2
# Valid pages of the two GC victims: the row is the 32 moves between them.
GC_VALID = (8, 40)
# Each row is first run once with one request, uncounted: what a process
# builds on first use (a ``functools.lru_cache`` entry per batch shape,
# ``abc``'s subclass caches) is then built whatever ran before.
WARM_REQUESTS = 1
COUNTS = ("frames", "numpy_calls")
# What a pinned count may grow (or fall) by before the gate calls it
# moved: this share of it, and at least one.
HEADROOM = 0.01
PIN = "PYTHONPATH=src python tools/frame_ledger.py --write"
_OUTSIDE = "-"              # the layer of code outside every layer


class Counter:
    """A profile hook tallying frames and numpy calls per layer."""

    def __init__(self):
        self.tally = {count: dict.fromkeys(LAYERS, 0) for count in COUNTS}
        self._layers: Dict[object, str] = {}

    def _layer(self, frame) -> Optional[str]:
        """The layer ``frame`` is charged to, walking out of code that
        belongs to none; None above every layered frame."""
        layers = self._layers
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = layer_of(code.co_filename) or _OUTSIDE
            if layer is not _OUTSIDE:
                return layer
            frame = frame.f_back
        return None

    def on_event(self, frame, event, arg) -> None:
        if event == "call":
            layer = self._layer(frame)
            if layer is not None:
                self.tally["frames"][layer] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            if module.startswith("numpy"):
                layer = self._layer(frame)
                if layer is not None:
                    self.tally["numpy_calls"][layer] += 1

    def __enter__(self) -> "Counter":
        sys.setprofile(self.on_event)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)


class _Phases:
    """A ``perf.workloads`` tracer: one :class:`Counter` per span of the
    run phase, on only inside it."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}

    def span(self, name: str, phase: Optional[str] = None) -> Counter:
        return self.counters.setdefault(name, Counter())


def _row(counter: Counter, requests: int) -> dict:
    return {
        "requests": requests,
        **{count: {k: v for k, v in counter.tally[count].items() if v} for count in COUNTS},
    }


def _workload_rows(name: str) -> Dict[str, dict]:
    workload = BY_NAME[name]
    run(setup(workload, SEED, WARM_REQUESTS / workload.n_requests))
    built = setup(workload, SEED, WORKLOAD_SCALE)
    phases = _Phases()
    run(built, phases)
    rows = {name: _row(phases.counters["run_workload"], observe(built).completed)}
    drain = phases.counters.get("update_drain")
    if drain is not None:
        rows[f"{name}/drain"] = _row(drain, 0)
    return rows


# A model cell is ``model/backend``: the model served alone from a spec on
# the COTS baseline (``ssd``, with its host LRU) or on ``ndp``.
CELL_BACKENDS = {
    "ssd": RunnerConfig(kind=BackendKind.SSD, host_cache_entries=2048),
    "ndp": RunnerConfig(kind=BackendKind.NDP),
}
CELLS = tuple(f"{model}/{backend}" for model in ("rm1", "rm3", "ncf") for backend in CELL_BACKENDS)


def cell_spec(cell: str, requests: int, seed: int = SEED) -> ScenarioSpec:
    """The spec of ``cell`` (one of :data:`CELLS`) for ``requests`` requests."""
    model, backend = cell.split("/")
    return ScenarioSpec(
        name=f"{model}-{backend}",
        tenants=(
            TenantSpec(
                model, rate=2000.0, n_requests=requests, batch_size=2,
                backend=CELL_BACKENDS[backend],
            ),
        ),
        backend=backend,
        seed=seed,
    )


def setup_cell(cell: str, requests: int, seed: int = SEED):
    """``cell``'s spec set up with a fresh model, ready for ``run``."""
    return setup_spec(cell_spec(cell, requests, seed), [build_model(cell.split("/")[0])])


def _cell_rows(cell: str) -> Dict[str, dict]:
    run_spec(setup_cell(cell, WARM_REQUESTS))
    built = setup_cell(cell, CELL_REQUESTS)
    with Counter() as counter:
        result = run_spec(built)
    return {cell: _row(counter, int(result.summary["completed"]))}


def _migration(valid: int) -> Counter:
    """Count one GC migration of a victim block holding ``valid`` pages."""
    sim = Simulator()
    ftl = small_ssd(sim, pages_per_block=64).ftl
    geometry = ftl.geometry
    # Writes stripe over the dies: this closes one block on each.
    payload = np.zeros(ftl.page_bytes, dtype=np.uint8)
    for lpn in range(geometry.dies * geometry.pages_per_block):
        ftl.write_page(lpn, payload, lambda: None)
    sim.run()
    victim = ftl.mapping.lookup(0) // geometry.pages_per_block
    for lpn in ftl.mapping.valid_lpns_in_block(victim)[valid:]:
        ftl.trim_page(lpn)
    with Counter() as counter:
        ftl.gc._migrate_block(victim // geometry.blocks_per_die, victim)
        sim.run()
    assert ftl.gc.pages_moved == valid and ftl.gc.blocks_reclaimed == 1
    return counter


def gc_move_rows() -> Dict[str, dict]:
    """``gc/page_move``: what the larger migration counted beyond the
    smaller, per layer, over the moves between them."""
    _migration(GC_VALID[0])
    small, large = (_migration(valid).tally for valid in GC_VALID)
    return {
        "gc/page_move": {
            "requests": GC_VALID[1] - GC_VALID[0],
            **{count: {layer: large[count][layer] - small[count][layer]
                       for layer in LAYERS if large[count][layer] != small[count][layer]}
               for count in COUNTS},
        }
    }


ROWS: Tuple[Callable[[], Dict[str, dict]], ...] = (
    lambda: _workload_rows("ssd_serve"),
    lambda: _workload_rows("ndp_serve"),
    lambda: _workload_rows("aged_update_mix"),
    lambda: _cell_rows("rm1/ssd"),
    lambda: _cell_rows("rm1/ndp"),
    lambda: _workload_rows("cluster_chash"),
    lambda: _workload_rows("dram_serve"),
    gc_move_rows,
)


def count_rows() -> Dict[str, dict]:
    """Every row, counted with the collector off (and each warmed first)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rows: Dict[str, dict] = {}
        for make in ROWS:
            rows.update(make())
        return rows
    finally:
        if enabled:
            gc.enable()


def interpreter() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def pinned() -> dict:
    """``FRAMES.json``: ``{interpreter: {"numpy": version, "rows": rows}}``."""
    return json.loads(FRAMES.read_text()) if FRAMES.exists() else {}


def moved(pins: Dict[str, dict], rows: Dict[str, dict], counts=COUNTS) -> list:
    """One line per (row, layer, count) of ``rows`` that left its pin in
    ``pins`` by more than the headroom, and per row either lacks."""
    lines = [f"{name}: {why}" for name, why in (
        *((name, "not counted") for name in pins if name not in rows),
        *((name, f"not pinned; pin it with {PIN}") for name in rows if name not in pins),
    )]
    for name in (name for name in pins if name in rows):
        pin, row = pins[name], rows[name]
        if pin["requests"] != row["requests"]:
            lines.append(f"{name}: {row['requests']} requests, pinned with {pin['requests']}")
            continue
        for count in counts:
            for layer in LAYERS:
                want, got = pin[count].get(layer, 0), row[count].get(layer, 0)
                if abs(got - want) > max(1.0, HEADROOM * want):
                    grew = "grew" if got > want else f"fell (re-pin with {PIN})"
                    lines.append(f"{name}: {layer} {count} {grew}: {got:,} against {want:,} pinned")
    return lines


def _per_request(row: dict, count: str, layer: str) -> float:
    value = row[count].get(layer, 0)
    return value / row["requests"] if row["requests"] else value


def report(rows: Dict[str, dict]) -> str:
    """Frames (numpy calls) per completed request per layer; a drain row's
    totals."""
    layers = [layer for layer in LAYERS if any(row["frames"].get(layer) for row in rows.values())]
    lines = [
        "| row | requests | " + " | ".join(layers) + " | total |",
        "| --- | --- | " + " | ".join("---" for _ in layers) + " | --- |",
    ]
    for name, row in rows.items():
        cells = []
        for layer in layers + ["total"]:
            if layer == "total":
                frames = sum(_per_request(row, "frames", k) for k in row["frames"])
                calls = sum(_per_request(row, "numpy_calls", k) for k in row["numpy_calls"])
            else:
                frames = _per_request(row, "frames", layer)
                calls = _per_request(row, "numpy_calls", layer)
            cells.append(f"{frames:,.1f} ({calls:,.1f})" if calls else f"{frames:,.1f}")
        lines.append(f"| {name} | {row['requests'] or 'drain'} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="pin this interpreter's rows in FRAMES.json")
    args = parser.parse_args(argv)
    rows = count_rows()
    print(f"CPython {interpreter()}, numpy {numpy_version()}: frames (numpy calls) per request")
    print(report(rows))
    if args.write:
        ledger = pinned()
        ledger[interpreter()] = {"numpy": numpy_version(), "rows": rows}
        FRAMES.write_text(json.dumps(dict(sorted(ledger.items())), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FRAMES.relative_to(_ROOT)} [{interpreter()}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
