#!/usr/bin/env python3
"""What CPython's cyclic collector costs a benchmark run, and why.

The collector is triggered by allocations of GC-tracked containers
(functions, cells, bound methods, lists, tuples, instances) and each pass
pays per young *survivor*, not per piece of garbage: a page waiting in a
device queue that is built out of ten closures costs ten objects in every
pass until it leaves.  ``perf.run``'s per-layer split cannot see this (a
pass is charged to whichever function happened to allocate), so this
script prints, per benchmark workload:

* collector passes per generation, seconds inside the collector and their
  share of ``perf.workloads.run`` (timed with ``gc.callbacks``), and how
  many objects the passes freed;
* what a collector-free run at 1/5 size leaves that only the
  collector could free, restricted to ``repro``'s own objects (cycles:
  the aim is none);

and once, the GC-tracked containers one *queued* unit of work keeps alive
(:func:`unit_counts`) and what one queued *request* does, in containers
and traced bytes (:func:`request_counts`).  ``tests/test_gc_budget.py``
pins the last three.

Pass counts move by a few with what the process allocated earlier (1,590
against 1,597 for one workload between two scripts): they are bounds to
compare against, not goldens.  Seconds are host time on a box that
drifts; compare shares, or two trees run back to back.

Usage (from the repo root; ``perf`` is imported as a library)::

    PYTHONPATH=src python tools/gc_ledger.py             # all five, seed 13
    PYTHONPATH=src python tools/gc_ledger.py --seed 7
    PYTHONPATH=src python tools/gc_ledger.py --units-only
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
import types
from pathlib import Path
from typing import Callable, Dict, List

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from perf.workloads import BATCH_SIZE, MODEL, WORKLOADS, bench_model, run, setup  # noqa: E402
from repro.core.engine import NdpEngineConfig  # noqa: E402
from repro.embedding.spec import TableSpec  # noqa: E402
from repro.embedding.table import EmbeddingTable  # noqa: E402
from repro.ftl.mover import PageMove  # noqa: E402
from repro.host.system import build_system  # noqa: E402
from repro.nvme.commands import BlockRead, NvmeCommand, Opcode  # noqa: E402
from repro.serving import InferenceServer, ServingConfig  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.ssd.presets import small_ssd  # noqa: E402
from repro.workload import OpenLoopGenerator, UpdateStream, UpdateStreamSpec  # noqa: E402

__all__ = ["collector_ledger", "repro_garbage", "unit_counts", "request_counts"]

CENSUS_SCALE = 0.2  # the collector-free run holds everything it allocates


def collector_ledger(workload, seed: int) -> Dict[str, object]:
    """One fresh full-size build, then ``run`` under ``gc.callbacks``."""
    passes = [0, 0, 0]
    inside = {"seconds": 0.0, "collected": 0, "since": 0.0}

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            inside["since"] = time.perf_counter()
        else:
            inside["seconds"] += time.perf_counter() - inside["since"]
            inside["collected"] += info["collected"]
            passes[info["generation"]] += 1

    gc.collect()
    built = setup(workload, seed)
    gc.callbacks.append(on_gc)
    try:
        started = time.perf_counter()
        run(built)
        run_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(on_gc)
    return {
        "passes": passes,
        "gc_s": inside["seconds"],
        "run_s": run_s,
        "collected": inside["collected"],
    }


def _module_of(obj: object) -> str:
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # empty cell
            return ""
    # An instance finds its class's ``__module__``; a function has its own.
    return str(getattr(obj, "__module__", ""))


def repro_garbage(workload, seed: int, scale: float) -> List[object]:
    """Build and run with the collector off, then collect once and return
    what it found unreachable among ``repro``'s instances, functions and
    cell contents.  (numpy's first ufunc call leaves some 300 stdlib
    objects from ``ast.literal_eval`` / ``inspect``; those are not ours.)
    """
    flags, enabled = gc.get_debug(), gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        built = setup(workload, seed, scale)
        run(built)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [obj for obj in gc.garbage if _module_of(obj).startswith("repro")]
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def _noop(*_args: object) -> None:
    pass


def _containers_per_call(issue: Callable[[], None], n: int) -> float:
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(n):
            issue()
        return (gc.get_count()[0] - before) / n
    finally:
        if enabled:
            gc.enable()


def _ndp_stack(n: int):
    """A system whose NDP engine admits ``n`` ops and windows ``n`` pages,
    and a one-row-per-page table of ``n`` rows on it."""
    ndp = NdpEngineConfig(max_entries=n, inflight_pages_window=n)
    system = build_system(min_capacity_pages=1 << 12, ndp=ndp)
    table = EmbeddingTable(TableSpec(name="t", rows=n, dim=16))
    table.attach(system.device)
    return system, table


def _containers_per_ndp_page(n: int) -> float:
    """Containers alive once an SLS op's pages are all waiting for their
    scheduling job on ``ftl_core``, per page: two ops that differ by ``n``
    pages and nothing else."""
    few = 24

    def queued(pages: int) -> float:
        system, table = _ndp_stack(few + n)
        engine = system.device.ndp
        config = table.make_sls_config([np.arange(pages)])

        def one_op() -> None:
            system.ndp_session.sls(config, _noop)
            system.sim.run_until(lambda: engine._inflight_pages == pages)

        return _containers_per_call(one_op, 1)

    return (queued(few + n) - queued(few)) / n


def _containers_per_planned(n: int) -> Dict[str, float]:
    """Containers alive per event a run *plans* before it starts: ``n``
    open-loop arrivals (the batch drawn for each included) and ``n``
    update batches (drawn when the stream is built, so only what
    scheduling adds), planted on a DRAM server whose simulator does not
    run."""
    model = bench_model(4096)
    server = InferenceServer(build_system(), ServingConfig())
    server.register_model(model, "dram")
    rng = np.random.default_rng(0)

    def arrivals(count: int) -> OpenLoopGenerator:
        return OpenLoopGenerator(MODEL, rate=1000.0, n_requests=count, batch_size=BATCH_SIZE)

    arrivals(8).schedule(server, rng)  # fills the per-shape caches
    generator = arrivals(n)
    spec = UpdateStreamSpec(rate=10.0, n_updates=n, rows_per_update=16)
    stream, engine = UpdateStream(spec, model), spec.make_engine([server])
    return {
        "planned arrival": _containers_per_call(lambda: generator.schedule(server, rng), 1) / n,
        "planned update batch": (
            _containers_per_call(lambda: stream.schedule(server.sim, engine), 1) / n
        ),
    }


def _block_read(lpn: int, lba_bytes: int) -> BlockRead:
    """A one-LBA read of page ``lpn``, its page fields filled as the
    controller fills them before :meth:`GreedyFtl.read`."""
    read = BlockRead(lpn, 1)
    read.lpn, read.offset, read.nbytes = lpn, 0, lba_bytes
    return read


def unit_counts(n: int = 1000) -> Dict[str, float]:
    """GC-tracked containers alive per unit after queueing ``n`` of each on
    a small device *without running the simulator*: the record, the bound
    method that is its next stage, and the queue entry holding it.  An NDP
    page is queued by its op, so there the simulator runs up to the pump
    that queues them (its ``_PageJob`` holds two ints into its entry's
    arrays, which are not tracked anyway); an SLS op is counted as admitted — the entry, its three
    queues, the command record, its next stage and the queue entry.  A
    planned arrival or update batch is counted once planted, before the
    simulator runs (:func:`_containers_per_planned`)."""
    device = small_ssd(Simulator())
    ftl = device.ftl
    ftl.preload_pages(0, [b"\0" * ftl.page_bytes])
    ppn = ftl.mapping.lookup(0)
    system, table = _ndp_stack(n)
    engine, codec = system.device.ndp, system.device.codec
    config = table.make_sls_config([np.arange(4)])
    rids = iter(range(n))

    def admit_sls_op() -> None:
        slba = codec.encode(table.base_lba, next(rids))
        engine.handle_config_write(
            NvmeCommand(opcode=Opcode.WRITE, slba=slba, nlb=1, data=config, ndp=True), _noop
        )

    return {
        "FlashArray.read": _containers_per_call(lambda: ftl.flash.read(ppn, _noop), n),
        "Ftl.read(BlockRead)": _containers_per_call(
            lambda: ftl.read(_block_read(0, ftl.config.lba_bytes)), n
        ),
        "gc page move": _containers_per_call(
            lambda: PageMove(ftl.gc, 0, _noop, die=0, reserve=0, on_moved=_noop).start(), n
        ),
        "NDP page in flight": _containers_per_ndp_page(n),
        "SLS op in flight": _containers_per_call(admit_sls_op, n),
        **_containers_per_planned(n),
    }


def request_counts(n: int = 1000, as_lists: bool = False) -> Dict[str, float]:
    """What one *queued* request keeps alive: ``n`` requests drawn by
    ``sample_batch`` and admitted by ``submit`` on a DRAM server whose one
    batch slot is taken, simulator not run.  GC-tracked containers are
    what a collector pass walks (the ``Batch``, its ``bags`` dict, one
    record per table, the request and its ``values`` dict); numpy arrays
    are not tracked, so what holding fewer of them saves shows in the
    bytes ``tracemalloc`` traces per request (numpy reports its buffers
    to it) — the part of peak RSS that grows with the queue.

    ``as_lists`` queues the same batches with each table's bags as a
    list of per-bag views, the shape a hand-built batch may still have:
    the yardstick a ``Bags`` is measured against, on this interpreter."""
    model = bench_model(4096)
    config = ServingConfig(max_inflight_requests=n + 8, max_inflight_batches_per_worker=1)
    server = InferenceServer(build_system(), config)
    server.register_model(model, "dram")
    rng = np.random.default_rng(0)

    def submit() -> None:
        batch = model.sample_batch(rng, BATCH_SIZE)
        if as_lists:
            batch.bags = {name: list(bags) for name, bags in batch.bags.items()}
        held.append(server.submit(MODEL, batch))

    held: List[object] = []
    for _ in range(8):  # takes the batch slot; fills the per-shape caches
        submit()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        containers = _containers_per_call(submit, n)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert server.queue.inflight == n + 8 and all(r.t_dispatch < 0 for r in held[-n:])
    return {"containers": containers, "bytes": traced / n}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--units-only", action="store_true")
    args = parser.parse_args()
    if not args.units_only:
        print(
            f"{'workload':16s} seed  passes gen0+gen1+gen2   gc_s   run_s  share"
            f"  collected  repro objects left at {CENSUS_SCALE:g}x"
        )
        for workload in WORKLOADS:
            row = collector_ledger(workload, args.seed)
            ours = repro_garbage(workload, args.seed, CENSUS_SCALE)
            g0, g1, g2 = row["passes"]
            print(
                f"{workload.name:16s} {args.seed:4d}  {g0:6d} + {g1:4d} + {g2:3d}  "
                f"{row['gc_s']:7.3f} {row['run_s']:7.3f} {row['gc_s'] / row['run_s']:6.1%}"
                f"  {row['collected']:9d}  {len(ours)}"
            )
        print()
    print("containers alive per queued unit (collector off, simulator not run):")
    for unit, count in unit_counts().items():
        print(f"  {unit:24s} {count:g}")
    for unit, as_lists in (("queued request", False), ("  with bags as lists", True)):
        queued = request_counts(as_lists=as_lists)
        print(f"  {unit:24s} {queued['containers']:g}  ({queued['bytes']:,.0f} traced bytes)")


if __name__ == "__main__":
    main()
