"""``repro.core.engine`` against the parent commit's per-page engine
(``reference_engine.py``): the bit-identity proof for gather-per-entry.

Hypothesis draws a one-table NDP server and a program — concurrent SLS
ops, update batches committed and layouts re-packed while pages are in
flight — and runs it on two fresh systems, one with the reference engine
swapped in.  Drawn across: bags (empty, duplicated, a page with >= 128
pairs), ``Layout``, dtype, heat / no heat (``FrequencyLayout``), a
partially filled last page, raw-buffer pages (``attach_via_io``), ``None``
(uncorrectable) pages, the device embedding cache off / 8 slots (mostly
conflicts) / small / large, looks into that cache while pages are
translated and not yet gathered, and more ops than the two-entry buffer
holds (``queue_when_full``).
Compared with ``==``: every ``SlsResultPayload`` field (the scratchpad
as bytes), each op's host-side timing, the embedding cache's tags,
vectors and counters and what each mid-run look found, the engine's
counters, ``sim.now`` and ``sim.event_count``.

The channel interleave (``np.lexsort`` against the dict of deques) has
its own property at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import NdpEngineConfig, NdpSlsEngine
from repro.embedding.placement import HeatTracker, LayoutMigrator
from repro.embedding.spec import Layout, TableSpec
from repro.host.system import build_system
from repro.models.runner import BackendKind
from repro.quant import EmbDtype, QuantSpec
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..conftest import OneTableModel
from . import reference_engine as reference

PAGE_BYTES = 16 * 1024
US = 1e-6
ENGINE_COUNTERS = (
    "requests_started", "requests_completed", "requests_rejected", "requests_queued",
    "max_concurrent_requests", "requests_overlapped", "overlap_seconds",
    "_inflight_pages", "active_requests",
)
CACHE_COUNTERS = ("hits", "misses", "conflict_evictions", "inserts", "invalidations", "occupancy")


@dataclass(frozen=True)
class Op:
    at_us: int
    bags: Tuple[Tuple[int, ...], ...]       # storage ranks, reduced modulo the table


@dataclass(frozen=True)
class Change:
    kind: str                               # "update" | "repack"
    at_us: int
    ranks: Tuple[int, ...]                  # update: rows rewritten; repack: their pages


@dataclass(frozen=True)
class Program:
    layout: Layout
    dtype: EmbDtype
    dim: int
    heat_seed: Optional[int]                # None: no layout installed
    via_io: bool
    embcache_slots: int
    bad_pages: Tuple[int, ...]
    dense_page: bool                        # an op with >= 128 pairs on page 0
    ops: Tuple[Op, ...]
    changes: Tuple[Change, ...]
    cache_reads: Tuple[Tuple[int, int], ...] = ()   # (at_us, index of the op whose ranks are looked up)


RANK = st.integers(0, 1 << 16)
# Mostly full bags (hypothesis favours short lists, and an op of empty
# bags reads no page), with empty and single-id bags still drawn.
bag = st.one_of(
    st.lists(RANK, min_size=4, max_size=10), st.lists(RANK, max_size=1)
).map(tuple)
# Ops take 400-1500 simulated microseconds: changes drawn on the same
# grid land before, between and after their pages' translate instants.
AT_US = st.integers(0, 48).map(lambda k: 25 * k)


@st.composite
def programs(draw) -> Program:
    return Program(
        layout=draw(st.sampled_from([Layout.ONE_PER_PAGE, Layout.PACKED])),
        dtype=draw(st.sampled_from([EmbDtype.FP32, EmbDtype.FP16, EmbDtype.INT8])),
        dim=draw(st.sampled_from([4, 16])),
        heat_seed=draw(st.sampled_from([None, 0, 1, 2])),
        via_io=draw(st.booleans()),
        embcache_slots=draw(st.sampled_from([0, 0, 0, 8, 8, 64, 4096])),
        bad_pages=tuple(draw(st.lists(st.integers(0, 47), max_size=2))),
        dense_page=draw(st.booleans()),
        ops=tuple(
            Op(
                draw(st.sampled_from([0, 0, 25, 150])),
                tuple(draw(st.lists(bag, min_size=1, max_size=6))),
            )
            for _ in range(draw(st.sampled_from([1, 2, 3, 4])))
        ),
        changes=tuple(
            Change(
                draw(st.sampled_from(["update", "repack"])),
                draw(AT_US),
                tuple(draw(st.lists(RANK, min_size=1, max_size=4))),
            )
            for _ in range(draw(st.sampled_from([0, 1, 2, 3, 4])))
        ),
        cache_reads=tuple(
            draw(st.lists(st.tuples(AT_US, st.integers(0, 3)), max_size=3))
        ),
    )


def run(program: Program, engine_cls) -> dict:
    quant = QuantSpec(dtype=program.dtype)
    rpp = TableSpec("t", 1, program.dim, quant, program.layout).rows_per_page(PAGE_BYTES)
    # Three pages, the last partly filled; one row per page needs more
    # pages than that for a request to spread over the channels.
    rows = 48 if rpp == 1 else 2 * rpp + max(1, rpp // 3)
    model = OneTableModel(TableSpec("t", rows, program.dim, quant, program.layout))
    make_model_updatable(model)
    (table,) = model.tables.values()
    rng = np.random.default_rng(program.heat_seed)
    if program.heat_seed is not None:
        table.set_heat(rng.random(rows))

    system = build_system(
        min_capacity_pages=1 << 12,
        ndp=NdpEngineConfig(
            max_entries=2, queue_when_full=True, embcache_slots=program.embcache_slots
        ),
    )
    sim, device = system.sim, system.device
    assert device.ftl.page_bytes == PAGE_BYTES
    device.ndp = engine_cls(sim, device.ftl, device.controller, device.codec, device.config.ndp)
    device.controller.ndp_engine = device.ndp
    if program.via_io:
        table.attach_via_io(system)
    server = InferenceServer(system)
    server.register_model(model, BackendKind.NDP)
    updates = EmbeddingUpdateEngine(server)
    migrator = LayoutMigrator(budget_rows=rows)
    migrator.register(table, HeatTracker(rows, initial=rng.random(rows)))
    base_lpn = table.base_lba // device.ftl.lbas_per_page

    # Uncorrectable pages: the flash read hands the engine None.
    bad_lpns = {base_lpn + page for page in program.bad_pages}
    read_page = device.ftl.ndp_read_mapped_page
    device.ftl.ndp_read_mapped_page = lambda lpn, on_done: read_page(
        lpn, (lambda _content: on_done(None)) if lpn in bad_lpns else on_done
    )

    ops = list(program.ops)
    if program.dense_page:
        # 7 x 40 pairs on page 0, and the same result ids on pages 1 and 2.
        first_page = tuple(range(min(rpp, 40)))
        ops.append(Op(0, (first_page * 4 + (rpp, 2 * rpp),) + ((rpp + 1, *first_page),) * 3))
    start = sim.now
    done = []

    def submit(op: Op) -> None:
        op_bags = [table.external_ids(np.asarray(bag, dtype=np.int64) % rows) for bag in op.bags]
        system.session_for(device).sls(
            table.make_sls_config(op_bags),
            lambda payload, timing: done.append(
                (
                    sim.now,
                    payload.values.tobytes(),
                    payload.values.shape,
                    payload.breakdown.components,
                    payload.flash_pages_read,
                    payload.page_cache_hits,
                    payload.emb_cache_hits,
                    payload.uncorrectable_pages,
                    (timing.submit_time, timing.config_done_time, timing.result_time),
                    timing.breakdown.components,
                )
            ),
        )

    def change(what: Change, index: int) -> None:
        ranks = np.unique(np.asarray(what.ranks, dtype=np.int64) % rows)
        if what.kind == "update":
            values = np.random.default_rng(index).standard_normal((ranks.size, program.dim))
            updates.apply_update(model.name, "t", table.external_ids(ranks), values)
        else:
            migrator.on_block_reclaimed((base_lpn + ranks // rpp).tolist())

    looks = []

    def look(op: Op) -> None:
        ranks = np.unique(np.asarray(sum(op.bags, ()), dtype=np.int64) % rows)
        mask, vectors = device.ndp.emb_cache.lookup_many(base_lpn, ranks)
        looks.append(
            (sim.now, mask.tobytes(), [None if v is None else v.tobytes() for v in vectors])
        )

    for op in ops:
        sim.schedule_at(start + op.at_us * US, lambda op=op: submit(op))
    for at_us, index in program.cache_reads:
        sim.schedule_at(start + at_us * US, lambda op=ops[index % len(ops)]: look(op))
    for index, what in enumerate(program.changes):
        sim.schedule_at(start + what.at_us * US, lambda w=what, i=index: change(w, i))
    sim.run_until(lambda: len(done) == len(ops))
    sim.run()           # the update page writes still in flight

    engine, cache = device.ndp, device.ndp.emb_cache
    return {
        "ops": done,
        "cache_looks": looks,
        "now": sim.now,
        "events": sim.event_count,
        "engine": {name: getattr(engine, name) for name in ENGINE_COUNTERS},
        "entries": len(engine.entries),
        "cache": {name: getattr(cache, name) for name in CACHE_COUNTERS},
        "cache_tags": (cache._tag_table.tobytes(), cache._tag_row.tobytes()),
        "cache_vectors": [
            cache.lookup(tag, row).tobytes()
            for tag, row in zip(cache._tag_table.tolist(), cache._tag_row.tolist())
            if tag >= 0
        ],
        "updates": updates.summary(),
        "repacks": (migrator.repacks, migrator.rows_repacked, migrator.cache_invalidations),
        "layout": None if table.layout is None else table.layout.external_ids(np.arange(rows)).tobytes(),
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_same_results_as_the_per_page_engine(program):
    got = run(program, NdpSlsEngine)
    want = run(program, reference.NdpSlsEngine)
    for key in want:
        assert got[key] == want[key], key
    assert got["entries"] == 0


def test_a_second_gather_adds_to_a_nonzero_scratchpad(monkeypatch):
    """Pinned draw of the case the sort threshold makes delicate: a page
    with >= 128 pairs sums itself before it is added, so it must still be
    added on its own when an earlier flush already put its neighbours'
    rows into the scratchpad.  A re-pack every 25 us is a flush train."""
    program = Program(
        layout=Layout.PACKED, dtype=EmbDtype.FP32, dim=16, heat_seed=1, via_io=False,
        embcache_slots=0, bad_pages=(), dense_page=True,
        ops=(Op(0, ((300, 5, 5, 600), (301,))),),
        changes=tuple(Change("repack", at, (3, 300, 601)) for at in range(0, 1400, 25))
        + (Change("update", 1000, (3, 300)),),
    )
    gathers = []
    gather = NdpSlsEngine._gather

    def spy(engine, entry):
        if entry.gather_pending:
            sizes = [work.slots.size for work, _ in entry.gather_pending]
            gathers.append((max(sizes), len(sizes), bool(entry.scratchpad.any())))
        gather(engine, entry)

    monkeypatch.setattr(NdpSlsEngine, "_gather", spy)
    got = run(program, NdpSlsEngine)
    assert any(big >= 128 and pages > 1 and nonzero for big, pages, nonzero in gathers), gathers
    assert got == run(program, reference.NdpSlsEngine)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.lists(st.integers(-1, 7), max_size=40),
    ways=st.sampled_from([1, 2]),
)
def test_interleave_is_the_round_robin_drain(channels, ways):
    """``_interleave_by_channel`` orders an entry's pages exactly as
    draining per-channel deques round-robin did (-1: an unmapped page,
    which counts as channel 0)."""
    geometry = SimpleNamespace(pages_per_block=4, blocks_per_die=2, ways=ways)
    ppn_of = [-1 if c < 0 else ((c * ways) * 2 + i % 2) * 4 + i % 4 for i, c in enumerate(channels)]
    ftl = SimpleNamespace(
        geometry=geometry,
        mapping=SimpleNamespace(lookup_many=lambda lpns: np.asarray(ppn_of, dtype=np.int64)[lpns]),
    )
    lpns = np.arange(len(channels), dtype=np.int64)
    order = NdpSlsEngine._interleave_by_channel(SimpleNamespace(ftl=ftl), lpns)

    entry = SimpleNamespace(
        pending_pages=reference.deque(
            reference.PageWork(lpn=int(lpn), slots=None, result_ids=None) for lpn in lpns
        )
    )
    reference.NdpSlsEngine._interleave_by_channel(SimpleNamespace(ftl=ftl), entry)
    assert order.tolist() == [work.lpn for work in entry.pending_pages]
