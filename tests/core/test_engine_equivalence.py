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

Three pinned entries say which route the per-entry extractor
(``extract_vectors_paged``) took and hold each to the reference: one
gather for an entry of virtual pages, a call per content as soon as one
page is a raw buffer, and a call per content when a virtual page is not
the page its LPN says — ``content.page_index`` names a page's rows.

The channel interleave (one loop over the pages' L2P entries against the
dict of deques) has its own property at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import extract
from repro.core.engine import NdpEngineConfig, NdpSlsEngine
from repro.embedding.placement import HeatTracker, LayoutMigrator
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import TablePageContent
from repro.host.system import build_system
from repro.models.runner import BackendKind
from repro.quant import EmbDtype, QuantSpec
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..conftest import OneTableModel, make_table
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


def install_engine(system, engine_cls) -> None:
    device = system.device
    device.ndp = engine_cls(
        system.sim, device.ftl, device.controller, device.codec, device.config.ndp
    )
    device.controller.ndp_engine = device.ndp


def engine_and_cache_state(engine) -> dict:
    cache = engine.emb_cache
    return {
        "engine": {name: getattr(engine, name) for name in ENGINE_COUNTERS},
        "entries": len(engine.entries),
        "cache": {name: getattr(cache, name) for name in CACHE_COUNTERS},
        "cache_tags": cache.tags,
        "cache_vectors": [cache.lookup(tag, row).tobytes() for tag, row in cache.tags.values()],
    }


def deliver(device, swapped: dict) -> None:
    """Every flash read of a page now mapped at an LPN of ``swapped``
    lands with that content instead of the page's own: the seam both
    engines' reads cross (``FlashArray.read`` for the reference's
    ``ndp_read_mapped_page``, a ``_PageJob`` admitted by ``ndp_read``)."""
    store, reverse = device.flash.store, device.ftl.mapping.reverse
    read = store.read

    def read_swapped(ppn: int):
        lpn = reverse(ppn)
        return swapped[lpn] if lpn in swapped else read(ppn)

    if swapped:
        store.read = read_swapped


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
    install_engine(system, engine_cls)
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
    deliver(device, {lpn: None for lpn in bad_lpns})

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

    return {
        "ops": done,
        "cache_looks": looks,
        "now": sim.now,
        "events": sim.event_count,
        **engine_and_cache_state(device.ndp),
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
            sizes = [work.hi - work.lo for work in entry.gather_pending]
            gathers.append((max(sizes), len(sizes), bool(entry.scratchpad.any())))
        gather(engine, entry)

    monkeypatch.setattr(NdpSlsEngine, "_gather", spy)
    got = run(program, NdpSlsEngine)
    assert any(big >= 128 and pages > 1 and nonzero for big, pages, nonzero in gathers), gathers
    assert got == run(program, reference.NdpSlsEngine)


ENTRY_PAGES = 5
ENTRY_RPP = 256     # float32, dim 16, packed


def run_one_entry(engine_cls, rewritten=None, delivered=None) -> dict:
    """One SLS op over all five pages of a packed table.  ``rewritten``: a
    page written through the IO path first (a raw buffer from then on);
    ``delivered``: ``{page: make(table)}``, what the flash read hands the
    engine for that page instead of its own content."""
    system = build_system(min_capacity_pages=1 << 12, ndp=NdpEngineConfig(embcache_slots=64))
    sim, device = system.sim, system.device
    install_engine(system, engine_cls)
    table = make_table(system, rows=ENTRY_PAGES * ENTRY_RPP, dim=16, layout=Layout.PACKED)
    assert table.rows_per_page == ENTRY_RPP
    lbas_per_page = device.ftl.lbas_per_page
    base_lpn = table.base_lba // lbas_per_page
    if rewritten is not None:
        written = []
        system.driver.write(
            table.base_lba + rewritten * lbas_per_page,
            lbas_per_page,
            TablePageContent(table, rewritten).materialize(),
            written.append,
        )
        sim.run_until(lambda: bool(written))
        assert written[0].ok
        device.ftl.page_cache.invalidate(base_lpn + rewritten)    # read it from flash
    deliver(device, {base_lpn + page: make(table) for page, make in (delivered or {}).items()})
    # Bag p reads three rows of page p; the last bag reads every page.
    in_page = np.array([1, 7, ENTRY_RPP - 1])
    bags = [page * ENTRY_RPP + in_page for page in range(ENTRY_PAGES)]
    bags.append(np.arange(ENTRY_PAGES) * ENTRY_RPP + 2)
    done = []
    system.session_for(device).sls(
        table.make_sls_config(bags), lambda payload, timing: done.append((payload, timing))
    )
    sim.run()
    ((payload, timing),) = done
    return {
        "values": payload.values.tobytes(),
        "breakdown": payload.breakdown.components,
        "counters": (
            payload.flash_pages_read, payload.page_cache_hits,
            payload.emb_cache_hits, payload.uncorrectable_pages,
        ),
        "timing": (timing.submit_time, timing.config_done_time, timing.result_time),
        "now": sim.now,
        "events": sim.event_count,
        **engine_and_cache_state(device.ndp),
        "table": table,
        "array": payload.values,
    }


def spy_on_the_extractor(monkeypatch) -> dict:
    """Count the calls of either route of ``extract_vectors_paged`` (the
    reference engine holds its own ``extract_vectors``, bound at import)."""
    calls = {"one gather": 0, "per content": 0}
    table_vectors, extract_vectors = extract._table_vectors, extract.extract_vectors

    def one_gather(*args):
        calls["one gather"] += 1
        return table_vectors(*args)

    def per_content(*args):
        calls["per content"] += 1
        return extract_vectors(*args)

    monkeypatch.setattr(extract, "_table_vectors", one_gather)
    monkeypatch.setattr(extract, "extract_vectors", per_content)
    return calls


def assert_same_as_reference(got: dict, **planted) -> None:
    want = run_one_entry(reference.NdpSlsEngine, **planted)
    for key in want:
        if key not in ("table", "array"):
            assert got[key] == want[key], key


def test_an_entry_of_virtual_pages_is_one_gather(monkeypatch):
    calls = spy_on_the_extractor(monkeypatch)
    got = run_one_entry(NdpSlsEngine)
    assert calls == {"one gather": 1, "per content": 0}
    assert got["counters"] == (ENTRY_PAGES, 0, 0, 0)
    assert_same_as_reference(got)


def test_a_raw_page_and_a_lost_page_take_the_per_content_route(monkeypatch):
    """Pages 0, 2 and 4 virtual, page 1 rewritten through the IO path, page
    3 uncorrectable: one ``extract_vectors`` for each page that came back."""
    planted = dict(rewritten=1, delivered={3: lambda _table: None})
    calls = spy_on_the_extractor(monkeypatch)
    got = run_one_entry(NdpSlsEngine, **planted)
    assert calls == {"one gather": 0, "per content": ENTRY_PAGES - 1}
    assert got["counters"] == (ENTRY_PAGES, 0, 0, 1)
    assert not got["array"][3].any()
    assert_same_as_reference(got, **planted)


def test_a_virtual_page_found_at_another_lpn_gives_its_own_rows(monkeypatch):
    """All five contents are virtual pages of the one table, but LPN 2
    holds page 4: its rows are page 4's (``content.page_index``), as the
    reference reads them — not the ranks the entry bucketed for LPN 2."""
    planted = dict(delivered={2: lambda table: TablePageContent(table, 4)})
    calls = spy_on_the_extractor(monkeypatch)
    got = run_one_entry(NdpSlsEngine, **planted)
    assert calls == {"one gather": 0, "per content": ENTRY_PAGES}
    table = got["table"]
    page4 = table.ref_sls([4 * ENTRY_RPP + np.array([1, 7, ENTRY_RPP - 1])])[0]
    page2 = table.ref_sls([2 * ENTRY_RPP + np.array([1, 7, ENTRY_RPP - 1])])[0]
    assert np.allclose(got["array"][2], page4, rtol=1e-5, atol=1e-6)
    assert not np.allclose(got["array"][2], page2, rtol=1e-5, atol=1e-6)
    assert_same_as_reference(got, **planted)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.lists(st.integers(-1, 7), max_size=40),
    ways=st.sampled_from([1, 2]),
)
def test_interleave_is_the_round_robin_drain(channels, ways):
    """``_interleave_by_channel`` orders an entry's pages exactly as
    draining per-channel deques round-robin did (-1: an unmapped page,
    which counts as channel 0)."""
    geometry = SimpleNamespace(pages_per_block=4, blocks_per_die=2, ways=ways, channels=8)
    ppn_of = [-1 if c < 0 else ((c * ways) * 2 + i % 2) * 4 + i % 4 for i, c in enumerate(channels)]
    ftl = SimpleNamespace(
        geometry=geometry,
        mapping=SimpleNamespace(
            l2p=ppn_of, lookup_many=lambda lpns: np.asarray(ppn_of, dtype=np.int64)[lpns]
        ),
    )
    lpns = np.arange(len(channels), dtype=np.int64)
    pages = [SimpleNamespace(lpn=lpn) for lpn in lpns.tolist()]
    order = np.array(
        [page.lpn for page in NdpSlsEngine._interleave_by_channel(SimpleNamespace(ftl=ftl), pages)],
        dtype=np.int64,
    )

    entry = SimpleNamespace(
        pending_pages=reference.deque(
            reference.PageWork(lpn=int(lpn), slots=None, result_ids=None) for lpn in lpns
        )
    )
    reference.NdpSlsEngine._interleave_by_channel(SimpleNamespace(ftl=ftl), entry)
    assert order.tolist() == [work.lpn for work in entry.pending_pages]
