"""``SsdSlsBackend`` against the parent commit's per-command route
(``reference_ssd_backend.py``): the bit-identity proof for "accumulate
once per op, refill once per cache access".

Hypothesis draws a one-table SSD server and a program — overlapping SLS
ops and update batches committed while block reads are in flight — and
runs it on two fresh systems, one with the reference backend swapped
in.  Drawn across: bags (empty, duplicated, a command with >= 128 member
rows), ``Layout``, dtype, heat / no heat (``FrequencyLayout``),
``coalesce`` on / off, the host LRU off / small enough to evict / large,
raw-buffer pages (all of them through ``attach_via_io``, or a few
rewritten through the driver so slow-route and fast-route completions
interleave inside one op) and ``None`` (uncorrectable) pages.  Compared
with ``==``: every op's result as bytes, its ``stats``, ``breakdown``
and instants, the cache's tags, stamps, values, freelists and counters,
the update engine's summary, ``sim.now`` and ``sim.event_count``.

Two host-LRU cases are pinned as well, against the dict-model cache
(``reference_caches.py``) and the parent commit's values: two ops whose
completions interleave (A, B, A), and an update commit between an op's
gather and its last completion.  A refill batched per op fails both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.embedding.backends.ssd import SsdSlsBackend, _SsdOp
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import TablePageContent
from repro.host.system import build_system
from repro.models.runner import BackendKind, RunnerConfig
from repro.nvme.commands import BlockRead
from repro.quant import EmbDtype, QuantSpec
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..conftest import OneTableModel
from .reference_caches import ScalarSetAssociativeLru
from .reference_ssd_backend import PerCommandSsdSlsBackend
from .test_ssd_refill_coherence import log_completions, ssd_server

PAGE_BYTES = 16 * 1024
US = 1e-6
CACHE_COUNTERS = ("hits", "misses", "evictions", "invalidations", "occupancy")


@dataclass(frozen=True)
class Op:
    at_us: int
    bags: Tuple[Tuple[int, ...], ...]       # storage ranks, reduced modulo the table


@dataclass(frozen=True)
class Program:
    layout: Layout
    dtype: EmbDtype
    dim: int
    heat_seed: Optional[int]                # None: no layout installed
    coalesce: bool
    host_cache_entries: int
    via_io: bool                            # every page a raw buffer
    raw_pages: Tuple[int, ...]              # these rewritten through the driver
    bad_pages: Tuple[int, ...]              # these read back None
    dense_command: bool                     # an op with >= 128 rows on page 0
    ops: Tuple[Op, ...]
    updates: Tuple[Tuple[int, Tuple[int, ...]], ...]    # (at_us, ranks rewritten)


# Half the ranks from a hot handful, so ops share rows (LRU hits) and
# updates rewrite rows an op has in flight or the cache holds.
RANK = st.one_of(st.integers(0, 11), st.integers(0, 1 << 16))
PAGE = st.one_of(st.integers(0, 11), st.integers(0, 47))
# Mostly full bags (hypothesis favours short lists, and an op of empty
# bags issues no command), with empty and single-id bags still drawn.
bag = st.one_of(
    st.lists(RANK, min_size=4, max_size=10), st.lists(RANK, max_size=1)
).map(tuple)
# A block read takes 100-400 simulated microseconds and an op's reads
# spread over several dies: updates drawn on this grid land before,
# between and after its completions.
AT_US = st.integers(0, 40).map(lambda k: 20 * k)


@st.composite
def programs(draw) -> Program:
    return Program(
        layout=draw(st.sampled_from([Layout.ONE_PER_PAGE, Layout.PACKED])),
        dtype=draw(st.sampled_from([EmbDtype.FP32, EmbDtype.FP16, EmbDtype.INT8])),
        dim=draw(st.sampled_from([4, 16])),
        heat_seed=draw(st.sampled_from([None, 0, 1])),
        coalesce=draw(st.booleans()),
        host_cache_entries=draw(st.sampled_from([0, 6, 6, 4096])),
        via_io=draw(st.sampled_from([False, False, False, True])),
        raw_pages=tuple(draw(st.lists(PAGE, max_size=3))),
        bad_pages=tuple(draw(st.lists(PAGE, max_size=2))),
        dense_command=draw(st.booleans()),
        ops=tuple(
            Op(
                draw(st.sampled_from([0, 0, 20, 140])),
                tuple(draw(st.lists(bag, min_size=1, max_size=6))),
            )
            for _ in range(draw(st.sampled_from([1, 2, 3, 4])))
        ),
        updates=tuple(
            (draw(AT_US), tuple(draw(st.lists(RANK, min_size=1, max_size=4))))
            for _ in range(draw(st.sampled_from([0, 1, 2, 3])))
        ),
    )


def run(program: Program, backend_cls, spy=None) -> dict:
    quant = QuantSpec(dtype=program.dtype)
    rpp = TableSpec("t", 1, program.dim, quant, program.layout).rows_per_page(PAGE_BYTES)
    # Three pages, the last partly filled; one row per page needs more
    # pages than that for an op to spread over the dies.
    rows = 48 if rpp == 1 else 2 * rpp + max(1, rpp // 3)
    n_pages = -(-rows // rpp)
    model = OneTableModel(TableSpec("t", rows, program.dim, quant, program.layout))
    make_model_updatable(model)
    (table,) = model.tables.values()
    if program.heat_seed is not None:
        table.set_heat(np.random.default_rng(program.heat_seed).random(rows))

    system = build_system(min_capacity_pages=1 << 12)
    sim, device = system.sim, system.device
    assert device.ftl.page_bytes == PAGE_BYTES
    if program.via_io:
        table.attach_via_io(system)
    server = InferenceServer(system)
    server.register_model(
        model,
        BackendKind.SSD,
        RunnerConfig(kind=BackendKind.SSD, host_cache_entries=program.host_cache_entries),
    )
    stage = server.workers[model.name][0].stage
    built = stage.by_shard[0]["t"]
    assert type(built) is SsdSlsBackend
    backend = stage.by_shard[0]["t"] = backend_cls(
        system, table, host_cache=built.host_cache, coalesce=program.coalesce
    )
    cache = backend.host_cache
    updates = EmbeddingUpdateEngine(server)
    driver = system.driver_for(device)
    lbas_per_page = device.ftl.lbas_per_page
    base_lpn = table.base_lba // lbas_per_page

    # Raw-buffer pages among virtual ones: rewritten through the driver.
    raw_pages = sorted({page % n_pages for page in program.raw_pages})
    written = []
    for page in raw_pages:
        driver.write(
            table.base_lba + page * lbas_per_page,
            lbas_per_page,
            TablePageContent(table, page).materialize(),
            written.append,
        )
    sim.run_until(lambda: len(written) == len(raw_pages))
    assert all(cpl.ok for cpl in written)

    # Uncorrectable pages: the FTL hands the controller None (a block
    # read's page is swapped to a class that drops their content once
    # they are in, the page cache keeping its copy).
    bad_lpns = {base_lpn + page % n_pages for page in program.bad_pages}

    class Uncorrectable(BlockRead):
        __slots__ = ()

        def pages_read(self) -> None:
            for page in self.segments:
                if page.lpn in bad_lpns:
                    page.content = None
            BlockRead.pages_read(self)

    ftl_read = device.ftl.read

    def read(host_read) -> None:
        if type(host_read) is BlockRead:
            host_read.__class__ = Uncorrectable
        ftl_read(host_read)

    device.ftl.read = read
    if spy is not None:
        spy(backend, driver)

    ops = list(program.ops)
    if program.dense_command:
        # 4 x 40 members on page 0, and the same bags on the other pages.
        first_page = tuple(range(min(rpp, 40)))
        ops.append(Op(0, (first_page * 4 + (rpp, 2 * rpp),) + ((rpp + 1, *first_page),) * 3))
    start = sim.now
    done = []

    def submit(op: Op) -> None:
        op_bags = [table.external_ids(np.asarray(bag, dtype=np.int64) % rows) for bag in op.bags]
        backend.start(
            op_bags,
            lambda result: done.append(
                (
                    sim.now,
                    result.values.tobytes(),
                    result.values.shape,
                    result.start_time,
                    result.end_time,
                    result.stats,
                    result.breakdown.components,
                )
            ),
        )

    def commit(index: int, ranks: Tuple[int, ...]) -> None:
        ranks = np.unique(np.asarray(ranks, dtype=np.int64) % rows)
        values = np.random.default_rng(index).standard_normal((ranks.size, program.dim))
        updates.apply_update(model.name, "t", table.external_ids(ranks), values)

    for op in ops:
        sim.schedule_at(start + op.at_us * US, lambda op=op: submit(op))
    for index, (at_us, ranks) in enumerate(program.updates):
        sim.schedule_at(start + at_us * US, lambda i=index, r=ranks: commit(i, r))
    sim.run_until(lambda: len(done) == len(ops))
    sim.run()           # the update page writes still in flight

    seen = {
        "ops": done,
        "now": sim.now,
        "events": sim.event_count,
        "updates": updates.summary(),
        "backend": (backend.ops, backend.inflight, backend.max_inflight),
        "commands": driver.commands_issued,
    }
    if cache is not None:
        # The counters first: reading one makes any refill still owed.
        seen["cache"] = {name: getattr(cache, name) for name in CACHE_COUNTERS}
        seen["cache_state"] = (
            sorted((key, value.tobytes()) for key, value in cache.contents().items()),
            cache.recency_order(),
        )
    return seen


def run_reference(program: Program) -> dict:
    """``run`` on the per-command backend, checking its route is what ran:
    an override ``SlsBackend.start`` no longer reaches (it was
    ``_start_vectorized`` once) compares ``src/`` with itself, and passes."""
    assert PerCommandSsdSlsBackend._start is not SsdSlsBackend._start
    route = PerCommandSsdSlsBackend.__dict__["_start"]
    started = []

    def count_starts(backend, _driver) -> None:
        def counted(bags, on_done) -> None:
            started.append(len(bags))
            route(backend, bags, on_done)

        backend._start = counted

    want = run(program, PerCommandSsdSlsBackend, count_starts)
    assert len(started) == len(want["ops"]) > 0
    return want


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_same_results_as_the_per_command_backend(program):
    got = run(program, SsdSlsBackend)
    want = run_reference(program)
    for key in want:
        assert got[key] == want[key], key


def spy_on_settles(monkeypatch, settles: list):
    """Record ``(id(values), largest slice, slices, values already nonzero)``
    of every ``scatter_add_segments`` the backend makes."""
    from repro.embedding.backends import ssd

    add_segments = ssd.scatter_add_segments

    def spying(out, ids, vectors, sizes):
        settles.append((id(out), max(sizes), len(sizes), bool(out.any())))
        add_segments(out, ids, vectors, sizes)

    monkeypatch.setattr(ssd, "scatter_add_segments", spying)


def test_a_big_command_keeps_its_own_sum(monkeypatch):
    """Pinned draw of the case the sort threshold makes delicate: a
    command with >= 128 member rows sums itself before it is added to the
    result, so it keeps its own ``scatter_add_vectors`` even when the op
    settles several commands at once."""
    program = Program(
        layout=Layout.PACKED, dtype=EmbDtype.FP32, dim=16, heat_seed=1, coalesce=False,
        host_cache_entries=6, via_io=False, raw_pages=(), bad_pages=(), dense_command=True,
        ops=(Op(0, ((300, 5, 5, 600), (301,))), Op(20, ((7, 8, 9, 260), ()))),
        updates=((40, (3, 300)), (200, (5, 601))),
    )
    settles = []
    got = run(program, SsdSlsBackend, lambda *_: spy_on_settles(monkeypatch, settles))
    assert any(big >= 128 and slices > 1 for _, big, slices, _ in settles), settles
    assert got == run_reference(program)


def test_a_slow_route_command_finds_the_earlier_slices_summed(monkeypatch):
    """One bag over ten one-row pages, one of them a raw buffer whose read
    completes fourth: float32 addition does not associate, so the three
    fast-route rows before it must be in the result when it adds its own
    (``(f1 + f2 + f3) + s``, never ``(s + f1) + ...``)."""
    program = Program(
        layout=Layout.ONE_PER_PAGE, dtype=EmbDtype.FP32, dim=16, heat_seed=None, coalesce=False,
        host_cache_entries=0, via_io=False, raw_pages=(7,), bad_pages=(), dense_command=False,
        ops=(Op(0, (tuple(range(10)),)),), updates=(),
    )
    settles = []
    got = run(program, SsdSlsBackend, lambda *_: spy_on_settles(monkeypatch, settles))
    # Two settles into the one result: three slices ahead of the slow
    # route's rows, the other six after them.
    assert [(slices, nonzero) for _, _, slices, nonzero in settles] == [(3, False), (6, True)]
    assert settles[0][0] == settles[1][0]
    assert got == run_reference(program)


# The two cases below, pinned on the parent commit (997b99a) as
# ``values_digest`` of the ops' results, in delivery order.
INTERLEAVED_VALUES = "b6a831abcf19ec6353ee716d8760d34d8ee8e3b49b60d3bd3a77d3c2fab574f3"
COMMITTED_VALUES = "3a70ed45e01bdca244e11f0975adc07386d18fd319e2b3b6718b183b1bd6d15c"


def values_digest(results) -> str:
    """sha256 of every result value as ``float.hex`` (signed zeros too)."""
    hexes = " ".join(float(x).hex() for result in results for x in result.values.ravel())
    return hashlib.sha256(hexes.encode()).hexdigest()


def full_lru_server():
    """A one-table SSD server (one row per page) whose host LRU is one
    16-way set already holding 16 unrelated rows, so every refill evicts,
    and the dict-model cache holding the same."""
    server, model, backend = ssd_server(host_cache_entries=16)
    cache, table = backend.host_cache, backend.table
    assert cache.sets == 1
    resident = np.arange(4000, 4016)
    cache.insert_many(resident, table.get_rows(resident))
    reference = ScalarSetAssociativeLru(cache.capacity, ways=cache.ways)
    for row, vector in zip(resident.tolist(), table.get_rows(resident)):
        reference.insert(row, vector)
    return server, model, backend, reference


def warm_page_cache(backend, rows) -> None:
    """Read ``rows``' pages once through the FTL (not the host LRU): their
    next block read hits the device page cache, so it completes ahead of
    a flash read issued before it."""
    table = backend.table
    ftl, sim = table.device.ftl, backend.system.sim
    base_lpn = table.base_lba // ftl.lbas_per_page
    read = []
    for row in rows:
        ftl.read_page(base_lpn + row, lambda _content, _hit: read.append(row))
    sim.run_until(lambda: len(read) == len(rows))


def cache_state(cache) -> tuple:
    return (
        cache.evictions,
        cache.invalidations,
        cache.recency_order(),
        sorted((key, value.tobytes()) for key, value in cache.contents().items()),
    )


def interleaved_ops() -> tuple:
    """Op A over rows 0 and 32, op B over row 1, both started at one
    instant; rows 0 and 1 sit in the page cache, so the completions go
    A, B, A.  Returns the LRU's state, the dict model's after the same
    probes and refills in completion order, and the values' digest."""
    server, _model, backend, reference = full_lru_server()
    sim, table = server.system.sim, backend.table
    warm_page_cache(backend, [0, 1])
    completed = log_completions(backend)
    results = []
    backend.start([np.array([0, 32])], results.append)
    backend.start([np.array([1])], results.append)
    sim.run_until(lambda: len(results) == 2)
    assert completed == [0, 1, 32]
    for row in (0, 32, 1):
        assert reference.lookup(row) is None
    for row in completed:
        reference.insert(row, table.get_rows(np.array([row]))[0])
    return cache_state(backend.host_cache), cache_state(reference), values_digest(results)


def a_commit_mid_op() -> tuple:
    """One op over rows 5, 911 and 1822; after its first completion (the
    op's gather) an update commit rewrites rows 5 and 1822.  Row 5's
    refill is owed when the commit's invalidation lands (it must land
    first, then go); 1822's read completes after the commit, so its
    refill carries the committed vector while the op's sum keeps the
    gathered one.  Returns what :func:`interleaved_ops` does."""
    server, model, backend, reference = full_lru_server()
    sim, table = server.system.sim, backend.table
    (table_name,) = model.tables
    rows = [5, 911, 1822]
    completed = log_completions(backend)
    results = []
    backend.start([np.array([row]) for row in rows], results.append)
    sim.run_until(lambda: len(completed) >= 1)
    assert completed == [5]
    for row in rows:
        assert reference.lookup(row) is None
    reference.insert(5, table.get_rows(np.array([5]))[0])
    committed = np.array([5, 1822])
    new = (table.get_rows(committed) + np.float32(0.75)).astype(np.float32)
    assert EmbeddingUpdateEngine(server).apply_update(model.name, table_name, committed, new) == 2
    reference.invalidate_many(committed)
    sim.run_until(lambda: bool(results))
    sim.run()                                          # the update's page writes
    assert completed == rows
    for row in completed[1:]:
        reference.insert(row, table.get_rows(np.array([row]))[0])
    return cache_state(backend.host_cache), cache_state(reference), values_digest(results)


def plant_a_refill_per_op(monkeypatch) -> None:
    """The batching the host LRU must not do: an op's refills made at once
    at its last completion, from its gather."""
    real = _SsdOp.completed
    positions = {}

    def completed(op, a, b, cpl) -> None:
        cache = op.backend.host_cache
        op.backend.host_cache = None
        try:
            real(op, a, b, cpl)
        finally:
            op.backend.host_cache = cache
        positions.setdefault(id(op), []).extend(range(a, b))
        if op.pending == 0:
            at = positions.pop(id(op))
            cache.insert_many(np.array(op.rows_m)[at], op.gathered[at])

    monkeypatch.setattr(_SsdOp, "completed", completed)


@pytest.mark.parametrize(
    "case, values",
    [(interleaved_ops, INTERLEAVED_VALUES), (a_commit_mid_op, COMMITTED_VALUES)],
    ids=["interleaved", "commit_mid_op"],
)
def test_refills_land_in_completion_order_with_the_vectors_each_completion_saw(case, values):
    got, want, digest = case()
    assert got == want
    assert digest == values


@pytest.mark.parametrize("case", [interleaved_ops, a_commit_mid_op], ids=["interleaved", "commit_mid_op"])
def test_a_refill_batch_per_op_fails_the_cases(monkeypatch, case):
    plant_a_refill_per_op(monkeypatch)
    got, want, _digest = case()
    assert got != want
