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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.embedding.backends.ssd import SsdSlsBackend
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import TablePageContent
from repro.host.system import build_system
from repro.models.runner import BackendKind, RunnerConfig
from repro.nvme.commands import BlockRead
from repro.quant import EmbDtype, QuantSpec
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..conftest import OneTableModel
from .reference_ssd_backend import PerCommandSsdSlsBackend

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
