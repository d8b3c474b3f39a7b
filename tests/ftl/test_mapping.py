"""Mapping table invariants, including a property-based operation fuzz."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.mapping import UNMAPPED, MappingTable
from repro.host.system import build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import required_capacity_pages

GEO = FlashGeometry(channels=2, ways=2, blocks_per_die=4, pages_per_block=8,
                    page_bytes=512)


@pytest.fixture
def table():
    return MappingTable(GEO, logical_pages=96)


class TestBasics:
    def test_unmapped_by_default(self, table):
        assert table.lookup(0) == UNMAPPED
        assert table.is_mapped(0) is False
        assert table.mapped_count == 0
        table.map(0, 3)
        assert table.is_mapped(0) is True

    def test_map_and_lookup(self, table):
        assert table.map(3, 17) == UNMAPPED
        assert table.lookup(3) == 17
        assert table.reverse(17) == 3
        assert table.valid_pages_in_block(17 // GEO.pages_per_block) == 1

    def test_remap_invalidates_old(self, table):
        table.map(3, 17)
        old = table.map(3, 42)
        assert old == 17
        assert table.reverse(17) == UNMAPPED
        assert table.lookup(3) == 42
        assert table.valid_pages_in_block(17 // GEO.pages_per_block) == 0

    def test_map_to_occupied_ppn_rejected(self, table):
        table.map(1, 9)
        with pytest.raises(ValueError):
            table.map(2, 9)

    def test_unmap(self, table):
        table.map(5, 20)
        assert table.unmap(5) == 20
        assert table.lookup(5) == UNMAPPED
        assert table.reverse(20) == UNMAPPED

    def test_bounds(self, table):
        with pytest.raises(IndexError):
            table.map(96, 0)
        with pytest.raises(IndexError):
            table.map(0, GEO.total_pages)

    def test_logical_larger_than_physical_rejected(self):
        with pytest.raises(ValueError):
            MappingTable(GEO, logical_pages=GEO.total_pages + 1)

    @pytest.mark.parametrize("total_pages", [2**31, 2**33])
    def test_geometry_past_int32_refused_before_allocating(self, total_pages):
        geo = FlashGeometry(channels=1, ways=1, pages_per_block=128,
                            blocks_per_die=total_pages // 128)
        assert geo.total_pages == total_pages
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            MappingTable(geo, logical_pages=1)
        # Filling even the 2**31-entry P2L (8 GB) would take seconds.
        assert time.perf_counter() - start < 1.0

    def test_valid_lpns_in_block(self, table):
        table.map(1, 0)
        table.map(2, 1)
        table.map(50, 9)
        assert sorted(table.valid_lpns_in_block(0)) == [1, 2]
        assert table.valid_lpns_in_block(1) == [50]

    def test_min_valid_block(self, table):
        table.map(0, 0)
        table.map(1, 1)
        table.map(2, 8)  # block 1 has one valid page
        assert table.min_valid_block([0, 1]) == 1


class TestMapStrided:
    def test_contiguous_lpns_fill_blocks_in_order(self, table):
        table.map_strided(10, 1, [1], 8)
        for i in range(8):
            assert table.lookup(10 + i) == 8 + i
            assert table.reverse(8 + i) == 10 + i
        table.check_consistency()

    def test_strided_lpns_onto_blocks_in_given_order(self, table):
        # Blocks need not ascend (a free list after release); a partial
        # last block takes its first pages.
        table.map_strided(2, 4, [3, 1], 11)
        assert [table.lookup(2 + 4 * k) for k in range(11)] == (
            list(range(24, 32)) + [8, 9, 10]
        )
        assert table.lookup(6) == 25 and table.reverse(10) == 2 + 4 * 10
        assert table.mapped_count == 11
        table.check_consistency()

    def test_remap_invalidates_old_like_map(self, table):
        # Remapping an already-mapped lpn mirrors map(): the old ppn and
        # its block's count are released.
        table.map(10, 5)
        table.map_strided(10, 1, [2], 1)
        assert table.lookup(10) == 16
        assert table.reverse(5) == UNMAPPED
        assert table.valid_pages_in_block(0) == 0
        table.check_consistency()

    def test_occupied_or_repeated_target_refused_unchanged(self, table):
        table.map(10, 5)
        before = table._l2p.copy(), table._p2l.copy(), table._valid_per_block.copy()
        with pytest.raises(ValueError, match="already mapped"):
            table.map_strided(20, 1, [0], 6)          # pages 0-5 include ppn 5
        with pytest.raises(ValueError, match="duplicate"):
            table.map_strided(20, 1, [3, 2, 3], 17)   # duplicate target block
        assert all(np.array_equal(a, b) for a, b in zip(
            before, (table._l2p, table._p2l, table._valid_per_block)))
        table.map_strided(20, 1, [0], 5)              # pages 0-4 are free
        table.check_consistency()

    @pytest.mark.parametrize("lpn_start, stride, blocks, pages", [
        (95, 1, [0], 2),                 # last lpn past logical space
        (3, 31, [0], 4),                 # 3 + 3 * 31 = 96
        (-1, 1, [0], 1),
        (0, 1, [GEO.total_blocks], 1),   # first ppn past the geometry
        (0, 1, [0, -1], 9),
    ])
    def test_out_of_range_lpn_or_ppn_refused(self, table, lpn_start, stride,
                                             blocks, pages):
        with pytest.raises(IndexError):
            table.map_strided(lpn_start, stride, blocks, pages)
        assert table.mapped_count == 0

    def test_block_count_must_fit_the_pages(self, table):
        with pytest.raises(ValueError, match="fill 2 blocks, not 1"):
            table.map_strided(0, 1, [0], 9)
        with pytest.raises(ValueError, match="fill 1 blocks, not 2"):
            table.map_strided(0, 1, [0, 1], 8)

    def test_counts_every_page_of_a_block(self, table):
        # Each block's valid count moves once per page — when mapping and
        # when a remap invalidates them.
        per_block = GEO.pages_per_block
        table.map_strided(0, 1, [1, 2, 3], 2 * per_block + 3)
        assert table._valid_per_block[1:4].tolist() == [per_block, per_block, 3]
        table.map_strided(0, 1, [5, 6, 7], 2 * per_block + 3)   # all of them move
        assert [table.valid_pages_in_block(b) for b in (1, 2, 3)] == [0, 0, 0]
        assert [table.valid_pages_in_block(b) for b in (5, 6, 7)] == [per_block, per_block, 3]
        table.check_consistency()

    def test_remaps_some_lpns_of_a_run(self, table):
        table.map(1, 11)
        table.map(3, 10)
        table.map_strided(1, 1, [2], 3)
        assert [table.lookup(lpn) for lpn in (1, 2, 3)] == [16, 17, 18]
        assert table.reverse(10) == table.reverse(11) == UNMAPPED
        assert table.valid_pages_in_block(1) == 0
        assert table.valid_pages_in_block(2) == 3
        table.check_consistency()


class TestCheckConsistency:
    """Each planted corruption breaks one leg of the bijection or the
    block counts; the checker names it."""

    def test_leaked_reverse_entry_with_its_block_count_caught(self, table):
        # A P2L entry nothing maps to, its block count bumped to match:
        # a forward-only check and a count taken from P2L both pass it.
        table.map(5, 10)
        table._p2l[20] = 5
        table._valid_per_block[20 // GEO.pages_per_block] += 1
        with pytest.raises(AssertionError, match="p2l/l2p mismatch at ppn=20 lpn=5"):
            table.check_consistency()

    def test_forward_entry_without_reverse_caught(self, table):
        table.map(5, 10)
        table._p2l[10] = UNMAPPED
        table._valid_per_block[10 // GEO.pages_per_block] -= 1
        with pytest.raises(AssertionError, match="l2p/p2l mismatch at lpn=5 ppn=10"):
            table.check_consistency()

    def test_block_count_drift_caught(self, table):
        table.map(5, 10)
        table._valid_per_block[3] += 1
        with pytest.raises(AssertionError, match="valid counts"):
            table.check_consistency()


BENCH_TABLE_ROWS = 409_600


@pytest.fixture
def bench_model():
    """A two-table, 409,600-row one-per-page model: its tables fill the
    benchmark device (1,417,216 pages, 32 dies of 256-page blocks)."""
    return DlrmModel(
        DlrmConfig(name="m", dense_in=4, bottom_mlp=(4,), top_mlp=(4,),
                   num_tables=2, table_rows=BENCH_TABLE_ROWS, dim=16, lookups=1)
    )


@pytest.fixture
def bench_device(bench_model):
    """The benchmark-sized device from the public path, both tables
    attached."""
    device = build_system(
        min_capacity_pages=required_capacity_pages(bench_model)
    ).device
    for table in bench_model.tables.values():
        table.attach(device)
    return device


def test_benchmark_sized_device_keeps_4_byte_entries(bench_device):
    """Mapping entries are 4 bytes and scalar reads are Python ``int`` /
    ``bool``."""
    mapping = bench_device.ftl.mapping
    assert mapping.geometry.total_pages == 1_417_216
    assert mapping.mapped_count == 2 * BENCH_TABLE_ROWS
    assert mapping._l2p.nbytes + mapping._p2l.nbytes == 4 * (
        mapping.logical_pages + mapping.geometry.total_pages
    )
    lpn = int(np.flatnonzero(mapping._l2p != UNMAPPED)[-1])
    ppn = mapping.lookup(lpn)
    assert type(ppn) is int and type(mapping.reverse(ppn)) is int
    assert mapping.reverse(ppn) == lpn
    assert mapping.is_mapped(lpn) is True
    free = int(np.flatnonzero(mapping._p2l == UNMAPPED)[-1])
    assert mapping.map(lpn, free) == ppn
    mapping.check_consistency()


def test_benchmark_device_state_after_preload_is_pinned(bench_device):
    """L2P, P2L, valid counts, region entries, write points and used
    blocks after preload, as recorded on the per-pair mapping update that
    the strided one replaced."""
    ftl = bench_device.ftl
    mapping, store = ftl.mapping, ftl.flash.store
    digest = hashlib.sha256()
    for entries in (mapping._l2p, mapping._p2l, mapping._valid_per_block):
        digest.update(entries.tobytes())
    regions = sorted((block, region.table.spec.name, first, stride)
                     for block, (region, first, stride) in store._regions.items())
    digest.update(repr(regions).encode())
    digest.update(repr(sorted(store._write_point.items())).encode())
    digest.update(repr(ftl.blocks.used_blocks()).encode())
    assert digest.hexdigest() == (
        "6beec27e2a09b2eb8011c1d47a40f33e4485f41a13f9825409c436236e826ea0"
    )


def test_preloading_a_benchmark_table_keeps_temporaries_small(bench_model):
    """Per-die runs, not a whole-table batch: preloading one
    409,600-page table allocates under 2 MB that it frees again (per-die
    runs take 0.08 MB, the per-die pairs they replaced 0.7 MB, a
    whole-table int64 run 12.9 MB)."""
    device = build_system(
        min_capacity_pages=required_capacity_pages(bench_model)
    ).device
    first, second = bench_model.tables.values()
    first.attach(device)
    tracemalloc.start()
    try:
        second.attach(device)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert device.ftl.mapping.mapped_count == 2 * BENCH_TABLE_ROWS
    assert peak - retained <= 2 * 1024 * 1024


@settings(max_examples=100, deadline=None)
@given(
    premapped=st.lists(st.integers(0, 95), max_size=8, unique=True),
    stride=st.integers(1, 6),
    pages=st.integers(1, 3 * GEO.pages_per_block),
    data=st.data(),
)
def test_map_strided_matches_sequential_map(premapped, stride, pages, data):
    """Against map() issued page by page: the same L2P, P2L and valid
    counts, or — when a target page is taken — a refusal that leaves the
    table as it was."""
    pages = min(pages, (96 - 1) // stride + 1)
    lpn_start = data.draw(st.integers(0, 95 - (pages - 1) * stride))
    n_blocks = -(-pages // GEO.pages_per_block)
    blocks = data.draw(st.lists(st.integers(0, GEO.total_blocks - 1),
                                min_size=n_blocks, max_size=n_blocks, unique=True))
    taken = data.draw(st.lists(st.integers(0, GEO.total_pages - 1),
                               min_size=len(premapped), max_size=len(premapped),
                               unique=True))
    strided = MappingTable(GEO, logical_pages=96)
    seq = MappingTable(GEO, logical_pages=96)
    for lpn, ppn in zip(premapped, taken):
        strided.map(lpn, ppn)
        seq.map(lpn, ppn)
    targets = [
        (lpn_start + k * stride,
         blocks[k // GEO.pages_per_block] * GEO.pages_per_block + k % GEO.pages_per_block)
        for k in range(pages)
    ]
    if any(seq.reverse(ppn) != UNMAPPED for _lpn, ppn in targets):
        before = strided._l2p.copy(), strided._p2l.copy()
        with pytest.raises(ValueError, match="already mapped"):
            strided.map_strided(lpn_start, stride, blocks, pages)
        assert np.array_equal(strided._l2p, before[0])
        assert np.array_equal(strided._p2l, before[1])
        strided.check_consistency()
        return
    strided.map_strided(lpn_start, stride, blocks, pages)
    for lpn, ppn in targets:
        seq.map(lpn, ppn)
    assert np.array_equal(strided._l2p, seq._l2p)
    assert np.array_equal(strided._p2l, seq._p2l)
    assert np.array_equal(strided._valid_per_block, seq._valid_per_block)
    strided.check_consistency()


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["map", "unmap"]),
            st.integers(0, 95),
            st.integers(0, GEO.total_pages - 1),
        ),
        max_size=60,
    )
)
def test_mapping_consistency_under_random_ops(ops):
    table = MappingTable(GEO, logical_pages=96)
    shadow = {}
    used_ppns = set()
    for op, lpn, ppn in ops:
        if op == "map":
            if ppn in used_ppns and shadow.get(lpn) != ppn:
                with pytest.raises(ValueError):
                    table.map(lpn, ppn)
                continue
            if shadow.get(lpn) == ppn:
                continue  # remap to same ppn is rejected (ppn occupied)
            old = table.map(lpn, ppn)
            assert old == shadow.get(lpn, UNMAPPED)
            used_ppns.discard(shadow.get(lpn))
            shadow[lpn] = ppn
            used_ppns.add(ppn)
        else:
            old = table.unmap(lpn)
            assert old == shadow.pop(lpn, UNMAPPED)
            used_ppns.discard(old)
    for lpn, ppn in shadow.items():
        assert table.lookup(lpn) == ppn
    assert table.mapped_count == len(shadow)
    table.check_consistency()
