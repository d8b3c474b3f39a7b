"""Mapping table invariants, including a property-based operation fuzz."""

import time

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


class TestBulkMap:
    def test_bulk_map_contiguous(self, table):
        ppns = np.arange(8, 16, dtype=np.int64)
        table.bulk_map(10, ppns)
        for i, ppn in enumerate(ppns):
            assert table.lookup(10 + i) == ppn
            assert table.reverse(int(ppn)) == 10 + i
        table.check_consistency()

    def test_bulk_map_pairs_strided(self, table):
        lpns = np.array([0, 4, 8, 12], dtype=np.int64)
        ppns = np.array([3, 2, 1, 0], dtype=np.int64)
        table.bulk_map_pairs(lpns, ppns)
        assert table.lookup(4) == 2
        table.check_consistency()

    def test_bulk_map_remaps_mapped_lpn_like_map(self, table):
        # Remapping an already-mapped lpn mirrors map(): the old ppn is
        # invalidated and returned.
        table.map(10, 5)
        old = table.bulk_map(10, np.array([6], dtype=np.int64))
        assert old.tolist() == [5]
        assert table.lookup(10) == 6
        assert table.reverse(5) == UNMAPPED
        table.check_consistency()

    def test_bulk_map_rejects_occupied_ppn(self, table):
        table.map(10, 5)
        with pytest.raises(ValueError):
            table.bulk_map(20, np.array([5], dtype=np.int64))
        with pytest.raises(ValueError):
            table.bulk_map_pairs(
                np.array([20, 21], dtype=np.int64),
                np.array([7, 7], dtype=np.int64),  # duplicate target ppn
            )

    def test_bulk_map_bounds(self, table):
        with pytest.raises(IndexError):
            table.bulk_map(95, np.array([1, 2], dtype=np.int64))

    def test_bulk_map_pairs_duplicate_lpns_last_write_wins(self, table):
        # Regression: a batch carrying the same lpn twice used to leave
        # the loser's ppn in p2l and its block's valid count inflated
        # (check_consistency() tripped); last-write-wins must match the
        # sequential map() semantics exactly.
        lpns = np.array([7, 3, 7, 3, 9], dtype=np.int64)
        ppns = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        invalidated = table.bulk_map_pairs(lpns, ppns)
        assert table.lookup(7) == 2
        assert table.lookup(3) == 3
        assert table.lookup(9) == 4
        # Losing duplicates' ppns are dead on arrival.
        assert invalidated.tolist() == [0, 1]
        assert table.reverse(0) == UNMAPPED
        assert table.reverse(1) == UNMAPPED
        assert table.mapped_count == 3
        table.check_consistency()

        # Shadow-model equivalence against sequential map() on a fresh
        # table (same pairs, one at a time).
        seq = MappingTable(GEO, logical_pages=96)
        seq_old = [seq.map(int(l), int(p)) for l, p in zip(lpns, ppns)]
        for lpn in (7, 3, 9):
            assert seq.lookup(lpn) == table.lookup(lpn)
        assert sorted(o for o in seq_old if o != UNMAPPED) == invalidated.tolist()

    def test_bulk_map_pairs_counts_every_page_of_a_block(self, table):
        # A batch is many pages of few blocks: each block's valid count
        # moves once per page, as np.add.at over the repeated block ids
        # did — when mapping and when the remap invalidates them.
        per_block = GEO.pages_per_block
        lpns = np.arange(2 * per_block + 3, dtype=np.int64)
        table.bulk_map_pairs(lpns, lpns + per_block)           # blocks 1, 2 and 3 pages of 3
        want = np.zeros(GEO.total_blocks, dtype=np.int64)
        np.add.at(want, (lpns + per_block) // per_block, 1)
        assert table._valid_per_block.tolist() == want.tolist()
        assert want[1:4].tolist() == [per_block, per_block, 3]
        table.bulk_map_pairs(lpns, lpns + 5 * per_block)        # all of them move
        assert [table.valid_pages_in_block(b) for b in (1, 2, 3)] == [0, 0, 0]
        assert [table.valid_pages_in_block(b) for b in (5, 6, 7)] == [per_block, per_block, 3]
        table.check_consistency()

    def test_bulk_map_pairs_returns_old_ppns_of_remapped_lpns(self, table):
        table.bulk_map_pairs(
            np.array([1, 2], dtype=np.int64), np.array([10, 11], dtype=np.int64)
        )
        out = table.bulk_map_pairs(
            np.array([2, 1], dtype=np.int64), np.array([20, 21], dtype=np.int64)
        )
        assert out.tolist() == [10, 11]
        assert table.lookup(1) == 21 and table.lookup(2) == 20
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


def test_benchmark_sized_device_keeps_4_byte_entries():
    """The device a two-table, 409,600-row one-per-page model gets from the
    public path: mapping entries are 4 bytes, scalar reads are Python
    ``int`` / ``bool`` and the bulk return stays int64."""
    model = DlrmModel(
        DlrmConfig(name="m", dense_in=4, bottom_mlp=(4,), top_mlp=(4,),
                   num_tables=2, table_rows=409_600, dim=16, lookups=1)
    )
    device = build_system(min_capacity_pages=required_capacity_pages(model)).device
    for table in model.tables.values():
        table.attach(device)
    mapping = device.ftl.mapping
    assert mapping.geometry.total_pages == 1_417_216
    assert mapping.mapped_count == 2 * 409_600
    assert mapping._l2p.nbytes + mapping._p2l.nbytes == 4 * (
        mapping.logical_pages + mapping.geometry.total_pages
    )
    lpn = int(np.flatnonzero(mapping._l2p != UNMAPPED)[-1])
    ppn = mapping.lookup(lpn)
    assert type(ppn) is int and type(mapping.reverse(ppn)) is int
    assert mapping.reverse(ppn) == lpn
    assert mapping.is_mapped(lpn) is True
    free = np.flatnonzero(mapping._p2l == UNMAPPED)[-1:]
    old = mapping.bulk_map_pairs(np.array([lpn]), free)
    assert old.dtype == np.int64 and old.tolist() == [ppn]
    mapping.check_consistency()


@settings(max_examples=100, deadline=None)
@given(
    premapped=st.lists(st.integers(0, 95), max_size=8, unique=True),
    lpns=st.lists(st.integers(0, 95), min_size=1, max_size=24),
    data=st.data(),
)
def test_bulk_map_pairs_matches_sequential_map(premapped, lpns, data):
    """Both routes — no duplicate LPN (the preload fast path) and the
    last-write-wins dedupe — against map() issued pair by pair."""
    ppns = data.draw(
        st.lists(
            st.integers(len(premapped), GEO.total_pages - 1),
            min_size=len(lpns), max_size=len(lpns), unique=True,
        )
    )
    bulk = MappingTable(GEO, logical_pages=96)
    seq = MappingTable(GEO, logical_pages=96)
    for ppn, lpn in enumerate(premapped):
        bulk.map(lpn, ppn)
        seq.map(lpn, ppn)
    invalidated = bulk.bulk_map_pairs(
        np.asarray(lpns, dtype=np.int64), np.asarray(ppns, dtype=np.int64)
    )
    seq_old = [seq.map(lpn, ppn) for lpn, ppn in zip(lpns, ppns)]
    assert invalidated.tolist() == sorted(o for o in seq_old if o != UNMAPPED)
    assert np.array_equal(bulk._l2p, seq._l2p)
    assert np.array_equal(bulk._p2l, seq._p2l)
    assert np.array_equal(bulk._valid_per_block, seq._valid_per_block)
    bulk.check_consistency()


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
