"""Block manager: striping, reservation, reclamation, wear accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.blocks import BlockManager, OutOfSpaceError

GEO = FlashGeometry(channels=2, ways=2, blocks_per_die=4, pages_per_block=8,
                    page_bytes=512)


@pytest.fixture
def blocks():
    return BlockManager(GEO)


class TestAllocation:
    def test_stripes_across_dies(self, blocks):
        dies = set()
        for _ in range(GEO.dies):
            ppn = blocks.allocate_page()
            addr = GEO.addr(ppn)
            dies.add(GEO.die_index(addr.channel, addr.way))
        assert dies == set(range(GEO.dies))

    def test_sequential_pages_within_block(self, blocks):
        first = blocks.allocate_page(die=0)
        second = blocks.allocate_page(die=0)
        assert second == first + 1

    def test_block_rollover(self, blocks):
        ppns = [blocks.allocate_page(die=0) for _ in range(GEO.pages_per_block + 1)]
        first_block = ppns[0] // GEO.pages_per_block
        next_block = ppns[-1] // GEO.pages_per_block
        assert next_block != first_block
        assert ppns[-1] % GEO.pages_per_block == 0

    def test_unique_ppns(self, blocks):
        total = GEO.total_pages
        seen = {blocks.allocate_page() for _ in range(total)}
        assert len(seen) == total

    def test_out_of_space(self, blocks):
        for _ in range(GEO.total_pages):
            blocks.allocate_page()
        with pytest.raises(OutOfSpaceError):
            blocks.allocate_page()


class TestReservation:
    def test_reserve_round_robin(self, blocks):
        taken = blocks.reserve_blocks(GEO.dies)
        assert [[b // GEO.blocks_per_die for b in die] for die in taken] == [
            [d] for d in range(GEO.dies)
        ]
        assert blocks.total_free_blocks == GEO.total_blocks - GEO.dies

    def test_reserved_blocks_not_allocated(self, blocks):
        taken = {b for die in blocks.reserve_blocks(4) for b in die}
        for _ in range(GEO.total_pages - 4 * GEO.pages_per_block):
            ppn = blocks.allocate_page()
            assert ppn // GEO.pages_per_block not in taken

    def test_reserve_too_many_rolls_back(self, blocks):
        free_before = blocks.total_free_blocks
        with pytest.raises(OutOfSpaceError):
            blocks.reserve_blocks(GEO.total_blocks + 1)
        assert blocks.total_free_blocks == free_before

    @settings(max_examples=100, deadline=None)
    @given(
        free=st.permutations(range(GEO.total_blocks)).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: order[:n])
        ),
        count=st.integers(0, GEO.total_blocks),
    )
    def test_reserve_matches_block_by_block_round_robin(self, free, count):
        """Uneven, out-of-order free lists: each die gives what taking one
        block per die per round, die 0 first, takes."""
        blocks = BlockManager(GEO)
        blocks.reserve_blocks(GEO.total_blocks)
        for block in free:
            blocks.release_block(block)
        queues = [list(q) for q in blocks._free]
        if count > len(free):
            with pytest.raises(OutOfSpaceError):
                blocks.reserve_blocks(count)
            assert [list(q) for q in blocks._free] == queues
            return
        want = [[] for _ in queues]
        die = 0
        for _ in range(count):
            while not queues[die]:
                die = (die + 1) % GEO.dies
            want[die].append(queues[die].pop(0))
            die = (die + 1) % GEO.dies
        assert blocks.reserve_blocks(count) == want
        assert [list(q) for q in blocks._free] == queues
        assert blocks.total_free_blocks == len(free) - count


class TestReclamation:
    def test_release_returns_to_pool_and_counts_erase(self, blocks):
        [taken] = blocks.reserve_blocks(1)[0]
        free_before = blocks.total_free_blocks
        blocks.release_block(taken)
        assert blocks.total_free_blocks == free_before + 1
        assert blocks.erase_counts[taken] == 1

    def test_wear_spread(self, blocks):
        [taken] = blocks.reserve_blocks(1)[0]
        for _ in range(5):
            blocks.release_block(taken)
        assert blocks.wear_spread() == 5

    def test_closed_blocks_excludes_active(self, blocks):
        blocks.allocate_page(die=0)  # opens an active block on die 0
        [reserved] = blocks.reserve_blocks(1)[0]
        closed = blocks.closed_blocks()
        assert reserved in closed
        active = [b for b in blocks.used_blocks() if b not in closed]
        assert len(active) == 1
