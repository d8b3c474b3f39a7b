"""Flash store: NAND program/erase semantics, regions."""

import numpy as np
import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.store import FlashStore, FlashStoreError

GEO = FlashGeometry(channels=2, ways=2, blocks_per_die=4, pages_per_block=8,
                    page_bytes=512)


@pytest.fixture
def store():
    return FlashStore(GEO)


class FakeRegion:
    def __init__(self, page_count):
        self.page_count = page_count

    def page_content(self, offset):
        if 0 <= offset < self.page_count:
            return f"page-{offset}"
        return None


class TestProgramErase:
    def test_program_read_roundtrip(self, store):
        store.program(0, b"hello")
        assert store.read(0) == b"hello"
        assert store.is_programmed(0)
        assert store.read(1) is None

    def test_double_program_rejected(self, store):
        store.program(0, b"a")
        with pytest.raises(FlashStoreError):
            store.program(0, b"b")

    def test_out_of_order_program_rejected(self, store):
        store.program(0, b"a")
        with pytest.raises(FlashStoreError):
            store.program(2, b"c")  # page 1 skipped

    def test_erase_allows_reprogram(self, store):
        store.program(0, b"a")
        store.program(1, b"b")
        dropped = store.erase_block(0)
        assert dropped == 2
        assert store.read(0) is None
        store.program(0, b"again")
        assert store.read(0) == b"again"

    def test_sequential_across_blocks_independent(self, store):
        first_of_block1 = GEO.first_ppn_of_block(1)
        store.program(first_of_block1, b"x")
        assert store.block_write_point(1) == 1
        assert store.block_write_point(0) == 0

    def test_program_count(self, store):
        store.program(0, b"a")
        store.program(1, b"b")
        assert store.program_count == 2
        store.erase_block(0)
        assert store.erase_count == 1


class TestInstall:
    def test_install_bypasses_order(self, store):
        store.install(5, b"direct")
        assert store.read(5) == b"direct"

    def test_install_over_programmed_rejected(self, store):
        store.program(0, b"a")
        with pytest.raises(FlashStoreError):
            store.install(0, b"b")


class TestRegions:
    def test_region_serves_pages(self, store):
        store.install_region([0], FakeRegion(GEO.pages_per_block), 0)
        assert store.read(0) == "page-0"
        assert store.read(7) == "page-7"
        assert store.is_programmed(3)

    def test_region_with_offset_and_stride(self, store):
        store.install_region([1], FakeRegion(100), first_offset=10, stride=4)
        first = GEO.first_ppn_of_block(1)
        assert store.read(first) == "page-10"
        assert store.read(first + 1) == "page-14"

    def test_region_run_continues_across_blocks(self, store):
        # The k-th block picks up where the one before it stopped.
        store.install_region([3, 1], FakeRegion(100), first_offset=2, stride=4)
        per_block = GEO.pages_per_block
        assert store.read(GEO.first_ppn_of_block(3) + 1) == "page-6"
        assert store.read(GEO.first_ppn_of_block(1)) == f"page-{2 + per_block * 4}"
        assert store.block_write_point(1) == store.block_write_point(3) == per_block

    @pytest.mark.parametrize("blocks, error", [
        ([0, GEO.total_blocks], "outside"),
        ([-1], "outside"),
        ([2, 5, 2], "repeat"),
        ([4, 6], "block 6 not erased"),
    ])
    def test_bad_run_refused_whole(self, store, blocks, error):
        store.program(GEO.first_ppn_of_block(6), b"a")
        with pytest.raises(FlashStoreError, match=error):
            store.install_region(blocks, FakeRegion(100), 0)
        assert store.read(GEO.first_ppn_of_block(4)) is None
        assert store.block_write_point(2) == store.block_write_point(4) == 0

    def test_region_erase(self, store):
        store.install_region([0], FakeRegion(8), 0)
        store.erase_block(0)
        assert store.read(0) is None
        store.program(0, b"new")
        assert store.read(0) == b"new"

    def test_region_over_programmed_block_rejected(self, store):
        store.program(0, b"a")
        with pytest.raises(FlashStoreError):
            store.install_region([0], FakeRegion(8), 0)

    @pytest.mark.parametrize("page", [0, 3, GEO.pages_per_block - 1])
    def test_region_over_installed_page_rejected(self, store, page):
        # install() bypasses program order, so the stray page may sit
        # anywhere in the block — the erased check must still see it.
        store.install(GEO.first_ppn_of_block(2) + page, b"stray")
        with pytest.raises(FlashStoreError, match="not erased"):
            store.install_region([2], FakeRegion(8), 0)

    def test_region_accepted_again_after_erase(self, store):
        store.install(GEO.first_ppn_of_block(2) + 5, b"stray")
        store.program(GEO.first_ppn_of_block(3), b"a")
        for block in (2, 3):
            store.erase_block(block)
            store.install_region([block], FakeRegion(8), 0)
            assert store.read(GEO.first_ppn_of_block(block)) == "page-0"

    def test_stored_content_always_raises_the_write_point(self):
        """install_region tells "erased" from the block's write point alone
        (no page scan), which is sound only while every way of storing
        content leaves it >= 1 and erase alone returns it to 0."""
        for enforce in (True, False):
            store = FlashStore(GEO, enforce_sequential=enforce)
            assert store.block_write_point(1) == 0
            store.install(GEO.first_ppn_of_block(1), b"a")       # page 0
            assert store.block_write_point(1) >= 1
            store.program(GEO.first_ppn_of_block(2), b"b")
            assert store.block_write_point(2) >= 1
            store.install_region([3], FakeRegion(8), 0)
            assert store.block_write_point(3) >= 1
            for block in (1, 2, 3):
                store.erase_block(block)
                assert store.block_write_point(block) == 0
                assert not any(
                    store.is_programmed(GEO.first_ppn_of_block(block) + p)
                    for p in range(GEO.pages_per_block)
                )

    def test_double_region_rejected(self, store):
        store.install_region([0], FakeRegion(8), 0)
        with pytest.raises(FlashStoreError):
            store.install_region([0], FakeRegion(8), 0)

    def test_program_into_region_block_rejected(self, store):
        store.install_region([0], FakeRegion(8), 0)
        with pytest.raises(FlashStoreError):
            store.program(0, b"x")

    def test_programmed_pages_counts_regions(self, store):
        store.install_region([0], FakeRegion(8), 0)
        store.program(GEO.first_ppn_of_block(1), b"y")
        assert store.programmed_pages == GEO.pages_per_block + 1
