"""GreedyFtl foreground paths, preload, and timing behaviour."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd


@pytest.fixture
def device(sim):
    return small_ssd(sim)


def write_page_sync(sim, ftl, lpn, content):
    done = []
    ftl.write_page(lpn, content, lambda: done.append(sim.now))
    sim.run_until(lambda: bool(done))
    return done[0]


def read_page_sync(sim, ftl, lpn):
    result = []
    ftl.read_page(lpn, lambda content, hit: result.append((content, hit, sim.now)))
    sim.run_until(lambda: bool(result))
    return result[0]


class TestReadWrite:
    def test_write_then_read_roundtrip(self, sim, device):
        ftl = device.ftl
        payload = np.arange(ftl.page_bytes, dtype=np.uint8)
        write_page_sync(sim, ftl, 7, payload)
        content, hit, _t = read_page_sync(sim, ftl, 7)
        assert hit  # write inserted into page cache
        assert np.array_equal(content, payload)

    def test_unmapped_read_returns_none(self, sim, device):
        content, hit, _t = read_page_sync(sim, device.ftl, 3)
        assert content is None

    def test_cache_hit_faster_than_miss(self, sim, device):
        ftl = device.ftl
        write_page_sync(sim, ftl, 1, np.zeros(ftl.page_bytes, dtype=np.uint8))
        # Flush cache to force a miss.
        ftl.page_cache.invalidate(1)
        t0 = sim.now
        _c, hit_miss, t_miss = read_page_sync(sim, ftl, 1)
        assert not hit_miss
        miss_latency = t_miss - t0
        t1 = sim.now
        _c, hit_hit, t_hit = read_page_sync(sim, ftl, 1)
        assert hit_hit
        assert (t_hit - t1) < miss_latency / 2

    def test_overwrite_remaps(self, sim, device):
        ftl = device.ftl
        a = np.full(ftl.page_bytes, 1, dtype=np.uint8)
        b = np.full(ftl.page_bytes, 2, dtype=np.uint8)
        write_page_sync(sim, ftl, 0, a)
        first_ppn = ftl.mapping.lookup(0)
        write_page_sync(sim, ftl, 0, b)
        second_ppn = ftl.mapping.lookup(0)
        assert first_ppn != second_ppn
        content, _hit, _t = read_page_sync(sim, ftl, 0)
        assert content[0] == 2

    def test_trim(self, sim, device):
        ftl = device.ftl
        write_page_sync(sim, ftl, 2, np.zeros(ftl.page_bytes, dtype=np.uint8))
        ftl.trim_page(2)
        content, _hit, _t = read_page_sync(sim, ftl, 2)
        assert content is None
        ftl.mapping.check_consistency()


class TestPreload:
    class Region:
        def __init__(self, n):
            self.page_count = n

        def page_content(self, offset):
            return ("virt", offset)

    def test_preload_region_maps_all_pages(self, sim, device):
        ftl = device.ftl
        n = 3 * ftl.geometry.pages_per_block + 5
        assert ftl.preload_region(0, self.Region(n)) == n
        for lpn in (0, 1, n // 2, n - 1):
            content, _hit, _t = read_page_sync(sim, ftl, lpn)
            assert content == ("virt", lpn)
        ftl.mapping.check_consistency()

    def test_preload_stripes_across_dies(self, sim, device):
        ftl = device.ftl
        dies = ftl.geometry.dies
        n = dies * 4
        ftl.preload_region(0, self.Region(n))
        used_dies = set()
        for lpn in range(dies):
            ppn = ftl.mapping.lookup(lpn)
            addr = ftl.geometry.addr(ppn)
            used_dies.add(ftl.geometry.die_index(addr.channel, addr.way))
        assert used_dies == set(range(dies))

    def test_consecutive_lpns_on_different_dies(self, sim, device):
        ftl = device.ftl
        ftl.preload_region(0, self.Region(ftl.geometry.dies * 2))
        a = ftl.geometry.addr(ftl.mapping.lookup(0))
        b = ftl.geometry.addr(ftl.mapping.lookup(1))
        die_a = ftl.geometry.die_index(a.channel, a.way)
        die_b = ftl.geometry.die_index(b.channel, b.way)
        assert die_a != die_b

    @settings(max_examples=60, deadline=None)
    @given(
        pages=st.integers(1, 4 * (5 * 16 + 3)),
        lpn_start=st.integers(0, 400),
        premapped=st.lists(st.integers(0, 767), max_size=12, unique=True),
        free_order=st.permutations(range(16)),
    )
    @example(pages=3, lpn_start=5, premapped=[], free_order=list(range(16)))
    @example(pages=4 * 35, lpn_start=16, premapped=[17, 40],
             free_order=list(range(16)))
    def test_preload_matches_per_page_stripe_oracle(
        self, pages, lpn_start, premapped, free_order
    ):
        """Page for page, preload is ``map`` under the stripe rule: the
        dies its reserved blocks sit on, in die order, take logical
        offsets round robin, and within a die logical order is program
        order through its blocks.  Grid: page counts below ``dies`` and
        off any multiple of ``dies`` or ``pages_per_block``, a non-zero
        start, LPNs already mapped, free lists out of block order."""
        ftl, oracle = (small_ssd(Simulator()).ftl for _ in range(2))
        for device_ftl in (ftl, oracle):
            # Take every block, then give ten per die back in
            # ``free_order``: each die's free list is out of block order.
            geo = device_ftl.geometry
            device_ftl.blocks.reserve_blocks(geo.total_blocks)
            for i in free_order[:10]:
                for die in range(geo.dies):
                    device_ftl.blocks.release_block(die * geo.blocks_per_die + i)
            for lpn in premapped:
                device_ftl.mapping.map(lpn, device_ftl.blocks.allocate_page())
        region = self.Region(pages)
        assert ftl.preload_region(lpn_start, region) == pages

        geo, per_block = oracle.geometry, oracle.geometry.pages_per_block
        stripe = min(geo.dies, pages)
        per_die = -(-pages // stripe)
        dies = [blocks for blocks in
                oracle.blocks.reserve_blocks(stripe * -(-per_die // per_block))
                if blocks]
        regions = {}
        for offset in range(pages):
            k = offset // len(dies)
            block = dies[offset % len(dies)][k // per_block]
            if k % per_block == 0:
                regions[block] = (offset, len(dies))
            oracle.mapping.map(lpn_start + offset,
                               geo.first_ppn_of_block(block) + k % per_block)

        mapping, want = ftl.mapping, oracle.mapping
        assert np.array_equal(mapping._l2p, want._l2p)
        assert np.array_equal(mapping._p2l, want._p2l)
        assert np.array_equal(mapping._valid_per_block, want._valid_per_block)
        store = ftl.flash.store
        assert {b: (first, stride) for b, (r, first, stride) in store._regions.items()
                if r is region} == regions
        assert all(store.block_write_point(b) == per_block for b in regions)
        assert ftl.blocks.used_blocks() == oracle.blocks.used_blocks()
        for offset in range(pages):
            ppn = mapping.lookup(lpn_start + offset)
            assert store.read(ppn) == ("virt", offset)
        mapping.check_consistency()

    def test_preload_pages_fills_blocks_in_the_order_taken(self, sim, device):
        """A round over every die, then die 0 and die 1 again."""
        ftl = device.ftl
        geo = ftl.geometry
        per_block = geo.pages_per_block
        n = (geo.dies + 1) * per_block + 2
        assert ftl.preload_pages(5, [("page", i) for i in range(n)]) == n
        firsts = [ftl.mapping.lookup(5 + k * per_block) for k in range(geo.dies + 2)]
        rounds = [d * geo.blocks_per_die for d in range(geo.dies)] + [1, geo.blocks_per_die + 1]
        assert firsts == [geo.first_ppn_of_block(b) for b in rounds]
        for lpn in (5, 6, 5 + n - 1):
            assert ftl.flash.store.read(ftl.mapping.lookup(lpn)) == ("page", lpn - 5)
        ftl.mapping.check_consistency()

    def test_preload_beyond_logical_space_rejected(self, sim, device):
        ftl = device.ftl
        with pytest.raises(ValueError):
            ftl.preload_region(0, self.Region(ftl.logical_pages + 1))

    def test_ndp_read_of_preloaded_page(self, sim, device):
        ftl = device.ftl
        ftl.preload_region(0, self.Region(4))
        got = []
        ftl.ndp_read_mapped_page(2, got.append)
        sim.run_until(lambda: bool(got))
        assert got[0] == ("virt", 2)

    def test_ndp_read_unmapped_returns_none(self, sim, device):
        got = []
        device.ftl.ndp_read_mapped_page(9, got.append)
        sim.run_until(lambda: bool(got))
        assert got == [None]


class TestReadPages:
    def test_one_flash_read_per_mapped_miss_in_page_order(self, sim, device, monkeypatch):
        """Cached and unmapped pages cost no flash read; the others are
        one ``FlashArray.read`` each, issued in the command's page order."""
        ftl = device.ftl
        ftl.preload_region(0, TestPreload.Region(8))
        read_page_sync(sim, ftl, 5)   # now cached
        unmapped = ftl.logical_pages - 1
        lpns = [6, 5, 0, unmapped, 3, 0]
        issued = []
        flash_read = ftl.flash.read
        monkeypatch.setattr(
            ftl.flash, "read",
            lambda ppn, on_done: issued.append(ppn) or flash_read(ppn, on_done),
        )
        reads_before = ftl.flash_page_reads
        got = []
        ftl.read_pages(lpns, got.append)
        sim.run_until(lambda: bool(got))
        assert issued == [ftl.mapping.lookup(lpn) for lpn in (6, 0, 3, 0)]
        assert ftl.flash_page_reads - reads_before == 4
        assert got == [[("virt", 6), ("virt", 5), ("virt", 0), None,
                        ("virt", 3), ("virt", 0)]]

    def test_die_counters_balance_behind_a_busy_die(self, sim, device):
        """Pages queued behind a die mid-service are plain die jobs: at
        every event, each die has ``jobs_started - jobs_completed == busy``."""
        ftl = device.ftl
        dies = ftl.geometry.dies
        ftl.preload_region(0, TestPreload.Region(4 * dies))
        servers = [die for ch in ftl.flash.channels for die in ch.dies]
        first, got = [], []
        ftl.read_page(0, lambda content, hit: first.append(content))
        sim.run_until(lambda: servers[0].busy > 0)
        ftl.read_pages([dies, 0, 2 * dies, 1], got.append)
        max_queued = 0
        while sim.step():
            for die in servers:
                assert die.jobs_started - die.jobs_completed == die.busy
            max_queued = max(max_queued, servers[0].queue_length)
        assert max_queued > 0
        assert first == [("virt", 0)]
        assert got == [[("virt", dies), ("virt", 0), ("virt", 2 * dies), ("virt", 1)]]
        assert all(die.idle for die in servers)


class TestAddressHelpers:
    def test_lpn_range_for_lbas(self, device):
        ftl = device.ftl
        lbas_per_page = ftl.lbas_per_page
        assert list(ftl.lpn_range_for_lbas(0, 1)) == [0]
        spanning = list(ftl.lpn_range_for_lbas(lbas_per_page - 1, 2))
        assert spanning == [0, 1]

    def test_logical_sizing(self, device):
        ftl = device.ftl
        assert ftl.logical_pages < ftl.geometry.total_pages
        assert ftl.logical_lbas == ftl.logical_pages * ftl.lbas_per_page
