"""Garbage collection and wear leveling under sustained write traffic."""

import numpy as np
import pytest

from repro.ftl.mover import PageMove
from repro.ssd.presets import small_ssd


@pytest.fixture
def device(sim):
    return small_ssd(sim)


def fill(sim, ftl, lpns, tag=0):
    """Write one page per lpn and wait for all of them."""
    done = {"n": 0}
    for lpn in lpns:
        payload = np.full(ftl.page_bytes, (lpn + tag) % 251, dtype=np.uint8)
        ftl.write_page(lpn, payload, lambda: done.__setitem__("n", done["n"] + 1))
    sim.run_until(lambda: done["n"] == len(lpns))


def gc_move(ftl, die, lpn, on_done):
    """One of the page moves ``GarbageCollector._migrate_block`` starts:
    the copy lands in the victim's ``die``, reserve included, and a
    completed move counts in ``pages_moved``."""
    PageMove(ftl.gc, lpn, on_done, die=die, reserve=0, on_moved=ftl.gc._page_moved).start()


def read_all(sim, ftl, lpns):
    out = {}
    pending = {"n": 0}
    for lpn in lpns:
        pending["n"] += 1

        def make(lpn):
            def cb(content, _hit):
                out[lpn] = content
                pending["n"] -= 1

            return cb

        ftl.read_page(lpn, make(lpn))
    sim.run_until(lambda: pending["n"] == 0)
    return out


class TestGarbageCollection:
    def test_gc_triggers_under_overwrite_pressure(self, sim, device):
        ftl = device.ftl
        lpns = list(range(ftl.logical_pages // 2))
        for round_no in range(4):
            fill(sim, ftl, lpns, tag=round_no)
        assert ftl.gc.runs > 0
        assert ftl.gc.blocks_reclaimed > 0

    def test_data_survives_gc(self, sim, device):
        ftl = device.ftl
        lpns = list(range(ftl.logical_pages // 2))
        for round_no in range(4):
            fill(sim, ftl, lpns, tag=round_no)
        contents = read_all(sim, ftl, lpns)
        for lpn in lpns:
            expected = (lpn + 3) % 251  # last round's tag
            assert contents[lpn][0] == expected, f"lpn {lpn} corrupted by GC"
        ftl.mapping.check_consistency()

    def test_free_blocks_maintained(self, sim, device):
        ftl = device.ftl
        lpns = list(range(ftl.logical_pages // 2))
        for round_no in range(5):
            fill(sim, ftl, lpns, tag=round_no)
        sim.run()  # let background GC finish
        assert ftl.blocks.min_free_per_die >= 1

    def test_gc_moves_pages(self, sim):
        """Collecting a victim that still holds valid pages moves each of
        them out of it, and each reads back the content it was written
        with, from its new flash page."""
        ftl = small_ssd(sim, pages_per_block=64).ftl
        geometry = ftl.geometry
        per_block = geometry.pages_per_block
        # Writes stripe over the dies: this closes one block on each.
        fill(sim, ftl, range(geometry.dies * per_block))
        victim = ftl.mapping.lookup(0) // per_block
        valid = ftl.mapping.valid_lpns_in_block(victim)
        kept = valid[:24]
        for lpn in valid[24:]:
            ftl.trim_page(lpn)
        ftl.gc._migrate_block(victim // geometry.blocks_per_die, victim)
        sim.run()
        assert ftl.gc.pages_moved == len(kept) == 24
        assert ftl.gc.blocks_reclaimed == 1
        ftl.mapping.check_consistency()
        assert ftl.mapping.valid_lpns_in_block(victim) == []
        assert all(ftl.mapping.lookup(lpn) // per_block != victim for lpn in kept)
        for lpn in kept:
            ftl.page_cache.invalidate(lpn)      # read the moved copy, not a cached one
        contents = read_all(sim, ftl, kept)
        for lpn in kept:
            assert contents[lpn] is not None, lpn
            assert (contents[lpn] == lpn % 251).all(), f"lpn {lpn} lost in its move"
        assert ftl.flash.store.erase_count == ftl.gc.blocks_reclaimed + ftl.wear.migrations


class TestMigrationRewriteRace:
    """A page rewritten while its GC/wear migration is in flight must
    abort the move — no flash program paid for a stale copy (regression:
    the pre-fix code only checked the mapping at the final remap, after
    it had already allocated and programmed the page)."""

    def test_gc_move_aborts_when_lpn_rewritten_mid_flight(self, sim, device):
        ftl = device.ftl
        fill(sim, ftl, [0], tag=0)
        programs_before = ftl.flash.total_programs
        finished = []
        gc_move(ftl, 0, 0, lambda: finished.append(True))
        # The migration's flash read is now in flight; retire the lpn the
        # way a completed foreground overwrite would (deterministically,
        # via trim) before the read callback runs.
        ftl.mapping.unmap(0)
        sim.run()
        assert finished == [True]
        assert ftl.flash.total_programs == programs_before
        assert ftl.gc.pages_moved == 0
        assert ftl.gc.moves_aborted == 1
        ftl.mapping.check_consistency()

    def test_wear_move_aborts_when_lpn_rewritten_mid_flight(self, sim, device):
        ftl = device.ftl
        fill(sim, ftl, [0], tag=0)
        programs_before = ftl.flash.total_programs
        finished = []
        ftl.wear._move_page(0, lambda: finished.append(True))
        ftl.mapping.unmap(0)
        sim.run()
        assert finished == [True]
        assert ftl.flash.total_programs == programs_before
        assert ftl.wear.moves_aborted == 1
        ftl.mapping.check_consistency()

    def test_gc_move_completes_when_mapping_unchanged(self, sim, device):
        ftl = device.ftl
        fill(sim, ftl, [0], tag=0)
        old_ppn = ftl.mapping.lookup(0)
        finished = []
        gc_move(ftl, 0, 0, lambda: finished.append(True))
        sim.run()
        assert finished == [True]
        assert ftl.gc.pages_moved == 1
        assert ftl.gc.moves_aborted == 0
        assert ftl.mapping.lookup(0) != old_ppn
        ftl.mapping.check_consistency()


class TestWearLeveling:
    def test_wear_migrations_bound_spread(self, sim):
        device = small_ssd(sim)
        ftl = device.ftl
        # Static data occupying some blocks + hot overwrite traffic.
        static_lpns = list(range(ftl.logical_pages // 4))
        fill(sim, ftl, static_lpns, tag=7)
        hot_lpns = list(
            range(ftl.logical_pages // 4, ftl.logical_pages // 2)
        )
        for round_no in range(30):
            fill(sim, ftl, hot_lpns, tag=round_no)
        sim.run()
        assert ftl.wear.checks > 0
        spread = ftl.blocks.wear_spread()
        # Wear leveling keeps the spread near the configured threshold.
        assert spread <= ftl.config.wear_threshold * 3

    def test_static_data_survives_wear_migration(self, sim):
        device = small_ssd(sim)
        ftl = device.ftl
        static_lpns = list(range(ftl.logical_pages // 4))
        fill(sim, ftl, static_lpns, tag=7)
        hot_lpns = list(range(ftl.logical_pages // 4, ftl.logical_pages // 2))
        for round_no in range(30):
            fill(sim, ftl, hot_lpns, tag=round_no)
        sim.run()
        contents = read_all(sim, ftl, static_lpns)
        for lpn in static_lpns:
            assert contents[lpn][0] == (lpn + 7) % 251
