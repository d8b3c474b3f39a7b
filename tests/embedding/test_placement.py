"""Heat tracking and GC-piggybacked layout migration."""

import numpy as np
import pytest

from repro.embedding import DenseTableData, EmbeddingTable, TableSpec
from repro.embedding.placement import (
    HeatTracker,
    LayoutMigrator,
    heat_from_rows,
    profile_heat,
)
from repro.host.system import build_system
from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd


def make_attached_table(rows=256, dim=8, heat=None, seed=0):
    system = build_system(min_capacity_pages=512)
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        TableSpec(name="t", rows=rows, dim=dim),
        data=DenseTableData(rng.standard_normal((rows, dim)).astype(np.float32)),
    )
    if heat is not None:
        table.set_heat(heat)
    table.attach(system.device)
    return system, table


class TestHeatHelpers:
    def test_heat_from_rows(self):
        heat = heat_from_rows(np.array([1, 1, 3]), num_rows=4)
        assert heat.tolist() == [0.0, 2.0, 0.0, 1.0]

    def test_profile_heat_deterministic(self):
        def make_sampler():
            rng = np.random.default_rng(7)
            return lambda n: rng.integers(0, 50, size=n)

        a = profile_heat(make_sampler(), 50, batches=10, batch_size=32)
        b = profile_heat(make_sampler(), 50, batches=10, batch_size=32)
        assert np.array_equal(a, b)
        assert a.sum() == 320


class TestHeatTracker:
    def test_record_counts(self):
        tracker = HeatTracker(8)
        tracker.record(np.array([1, 1, 5]))
        assert tracker.heat.tolist() == [0, 2, 0, 0, 0, 1, 0, 0]
        assert tracker.rows_recorded == 3

    def test_decay_on_traffic(self):
        tracker = HeatTracker(4, decay=0.5, decay_every=4)
        tracker.record(np.array([0, 0, 0, 0]))  # hits decay_every exactly
        assert tracker.heat[0] == pytest.approx(2.0)
        tracker.record(np.array([1, 1]))
        assert tracker.heat[1] == pytest.approx(2.0)  # no decay yet

    def test_initial_seeding_and_validation(self):
        tracker = HeatTracker(3, initial=np.array([1.0, 2.0, 3.0]))
        assert tracker.heat.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            HeatTracker(3, initial=np.zeros(4))
        with pytest.raises(ValueError, match=r"HeatTracker\.num_rows must be"):
            HeatTracker(0)
        with pytest.raises(ValueError, match=r"HeatTracker\.decay must be"):
            HeatTracker(3, decay=1.5)


class TestLayoutMigrator:
    def test_repacks_victim_pages_against_current_heat(self):
        rows = 64
        system, table = make_attached_table(rows=rows, heat=np.zeros(rows))
        rpp = table.rows_per_page
        base_lpn = table.base_lba // system.device.ftl.lbas_per_page
        # Popularity shifted after load: the last rows are now hottest.
        tracker = HeatTracker(rows)
        tracker.record(np.repeat(np.arange(rows), np.arange(rows)))
        table.heat_tracker = tracker
        migrator = LayoutMigrator(budget_rows=rows)
        migrator.register(table, tracker)
        n_pages = table.spec.table_pages(table.page_bytes)
        migrator.on_block_reclaimed(list(range(base_lpn, base_lpn + n_pages)))
        assert migrator.repacks == 1
        assert migrator.rows_repacked > 0
        table.layout.check_permutation()
        # Hottest row now sits at rank 0 (page 0, slot 0).
        assert table.row_location(rows - 1) == (0, 0)

    def test_budget_bounds_rows_per_cycle(self):
        rows = 64
        system, table = make_attached_table(rows=rows, heat=np.zeros(rows))
        rpp = table.rows_per_page
        base_lpn = table.base_lba // system.device.ftl.lbas_per_page
        tracker = HeatTracker(rows)
        tracker.record(np.arange(rows))
        tracker.record(np.arange(rows // 2, rows))
        table.heat_tracker = tracker
        migrator = LayoutMigrator(budget_rows=rpp)  # one page per cycle
        migrator.register(table, tracker)
        n_pages = table.spec.table_pages(table.page_bytes)
        migrator.on_block_reclaimed(list(range(base_lpn, base_lpn + n_pages)))
        assert migrator.rows_skipped_budget > 0
        table.layout.check_permutation()

    def test_ignores_foreign_lpns_and_identity_layouts(self):
        system, table = make_attached_table(rows=32)  # no heat -> layout None
        tracker = HeatTracker(32)
        migrator = LayoutMigrator(budget_rows=64)
        # Tables without a layout are skipped (entry never registered).
        migrator.on_block_reclaimed([0, 1, 2])
        assert migrator.repacks == 0

    def test_register_validates_tracker_size(self):
        system, table = make_attached_table(rows=32, heat=np.zeros(32))
        migrator = LayoutMigrator(budget_rows=8)
        with pytest.raises(ValueError):
            migrator.register(table, HeatTracker(16))

    def test_values_survive_migration(self):
        """Reads through the lazy page content stay correct after ranks
        move: the layout is consulted at extraction time."""
        rows = 96
        heat = np.linspace(1.0, 0.0, rows)
        system, table = make_attached_table(rows=rows, heat=heat, seed=3)
        ref = table.get_rows(np.arange(rows))
        tracker = HeatTracker(rows)
        tracker.record(np.repeat(np.arange(rows), np.arange(rows)))  # reversed
        migrator = LayoutMigrator(budget_rows=rows)
        migrator.register(table, tracker)
        base_lpn = table.base_lba // system.device.ftl.lbas_per_page
        n_pages = table.spec.table_pages(table.page_bytes)
        migrator.on_block_reclaimed(list(range(base_lpn, base_lpn + n_pages)))
        assert migrator.rows_repacked > 0
        from repro.embedding.backends.ssd import SsdSlsBackend

        backend = SsdSlsBackend(system, table)
        rng = np.random.default_rng(5)
        bags = [rng.integers(0, rows, size=8).astype(np.int64) for _ in range(8)]
        res = backend.run_sync(bags)
        assert np.allclose(res.values, table.ref_sls(bags), rtol=1e-5, atol=1e-5)


class TestGcHookWiring:
    def test_gc_invokes_migrator_on_reclaim(self, ):
        sim = Simulator()
        device = small_ssd(sim)
        ftl = device.ftl

        calls = []

        class Recorder:
            def on_block_reclaimed(self, lpns):
                calls.append(list(lpns))

        ftl.layout_migrator = Recorder()
        # Overwrite pressure until GC reclaims at least one block with
        # surviving pages.
        lpns = list(range(ftl.logical_pages // 2))
        for round_no in range(5):
            done = {"n": 0}
            for lpn in lpns:
                payload = np.full(ftl.page_bytes, (lpn + round_no) % 251, np.uint8)
                ftl.write_page(
                    lpn, payload, lambda: done.__setitem__("n", done["n"] + 1)
                )
            sim.run_until(lambda: done["n"] == len(lpns))
        sim.run()
        assert ftl.gc.blocks_reclaimed > 0
        if any(calls):
            assert all(isinstance(lpn, int) for call in calls for lpn in call)
        # Victims with zero valid pages pass no lpns (hook not called).
        assert len(calls) <= ftl.gc.blocks_reclaimed
