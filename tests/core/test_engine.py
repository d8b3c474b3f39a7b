"""The NDP SLS engine end-to-end through driver + controller + FTL + flash."""

import numpy as np
import pytest

from repro.core.engine import NdpEngineConfig
from repro.driver.ndp import NdpError, NdpSlsSession
from repro.driver.sync import sync_sls
from repro.driver.unvme import DriverConfig, UnvmeDriver
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.host.system import System, build_system
from repro.ssd.presets import cosmos_plus_config

from ..conftest import make_table, random_bags


def make_stack(ndp_config=None, rows=2048, dim=16, layout=Layout.ONE_PER_PAGE):
    system = System(
        cosmos_plus_config(min_capacity_pages=1 << 14, ndp=ndp_config)
    )
    table = make_table(system, rows=rows, dim=dim, layout=layout)
    return system, table


class TestCorrectness:
    @pytest.mark.parametrize("layout", [Layout.ONE_PER_PAGE, Layout.PACKED])
    def test_matches_reference(self, layout):
        system, table = make_stack(layout=layout)
        rng = np.random.default_rng(5)
        bags = random_bags(rng, 2048, n_bags=12, bag_size=9)
        config = table.make_sls_config(bags)
        payload, timing = sync_sls(system.sim, system.ndp_session, config)
        ref = table.ref_sls(bags)
        assert np.allclose(payload.values, ref, rtol=1e-5, atol=1e-6)
        assert timing.total > 0

    def test_duplicate_ids_accumulate(self):
        system, table = make_stack()
        bags = [np.array([7, 7, 7]), np.array([7])]
        config = table.make_sls_config(bags)
        payload, _ = sync_sls(system.sim, system.ndp_session, config)
        row = table.get_rows(np.array([7]))[0]
        assert np.allclose(payload.values[0], 3 * row, rtol=1e-5)
        assert np.allclose(payload.values[1], row, rtol=1e-5)

    def test_empty_bags_give_zeros(self):
        system, table = make_stack()
        bags = [np.array([], dtype=np.int64), np.array([3])]
        config = table.make_sls_config(bags)
        payload, _ = sync_sls(system.sim, system.ndp_session, config)
        assert np.all(payload.values[0] == 0)
        assert np.allclose(payload.values[1], table.get_rows(np.array([3]))[0], rtol=1e-5)

    def test_large_result_set_spans_pages(self):
        system, table = make_stack(dim=64)
        rng = np.random.default_rng(0)
        bags = random_bags(rng, 2048, n_bags=80, bag_size=4)  # 80*256B = 20KB > 16KB
        config = table.make_sls_config(bags)
        assert config.result_pages(16 * 1024) >= 2
        payload, _ = sync_sls(system.sim, system.ndp_session, config)
        assert np.allclose(payload.values, table.ref_sls(bags), rtol=1e-5, atol=1e-6)


class TestBreakdownAndStats:
    def test_breakdown_components_present(self):
        system, table = make_stack()
        rng = np.random.default_rng(2)
        bags = random_bags(rng, 2048, n_bags=8, bag_size=10)
        payload, timing = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        for key in ("config_write", "config_process", "translation", "flash_read"):
            assert key in payload.breakdown.components
        assert payload.breakdown.get("translation") > 0
        assert payload.flash_pages_read > 0

    def test_flash_pages_leq_unique_pages(self):
        system, table = make_stack()
        bags = [np.array([0, 1, 2, 3])]
        payload, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert payload.flash_pages_read == 4  # one row per page layout

    def test_a_trimmed_page_reads_as_zeros_and_counts_no_flash_read(self):
        """Regression: the read was counted before the mapping lookup found
        the LPN unmapped, so the payload (and ``flash_pages_per_lookup``,
        Fig 8's ``flash_pages``) reported a flash read the FTL never made."""
        system, table = make_stack()
        ftl = system.device.ftl
        ftl.trim_page(table.base_lba // ftl.lbas_per_page + 2)
        reads_before = ftl.flash_page_reads
        bags = [np.array([0, 1, 3]), np.array([2])]
        payload, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert payload.flash_pages_read == ftl.flash_page_reads - reads_before == 3
        assert np.allclose(payload.values[0], table.ref_sls(bags)[0], rtol=1e-5, atol=1e-6)
        assert not payload.values[1].any()
        # A deallocated page is reported with the lost ones (as today).
        assert payload.uncorrectable_pages == 1

    def test_page_cache_fast_path(self):
        system, table = make_stack()
        bags = [np.array([0, 1, 2, 3])]
        sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        # Warm the FTL page cache via a conventional read of page 0.
        driver = system.driver
        from repro.driver.sync import sync_read

        sync_read(system.sim, driver, table.base_lba, 1)
        payload, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert payload.page_cache_hits >= 1
        assert payload.flash_pages_read <= 3


class TestEmbeddingCache:
    def test_cache_hits_on_repeat_request(self):
        system, table = make_stack(ndp_config=NdpEngineConfig(embcache_slots=4096))
        bags = [np.array([1, 2, 3, 4, 5])]
        config = table.make_sls_config(bags)
        p1, _ = sync_sls(system.sim, system.ndp_session, config)
        assert p1.emb_cache_hits == 0
        p2, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert p2.emb_cache_hits == 5
        assert p2.flash_pages_read == 0
        assert np.allclose(p1.values, p2.values, rtol=1e-6)

    def test_cache_disabled_by_default(self):
        system, table = make_stack()
        bags = [np.array([1, 2])]
        sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        p2, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert p2.emb_cache_hits == 0

    def test_cached_values_correct_after_partial_overlap(self):
        system, table = make_stack(ndp_config=NdpEngineConfig(embcache_slots=4096))
        sync_sls(
            system.sim, system.ndp_session,
            table.make_sls_config([np.array([10, 11])]),
        )
        bags = [np.array([10, 99]), np.array([11, 11])]
        payload, _ = sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        assert np.allclose(payload.values, table.ref_sls(bags), rtol=1e-5, atol=1e-6)


class TestConcurrencyAndLimits:
    def test_concurrent_requests_interleave_and_complete(self):
        system, table = make_stack()
        rng = np.random.default_rng(3)
        results = {}
        all_bags = {}
        for i in range(4):
            bags = random_bags(rng, 2048, n_bags=4, bag_size=6)
            all_bags[i] = bags
            system.ndp_session.sls(
                table.make_sls_config(bags),
                lambda payload, _t, i=i: results.__setitem__(i, payload),
            )
        system.sim.run_until(lambda: len(results) == 4)
        for i, bags in all_bags.items():
            assert np.allclose(
                results[i].values, table.ref_sls(bags), rtol=1e-5, atol=1e-6
            )

    def test_entry_limit_rejects(self):
        system, table = make_stack(
            ndp_config=NdpEngineConfig(max_entries=1)
        )
        rng = np.random.default_rng(4)
        ok = []
        failures = []

        def run_one():
            bags = random_bags(rng, 2048, n_bags=2, bag_size=400)
            try:
                system.ndp_session.sls(
                    table.make_sls_config(bags), lambda p, t: ok.append(1)
                )
            except NdpError:
                failures.append(1)

        run_one()
        run_one()  # second should be rejected while first occupies the buffer
        with pytest.raises(NdpError):
            system.sim.run()
        assert system.device.ndp.requests_rejected >= 1

    def test_invalid_input_id_fails_request(self):
        system, table = make_stack()
        config = table.make_sls_config([np.array([5])])
        config.table_rows = 4  # corrupt after construction
        config.pairs = np.array([[5, 0]])
        with pytest.raises(NdpError):
            sync_sls(system.sim, system.ndp_session, config)

    def test_result_read_for_unknown_request(self, sim):
        from repro.nvme.commands import NvmeCommand, Opcode, Status

        system, table = make_stack()
        qp = system.driver._qpairs[0]
        box = []
        system.device.controller.ndp_engine.handle_result_read(
            NvmeCommand(opcode=Opcode.READ, slba=table.base_lba + 999, nlb=1, ndp=True),
            lambda payload, status: box.append(status),
        )
        system.sim.run()
        assert box == [Status.INVALID_FIELD]
