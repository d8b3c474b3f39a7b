"""UNVMe driver model and NDP session plumbing."""

import numpy as np
import pytest

from repro.driver.ndp import NdpSlsSession
from repro.driver.sync import sync_read, sync_sls, sync_write
from repro.driver.unvme import DriverConfig, UnvmeDriver
from repro.nvme.commands import NvmeCompletion
from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd

from ..conftest import make_table, random_bags


@pytest.fixture
def stack(sim):
    device = small_ssd(sim)
    driver = UnvmeDriver(sim, device, DriverConfig(num_qpairs=2, queue_depth=4))
    return sim, device, driver


class TestDriver:
    def test_round_robin_across_qpairs(self, stack):
        sim, device, driver = stack
        done = []
        for i in range(4):
            driver.read(i, 1, done.append)
        sim.run_until(lambda: len(done) == 4)
        # Both qpairs were used.
        assert all(qp.sq.submitted > 0 for qp in driver._qpairs)

    def test_submit_cost_delays_doorbell(self, stack):
        sim, device, driver = stack
        driver.read(0, 1, lambda c: None)
        assert driver._qpairs[0].sq.submitted == 0  # not yet pushed
        sim.run_until(lambda: driver._qpairs[0].sq.submitted == 1)
        assert sim.now >= driver.config.submit_cost_s

    def test_nlb_for_bytes(self, stack):
        _sim, device, driver = stack
        lba = driver.lba_bytes
        assert driver.nlb_for_bytes(1) == 1
        assert driver.nlb_for_bytes(lba) == 1
        assert driver.nlb_for_bytes(lba + 1) == 2

    def test_backlog_drains_in_order(self, stack):
        sim, device, driver = stack
        order = []
        for i in range(20):
            driver.read(i % 4, 1, lambda c, i=i: order.append(i))
        assert driver.outstanding == 20
        sim.run_until(lambda: len(order) == 20)
        assert driver.outstanding == 0

    def test_unknown_cid_raises_and_touches_nothing(self, stack):
        # The queue pair comes from the cid's entry, so an unknown cid is
        # refused before any pair's count or the backlog is touched.
        _sim, _device, driver = stack
        for i in range(20):
            driver.read(i % 4, 1, lambda c: None)
        before = [qp.outstanding for qp in driver._qpairs], len(driver._backlog)
        with pytest.raises(RuntimeError, match="unknown cid"):
            driver._deliver(NvmeCompletion(cid=1 << 40))
        assert ([qp.outstanding for qp in driver._qpairs], len(driver._backlog)) == before


class TestSecondDriverOnOneDevice:
    """qids are device-global (``SsdDevice.create_qpair`` counts every
    pair the device has), so a second driver's pairs do not start at 1:
    its completions must be looked up by qid, not by position."""

    @pytest.mark.parametrize("first,second", [(2, 2), (1, 4)])
    def test_completions_reach_the_driver_that_issued_them(self, sim, first, second):
        # (2, 2): qid 3 used to index past the second driver's two pairs.
        # (1, 4): qid 2 used to poll the pair with qid 3, find nothing
        # and drop the completion — no callback, no error.
        device = small_ssd(sim)
        UnvmeDriver(sim, device, DriverConfig(num_qpairs=first, queue_depth=4))
        driver = UnvmeDriver(sim, device, DriverConfig(num_qpairs=second, queue_depth=4))
        assert [qp.qid for qp in driver._qpairs] == list(range(first + 1, first + second + 1))
        done = []
        for i in range(3):
            driver.read(i, 1, done.append)
        sim.run()
        assert len(done) == 3 and all(cpl.ok for cpl in done)
        assert driver.outstanding == 0


class TestNdpSession:
    def test_rid_allocation_recycles(self, sim):
        from repro.host.system import System
        from repro.ssd.presets import cosmos_plus_config

        system = System(cosmos_plus_config(min_capacity_pages=1 << 14))
        table = make_table(system, rows=512, dim=8)
        rng = np.random.default_rng(0)
        rids = set()
        for _ in range(5):
            bags = random_bags(rng, 512, 2, 3)
            config = table.make_sls_config(bags)
            payload, _ = sync_sls(system.sim, system.ndp_session, config)
            rids.add(config.request_id)
            assert np.allclose(payload.values, table.ref_sls(bags), rtol=1e-5, atol=1e-6)
        assert len(rids) == 5  # sequential ids while none in flight
        assert not system.ndp_session._inflight_rids

    def test_timing_fields_ordered(self, sim):
        from repro.host.system import System
        from repro.ssd.presets import cosmos_plus_config

        system = System(cosmos_plus_config(min_capacity_pages=1 << 14))
        table = make_table(system, rows=512, dim=8)
        bags = [np.array([1, 2, 3])]
        _payload, timing = sync_sls(
            system.sim, system.ndp_session, table.make_sls_config(bags)
        )
        assert timing.submit_time <= timing.config_done_time <= timing.result_time
        assert timing.total == pytest.approx(
            timing.result_time - timing.submit_time
        )
        assert timing.breakdown.total > 0
