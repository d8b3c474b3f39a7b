"""Queue pairs and the PCIe link model."""

import pytest

from repro.nvme.commands import NvmeCommand, NvmeCompletion, Opcode
from repro.nvme.pcie import PcieConfig, PcieLink
from repro.nvme.queues import QueueFullError, QueuePair, SubmissionQueue
from repro.sim.kernel import Simulator


class TestQueues:
    def test_doorbell_fires_on_push(self):
        sq = SubmissionQueue(1, depth=4)
        rung = []
        sq.set_doorbell(rung.append)
        sq.push(NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1))
        assert rung == [1]
        assert len(sq) == 1

    def test_sq_full(self):
        sq = SubmissionQueue(1, depth=1)
        sq.push(NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1))
        with pytest.raises(QueueFullError):
            sq.push(NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1))

    def test_pop_fifo(self):
        sq = SubmissionQueue(1, depth=4)
        a = NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1)
        b = NvmeCommand(opcode=Opcode.READ, slba=1, nlb=1)
        sq.push(a)
        sq.push(b)
        assert sq.pop() is a
        assert sq.pop() is b
        assert sq.pop() is None

    def test_cq_hands_each_entry_to_its_pickup(self):
        qp = QueuePair(1, depth=4)
        with pytest.raises(RuntimeError, match="no pickup"):
            qp.cq.post(NvmeCompletion(cid=8))
        picked = []
        qp.cq.set_pickup(picked.append, 2e-6)
        assert qp.cq.pickup_s == 2e-6
        qp.cq.post(NvmeCompletion(cid=9))
        qp.cq.post(NvmeCompletion(cid=10))
        assert [cpl.cid for cpl in picked] == [9, 10]
        assert qp.cq.completed == 2

    def test_can_submit_tracks_outstanding(self):
        qp = QueuePair(1, depth=1)
        assert qp.can_submit
        qp.outstanding = 1
        assert not qp.can_submit


class TestPcie:
    def test_duplex_is_independent(self, sim):
        link = PcieLink(sim, PcieConfig(bandwidth_bytes_s=1e6, latency_s=0.0))
        done = []
        link.to_device(1000, lambda: done.append(("h2d", sim.now)))
        link.d2h.transfer(1000, lambda: done.append(("d2h", sim.now)))
        sim.run()
        assert done[0][1] == pytest.approx(1e-3)
        assert done[1][1] == pytest.approx(1e-3)

    def test_byte_counters(self, sim):
        link = PcieLink(sim, PcieConfig(bandwidth_bytes_s=1e6))
        link.to_device(100, lambda: None)
        link.d2h.transfer(250, lambda: None)
        sim.run()
        assert link.bytes_to_device == 100
        assert link.bytes_to_host == 250

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PcieConfig(bandwidth_bytes_s=0)
        with pytest.raises(ValueError):
            PcieConfig(latency_s=-1)
