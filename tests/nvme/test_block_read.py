"""What a conventional read's callback gets: the ``BlockRead`` record, in
the place of an ``NvmeCompletion`` with a payload of page segments.

Its segments (the record itself for one page, its ``pages`` for more)
name the page, the byte range of it the read asked for and the content;
``complete_time`` is the instant its CQ entry landed; a read is
delivered once; and a page the flash could not read reaches the SSD
baseline's slow route as ``None``.
"""

import numpy as np
import pytest

from repro.driver.sync import sync_read, sync_write
from repro.driver.unvme import DriverConfig, UnvmeDriver
from repro.embedding.backends.ssd import SsdSlsBackend, _SsdOp
from repro.flash.reliability import ReadRetryModel, ReliabilityConfig
from repro.nvme.commands import COMPLETION_BYTES, BlockRead, NvmeCommand, Opcode, Status
from repro.ssd.presets import small_ssd

from ..core.test_engine import make_stack


@pytest.fixture
def stack(sim):
    device = small_ssd(sim)
    driver = UnvmeDriver(sim, device, DriverConfig(num_qpairs=2, queue_depth=8))
    return sim, device, driver


def write_pages(sim, device, driver, pages: int) -> np.ndarray:
    data = (np.arange(pages * device.ftl.page_bytes, dtype=np.int64) % 241).astype(np.uint8)
    assert sync_write(sim, driver, 0, pages * device.ftl.lbas_per_page, data).ok
    return data


def segments_of(cpl):
    return [(seg.lpn, seg.offset, seg.nbytes) for seg in cpl.payload.segments]


def test_an_unaligned_sub_page_read(stack):
    sim, device, driver = stack
    lba_bytes, lbas_per_page = device.ftl.config.lba_bytes, device.ftl.lbas_per_page
    assert lbas_per_page >= 4
    data = write_pages(sim, device, driver, 2)
    slba, nlb = lbas_per_page + 1, lbas_per_page - 2       # inside page 1, off its start
    cpl = sync_read(sim, driver, slba, nlb)
    assert type(cpl) is BlockRead and cpl.ok and cpl.status is Status.SUCCESS
    assert cpl.payload is cpl and cpl.payload.nbytes == nlb * lba_bytes
    assert segments_of(cpl) == [(1, lba_bytes, nlb * lba_bytes)]
    got = cpl.payload.to_bytes(device.ftl.page_bytes)
    assert np.array_equal(got, data[slba * lba_bytes : (slba + nlb) * lba_bytes])


def test_a_read_across_two_pages(stack):
    sim, device, driver = stack
    lba_bytes, lbas_per_page = device.ftl.config.lba_bytes, device.ftl.lbas_per_page
    data = write_pages(sim, device, driver, 2)
    slba, nlb = lbas_per_page - 1, 2                       # the last LBA of page 0, the first of 1
    cpl = sync_read(sim, driver, slba, nlb)
    assert cpl.ok and cpl.payload.nbytes == 2 * lba_bytes
    assert segments_of(cpl) == [(0, (lbas_per_page - 1) * lba_bytes, lba_bytes), (1, 0, lba_bytes)]
    assert all(seg is not cpl for seg in cpl.payload.segments)
    got = cpl.payload.to_bytes(device.ftl.page_bytes)
    assert np.array_equal(got, data[slba * lba_bytes : (slba + nlb) * lba_bytes])


def test_complete_time_is_the_instant_the_cq_entry_landed(stack):
    sim, device, driver = stack
    d2h = device.pcie.d2h
    landed, delivered = [], []
    transfer_after = d2h.transfer_after

    def recording(core, service_time, size_bytes, on_done, then_s=0.0):
        at = transfer_after(core, service_time, size_bytes, on_done, then_s)
        if size_bytes == COMPLETION_BYTES:
            landed.append(at)
        return at

    d2h.transfer_after = recording
    driver.read(3, 1, lambda cpl: delivered.append((cpl, sim.now)))
    sim.run()
    ((cpl, now),) = delivered
    assert cpl.complete_time.hex() == landed[0].hex()
    assert (cpl.complete_time + driver.config.complete_cost_s).hex() == now.hex()


def test_a_read_is_delivered_once(stack):
    sim, device, driver = stack
    cpl = sync_read(sim, driver, 0, 1)
    before = [qp.outstanding for qp in driver._qpairs]
    with pytest.raises(RuntimeError, match=f"completion for unknown cid {cpl.cid}"):
        driver._deliver(cpl)
    assert [qp.outstanding for qp in driver._qpairs] == before


def test_a_read_is_a_block_read(stack):
    """The controller reads only a ``BlockRead``: a plain read command is
    an invalid field, and the FTL is not asked."""
    sim, device, driver = stack
    box = []
    driver.submit(NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1), box.append)
    sim.run()
    assert box[0].status is Status.INVALID_FIELD and device.ftl.host_page_reads == 0


def test_an_uncorrectable_page_takes_the_slow_route_and_is_counted(monkeypatch):
    system, table = make_stack(rows=64)
    flash = system.device.flash
    flash.reliability = ReadRetryModel(
        ReliabilityConfig(read_fail_probability=0.5, max_read_retries=0, seed=3)
    )
    slow = []
    slow_route = _SsdOp.slow_route
    monkeypatch.setattr(
        _SsdOp, "slow_route", lambda op, segments, a, b: slow.append(segments[0].content)
        or slow_route(op, segments, a, b)
    )
    rows = np.arange(16)                                  # one row per page
    results = []
    SsdSlsBackend(system, table).start([rows], results.append)
    system.sim.run()
    (result,) = results
    lost = flash.uncorrectable_reads
    assert 0 < lost < 16 and slow == [None] * lost
    assert result.stats["uncorrectable_rows"] == lost
    # The lost rows are zeros in the sum: it is the other rows' sum.
    kept = [row for row in rows if system.device.ftl.page_cache.peek(
        table.base_lba // system.device.ftl.lbas_per_page + int(row))[0]]
    assert len(kept) == 16 - lost
    np.testing.assert_allclose(
        result.values[0], table.get_rows(np.array(kept)).sum(axis=0), rtol=1e-6
    )
