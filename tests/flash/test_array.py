"""Flash array DES: latencies, parallelism, data movement."""

import pytest

from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming

GEO = FlashGeometry(channels=2, ways=2, blocks_per_die=4, pages_per_block=8,
                    page_bytes=4096)
TIM = FlashTiming()


@pytest.fixture
def array(sim):
    return FlashArray(sim, GEO, TIM)


def unloaded_read_time() -> float:
    return (
        TIM.t_cmd_s
        + TIM.t_read_s
        + TIM.t_cmd_s
        + TIM.transfer_time(GEO.page_bytes)
    )


class TestTiming:
    def test_single_read_latency(self, sim, array):
        done = []
        array.read(0, lambda content: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(unloaded_read_time())

    def test_reads_on_one_channel_serialize_on_bus(self, sim, array):
        done = []
        ppn_same_channel_other_way = GEO.ppn(
            GEO.addr(0)._replace(way=1)
        )
        array.read(0, lambda c: done.append(sim.now))
        array.read(ppn_same_channel_other_way, lambda c: done.append(sim.now))
        sim.run()
        # tR overlaps across ways; transfers serialize on the shared bus.
        xfer = TIM.t_cmd_s + TIM.transfer_time(GEO.page_bytes)
        assert done[1] == pytest.approx(unloaded_read_time() + xfer)

    def test_reads_on_different_channels_parallel(self, sim, array):
        done = []
        other_channel = GEO.ppn(GEO.addr(0)._replace(channel=1))
        array.read(0, lambda c: done.append(sim.now))
        array.read(other_channel, lambda c: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(unloaded_read_time())
        assert done[1] == pytest.approx(unloaded_read_time())

    def test_same_die_reads_serialize_at_die(self, sim, array):
        done = []
        array.read(0, lambda c: done.append(sim.now))
        array.read(1, lambda c: done.append(sim.now))
        sim.run()
        assert done[1] > done[0]

    def test_program_latency_includes_tprog(self, sim, array):
        done = []
        array.program(0, b"x", lambda: done.append(sim.now))
        sim.run()
        expected = (
            TIM.t_cmd_s
            + TIM.transfer_time(GEO.page_bytes)
            + TIM.t_program_s
        )
        assert done[0] == pytest.approx(expected)

    def test_erase_latency(self, sim, array):
        done = []
        array.erase(0, lambda: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(TIM.t_cmd_s + TIM.t_erase_s)


class TestData:
    def test_program_then_read_returns_content(self, sim, array):
        got = []
        array.program(0, "payload", lambda: None)
        sim.run()
        array.read(0, got.append)
        sim.run()
        assert got == ["payload"]

    def test_read_unwritten_returns_none(self, sim, array):
        got = []
        array.read(5, got.append)
        sim.run()
        assert got == [None]

    def test_erase_drops_content(self, sim, array):
        array.program(0, "x", lambda: None)
        sim.run()
        array.erase(0, lambda: None)
        sim.run()
        got = []
        array.read(0, got.append)
        sim.run()
        assert got == [None]


class TestStats:
    def test_counters(self, sim, array):
        array.program(0, "x", lambda: None)
        sim.run()
        array.read(0, lambda c: None)
        sim.run()
        array.erase(0, lambda: None)
        sim.run()
        assert array.total_programs() == 1
        assert array.total_reads() == 1
        assert array.total_erases() == 1
        assert array.idle

    def test_channel_load_tracking(self, sim, array):
        other_channel = GEO.ppn(GEO.addr(0)._replace(channel=1))
        array.read(0, lambda c: None)
        array.read(other_channel, lambda c: None)
        sim.run()
        assert array.channel_load() == [1, 1]


class TestSustainedThroughput:
    def test_channel_sustains_bus_limited_rate(self, sim):
        """With >= 2 ways, N page reads on one channel take ~N * xfer."""
        array = FlashArray(sim, GEO, TIM)
        n = 16
        done = []
        base = GEO.addr(0)
        for i in range(n):
            # alternate ways on channel 0
            ppn = GEO.ppn(base._replace(way=i % 2, page=i // 2))
            array.read(ppn, lambda c: done.append(sim.now))
        sim.run()
        per_page = TIM.t_cmd_s + TIM.transfer_time(GEO.page_bytes)
        expected = n * per_page + TIM.t_cmd_s + TIM.t_read_s
        assert done[-1] == pytest.approx(expected, rel=0.15)

    def test_default_timing_matches_paper_iops(self):
        timing = FlashTiming()
        ios = timing.sustained_read_ios_per_channel(16 * 1024)
        assert 8_000 <= ios <= 12_000  # ~10K IOPS/channel (Sec 5)

