"""FaultInjector behaviour against live systems and servers.

Every fault kind is exercised against the real components it mutates:
fail-slow swaps flash timing (and restores it exactly, without
compounding), read-error injection deterministically loses rows without
poisoning any cache, an NDP crash reroutes SLS ops through the host
fallback path, and a fail-stopped device degrades sharded batches into
partial sums with per-request quality accounting.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.faults import FaultEvent, FaultInjector, FaultSpec
from repro.host.system import build_system
from repro.models.runner import BackendKind
from repro.serving import TableShardPolicy
from repro.serving.request import RequestState
from repro.workload import OpenLoopGenerator, run_scenario, run_workload

from ..ftl.host_read import read_pages
from ..serving.conftest import build_server, toy_model
from .test_spec import open_scenario


def build_mapped_system(page_cache_pages: int = 0):
    """A small system with one table attached, so LPNs 0..N are mapped."""
    system = build_system(
        min_capacity_pages=1 << 14, page_cache_pages=page_cache_pages
    )
    table = EmbeddingTable(
        TableSpec(name="t", rows=4096, dim=16, layout=Layout.PACKED)
    )
    table.attach(system.device)
    return system, table


def timed_read(system, lpn: int) -> tuple[float, object]:
    done = []
    before = system.sim.now
    read_pages(system.device.ftl, [lpn], done.append)
    system.sim.run_until(lambda: bool(done))
    return system.sim.now - before, done[0][0]


def arm(system, events) -> FaultInjector:
    injector = FaultInjector(FaultSpec(events=tuple(events)))
    injector.arm_server(SimpleNamespace(sim=system.sim, system=system))
    return injector


def conserves(stats) -> bool:
    return (
        stats.submitted
        == stats.completed + stats.rejected + stats.dropped + stats.inflight
    )


class TestFailSlow:
    def test_inflates_then_restores_exactly(self):
        system, _ = build_mapped_system()
        injector = arm(
            system,
            [
                FaultEvent(t=1.0, kind="fail_slow", factor=10.0),
                FaultEvent(t=2.0, kind="restore_speed"),
            ],
        )
        healthy, _ = timed_read(system, 0)
        system.sim.run_until(lambda: system.sim.now >= 1.0)
        slow, _ = timed_read(system, 1)
        system.sim.run_until(lambda: system.sim.now >= 2.0)
        repaired, _ = timed_read(system, 2)
        assert healthy > 0
        # The flash-internal portion (cmd + tR + channel transfer)
        # inflates by exactly 10x; host-side transfer does not, so the
        # end-to-end read lands between 5x and 10x at this page size.
        assert 5.0 * healthy < slow < 10.0 * healthy
        assert repaired == pytest.approx(healthy, rel=1e-12)
        assert injector.stats.injected == 2
        assert injector.stats.by_kind == {"fail_slow": 1, "restore_speed": 1}

    def test_repeated_fail_slow_rederives_instead_of_compounding(self):
        system, _ = build_mapped_system()
        arm(
            system,
            [
                FaultEvent(t=1.0, kind="fail_slow", factor=10.0),
                FaultEvent(t=2.0, kind="fail_slow", factor=10.0),
                FaultEvent(t=3.0, kind="restore_speed"),
            ],
        )
        healthy, _ = timed_read(system, 0)
        system.sim.run_until(lambda: system.sim.now >= 1.0)
        once_failed, _ = timed_read(system, 1)
        system.sim.run_until(lambda: system.sim.now >= 2.0)
        twice_failed, _ = timed_read(system, 2)
        system.sim.run_until(lambda: system.sim.now >= 3.0)
        repaired, _ = timed_read(system, 3)
        # 10x of the *original*, not 100x: the second fail_slow rederives
        # from the stashed baseline timing, so the latency is unchanged.
        assert once_failed > healthy
        assert twice_failed == pytest.approx(once_failed, rel=1e-12)
        assert repaired == pytest.approx(healthy, rel=1e-9)

    def test_a_swap_mid_operation_charges_what_each_phase_read_when(self):
        """A program reads tPROG when its bus phase *ends*; a read keeps
        the bus transfer time it was submitted with."""
        system, _ = build_mapped_system()
        flash = system.device.ftl.flash
        healthy = flash.timing
        xfer = healthy.t_cmd_s + healthy.transfer_time(flash.geometry.page_bytes)
        read_unit = healthy.t_cmd_s + healthy.t_read_s
        # Lands inside the program's bus phase and the read's die phase.
        arm(system, [FaultEvent(t=min(xfer, read_unit) / 2, kind="fail_slow", factor=10.0)])
        programmed, read = [], []
        free_ppn = system.device.ftl.blocks.allocate_page()
        read_ppn = system.device.ftl.mapping.lookup(flash.geometry.ways)  # the next channel
        assert flash.geometry.addr(free_ppn).channel != flash.geometry.addr(read_ppn).channel
        flash.program(free_ppn, b"x", lambda: programmed.append(system.sim.now))
        flash.read(read_ppn, lambda _content: read.append(system.sim.now))
        system.sim.run()
        assert programmed == [xfer + 10.0 * healthy.t_program_s]
        assert read == [read_unit + xfer]

    def test_restore_without_fault_is_a_noop(self):
        system, _ = build_mapped_system()
        injector = arm(system, [FaultEvent(t=1.0, kind="restore_speed")])
        healthy, _ = timed_read(system, 0)
        system.sim.run_until(lambda: system.sim.now >= 1.0)
        after, _ = timed_read(system, 1)
        assert after == pytest.approx(healthy, rel=1e-9)
        assert injector.stats.log[0]["detail"] == {"restored": False}


class TestReadErrors:
    def test_uncorrectable_pages_deliver_none_deterministically(self):
        def run():
            system, _ = build_mapped_system()
            injector = arm(
                system,
                [
                    FaultEvent(
                        t=0.0, kind="read_errors", fraction=0.6, seed=5
                    ),
                ],
            )
            system.sim.run_until(lambda: injector.stats.injected >= 1)
            done = []
            read_pages(system.device.ftl, list(range(64)), done.append)
            system.sim.run_until(lambda: bool(done))
            return [c is None for c in done[0]], system.sim.now

        pattern_a, t_a = run()
        pattern_b, t_b = run()
        assert any(pattern_a) and not all(pattern_a)
        # Deterministic: same seed, same loss pattern, same finish time.
        assert pattern_a == pattern_b
        assert t_a == t_b

    def test_uncorrectable_pages_never_enter_the_page_cache(self):
        system, _ = build_mapped_system(page_cache_pages=128)
        injector = arm(
            system,
            [FaultEvent(t=0.0, kind="read_errors", fraction=0.6, seed=5)],
        )
        system.sim.run_until(lambda: injector.stats.injected >= 1)
        done = []
        read_pages(system.device.ftl, list(range(64)), done.append)
        system.sim.run_until(lambda: bool(done))
        lost = [i for i, c in enumerate(done[0]) if c is None]
        assert lost
        cache = system.device.ftl.page_cache
        for lpn in lost:
            hit, _content = cache.peek(lpn)
            assert not hit, f"uncorrectable lpn {lpn} was cached"
        # Re-reading a lost page must go to flash again (no poisoned
        # hit); with the error stream advanced it may now succeed.
        hits_before = cache.hits
        done2 = []
        read_pages(system.device.ftl, [lost[0]], done2.append)
        system.sim.run_until(lambda: bool(done2))
        assert cache.hits == hits_before

    def test_clear_restores_original_reliability_instance(self):
        system, _ = build_mapped_system()
        original = system.device.flash.reliability
        injector = arm(
            system,
            [
                FaultEvent(t=0.0, kind="read_errors", fraction=0.3),
                FaultEvent(t=1.0, kind="clear_read_errors"),
            ],
        )
        system.sim.run_until(lambda: injector.stats.injected >= 1)
        assert system.device.flash.reliability is not original
        system.sim.run_until(lambda: injector.stats.injected >= 2)
        assert system.device.flash.reliability is original

    def test_ssd_backend_counts_uncorrectable_rows_and_completes(self):
        server = build_server(toy_model(), kind=BackendKind.SSD)
        arm(
            server.system,
            [FaultEvent(t=0.0, kind="read_errors", fraction=0.7, seed=3)],
        )
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=4000.0, n_requests=24, batch_size=2),
            seed=1,
        )
        assert conserves(stats)
        assert stats.completed == stats.submitted
        assert stats.uncorrectable_rows > 0


class TestNdpCrash:
    def _backend(self, server, model="toy"):
        worker = server.workers[model][0]
        return next(worker.stage.backends())

    def _fallback_ops(self, server, model="toy"):
        worker = server.workers[model][0]
        return sum(b.fallback_ops for b in worker.stage.backends())

    def test_crash_falls_back_to_host_path_and_restores(self):
        server = build_server(toy_model(), kind=BackendKind.NDP)
        arm(
            server.system,
            [
                FaultEvent(t=0.002, kind="ndp_crash"),
                FaultEvent(t=0.05, kind="ndp_restore"),
            ],
        )
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=2000.0, n_requests=40, batch_size=2),
            seed=2,
        )
        assert conserves(stats)
        assert stats.completed == stats.submitted
        assert stats.ndp_fallbacks > 0
        # ndp_fallbacks counts per-table ops summed over every backend.
        assert self._fallback_ops(server) == stats.ndp_fallbacks
        # After the restore some ops ran on the engine again.
        assert self._fallback_ops(server) < stats.batches_dispatched * len(
            server.workers["toy"][0].stage.by_shard[0]
        )
        assert not server.system.device.ndp.down

    def test_fallback_values_match_reference(self):
        def pooled(down: bool):
            server = build_server(toy_model(), kind=BackendKind.NDP)
            server.system.device.ndp.down = down
            request = server.submit(
                "toy", toy_model().sample_batch(np.random.default_rng(9), 2)
            )
            server.run_until_settled()
            assert request.state is RequestState.COMPLETE
            return {k: v.copy() for k, v in request.values.items()}

        healthy = pooled(False)
        fallback = pooled(True)
        assert set(healthy) == set(fallback)
        for name in healthy:
            np.testing.assert_allclose(
                fallback[name], healthy[name], rtol=1e-4, atol=1e-5
            )

    def test_fallback_reset_stats_cascades(self):
        server = build_server(toy_model(), kind=BackendKind.NDP)
        server.system.device.ndp.down = True
        run_workload(
            server,
            OpenLoopGenerator("toy", rate=2000.0, n_requests=6, batch_size=1),
            seed=3,
        )
        backend = self._backend(server)
        assert backend.fallback_ops > 0
        backend.reset_stats()
        assert backend.fallback_ops == 0


class TestDeviceDown:
    def test_sharded_batches_degrade_with_missing_bag_accounting(self):
        model = toy_model(num_tables=4)
        server = build_server(
            model,
            kind=BackendKind.NDP,
            num_workers=2,
            sharding=TableShardPolicy(),
        )
        arm(server.system, [FaultEvent(t=0.0, kind="device_down", device=1)])
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=2000.0, n_requests=20, batch_size=2),
            seed=4,
        )
        assert conserves(stats)
        assert stats.completed == stats.submitted          # nothing failed
        assert 0 < stats.degraded <= stats.completed       # degraded subset
        assert stats.missing_bags > 0

    def test_device_up_ends_degradation(self):
        model = toy_model(num_tables=4)
        server = build_server(
            model,
            kind=BackendKind.NDP,
            num_workers=2,
            sharding=TableShardPolicy(),
        )
        arm(
            server.system,
            [
                FaultEvent(t=0.0, kind="device_down", device=1),
                FaultEvent(t=0.004, kind="device_up", device=1),
            ],
        )
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=2000.0, n_requests=40, batch_size=2),
            seed=4,
        )
        assert conserves(stats)
        assert 0 < stats.degraded < stats.completed
        assert not server.system.devices[1].down

    def test_degraded_request_values_are_partial_not_garbage(self):
        model = toy_model(num_tables=4)
        server = build_server(
            model,
            kind=BackendKind.NDP,
            num_workers=2,
            sharding=TableShardPolicy(),
        )
        server.system.devices[1].down = True
        request = server.submit(
            "toy", model.sample_batch(np.random.default_rng(2), 2)
        )
        server.run_until_settled()
        assert request.state is RequestState.COMPLETE
        assert request.degraded and request.missing_bags > 0
        # Tables on the down device contribute zeros; the rest are real.
        assert any(np.all(v == 0.0) for v in request.values.values())
        assert any(np.any(v != 0.0) for v in request.values.values())
        assert all(np.isfinite(v).all() for v in request.values.values())

    @pytest.mark.parametrize("num_workers", [1, 2])
    @pytest.mark.parametrize("kind", [BackendKind.SSD, BackendKind.NDP])
    def test_replica_on_a_down_device_degrades_and_recovers(self, kind, num_workers):
        """A replica is a plan like any other: the same ``available``
        check skips its pieces (it used to answer in full from a
        fail-stopped device).  No failover to a healthy replica."""
        model = toy_model()
        server = build_server(model, kind=kind, num_workers=num_workers)
        victim = server.system.devices[num_workers - 1]
        rng = np.random.default_rng(5)

        def one_round():
            # Settled one at a time, batches round-robin: request i runs
            # on replica i.
            requests = []
            for _ in range(num_workers):
                requests.append(server.submit("toy", model.sample_batch(rng, 2)))
                server.run_until_settled()
            assert all(r.state is RequestState.COMPLETE for r in requests)
            return requests

        victim.down = True
        *healthy, lost = one_round()
        assert lost.degraded and lost.missing_bags == 2 * len(model.features)
        assert all(np.all(v == 0.0) for v in lost.values.values())
        for request in healthy:
            assert not request.degraded and request.missing_bags == 0
            assert all(np.any(v != 0.0) for v in request.values.values())
        assert server.stats.degraded == 1

        victim.down = False
        for request in one_round():
            assert not request.degraded and request.missing_bags == 0
            assert all(np.any(v != 0.0) for v in request.values.values())
        assert server.stats.degraded == 1


class TestScenarioIntegration:
    def test_faulty_scenario_is_deterministic(self):
        spec = open_scenario(
            faults=FaultSpec(
                events=(
                    FaultEvent(t=0.001, kind="fail_slow", factor=8.0),
                    FaultEvent(t=0.004, kind="restore_speed"),
                )
            )
        )
        a = run_scenario(spec, [toy_model()])
        b = run_scenario(spec, [toy_model()])
        assert a.summary == b.summary

    def test_fault_free_spec_schedules_nothing(self):
        injector = FaultInjector(FaultSpec())
        system = build_system(min_capacity_pages=1 << 12)
        pending_before = system.sim.pending_events
        injector.arm_server(SimpleNamespace(sim=system.sim, system=system))
        assert system.sim.pending_events == pending_before
        assert injector.stats.injected == 0

    def test_device_index_out_of_range_raises_at_fire_time(self):
        system, _ = build_mapped_system()
        arm(system, [FaultEvent(t=0.5, kind="fail_slow", device=7)])
        with pytest.raises(ValueError, match="out of range"):
            system.sim.run_until(lambda: system.sim.now > 0.5)
