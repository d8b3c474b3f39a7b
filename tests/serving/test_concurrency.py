"""Concurrency guarantees: SLS requests genuinely overlap in simulated time."""

import numpy as np
import pytest

from repro.core.engine import NdpEngineConfig
from repro.driver.sync import sync_sls
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.host.system import System
from repro.models.runner import BackendKind
from repro.serving import ServingConfig
from repro.ssd.presets import cosmos_plus_config

from .conftest import build_server, toy_model


class TestNdpOverlap:
    def test_serving_overlaps_sls_requests_on_device(self):
        """The acceptance bar: >=2 SLS requests in flight at once on NDP."""
        model = toy_model()
        server = build_server(
            model,
            kind=BackendKind.NDP,
            serving_config=ServingConfig(
                max_batch_requests=2, max_inflight_batches_per_worker=2
            ),
        )
        rng = np.random.default_rng(5)
        for _ in range(8):
            server.submit(model.name, model.sample_batch(rng, 2))
        server.run_until_settled()
        engine = server.system.device.ndp
        assert engine.max_concurrent_requests >= 2
        assert engine.overlap_seconds > 0.0
        assert engine.requests_overlapped >= 2

    def test_backend_tracks_inflight_overlap(self):
        model = toy_model()
        server = build_server(
            model,
            kind=BackendKind.NDP,
            serving_config=ServingConfig(
                max_batch_requests=1, max_inflight_batches_per_worker=2
            ),
        )
        rng = np.random.default_rng(5)
        for _ in range(6):
            server.submit(model.name, model.sample_batch(rng, 1))
        server.run_until_settled()
        backends = server.workers[model.name][0].stage.by_shard[0]
        # Two outstanding coalesced batches -> each table backend saw
        # overlapping operations.
        assert max(b.max_inflight for b in backends.values()) >= 2

    def test_overlap_seconds_zero_for_serial_requests(self):
        system = System(cosmos_plus_config(min_capacity_pages=1 << 14))
        table = EmbeddingTable(
            TableSpec("t", rows=1024, dim=16, layout=Layout.ONE_PER_PAGE), seed=3
        )
        table.attach(system.device)
        rng = np.random.default_rng(1)
        for _ in range(3):
            bags = [rng.integers(0, 1024, size=6) for _ in range(4)]
            sync_sls(system.sim, system.ndp_session, table.make_sls_config(bags))
        engine = system.device.ndp
        assert engine.max_concurrent_requests == 1
        assert engine.overlap_seconds == 0.0
        assert engine.requests_overlapped == 0


class TestDeviceBackpressure:
    def test_queue_when_full_admits_instead_of_rejecting(self):
        system = System(
            cosmos_plus_config(
                min_capacity_pages=1 << 14,
                ndp=NdpEngineConfig(max_entries=1, queue_when_full=True),
            )
        )
        table = EmbeddingTable(
            TableSpec("t", rows=1024, dim=16, layout=Layout.ONE_PER_PAGE), seed=3
        )
        table.attach(system.device)
        rng = np.random.default_rng(2)
        results = {}
        all_bags = {}
        for i in range(4):
            bags = [rng.integers(0, 1024, size=6) for _ in range(2)]
            all_bags[i] = bags
            system.ndp_session.sls(
                table.make_sls_config(bags),
                lambda payload, _t, i=i: results.__setitem__(i, payload),
            )
        system.sim.run_until(lambda: len(results) == 4)
        engine = system.device.ndp
        assert engine.requests_rejected == 0
        assert engine.requests_queued >= 1
        # Single-slot buffer: never more than one entry live at a time.
        assert engine.max_concurrent_requests == 1
        for i, bags in all_bags.items():
            assert np.allclose(
                results[i].values, table.ref_sls(bags), rtol=1e-5, atol=1e-6
            )

    def test_waiting_configs_are_bounded(self):
        """Held commands occupy qpair slots, so the hold queue has a cap."""
        from repro.driver.ndp import NdpError

        system = System(
            cosmos_plus_config(
                min_capacity_pages=1 << 14,
                ndp=NdpEngineConfig(
                    max_entries=1, queue_when_full=True, max_queued_configs=1
                ),
            )
        )
        table = EmbeddingTable(
            TableSpec("t", rows=1024, dim=16, layout=Layout.ONE_PER_PAGE), seed=3
        )
        table.attach(system.device)
        rng = np.random.default_rng(2)
        done = []
        for _ in range(3):  # 1 admitted + 1 held + 1 over the cap
            bags = [rng.integers(0, 1024, size=400) for _ in range(2)]
            system.ndp_session.sls(
                table.make_sls_config(bags), lambda p, t: done.append(p)
            )
        with pytest.raises(NdpError):
            system.sim.run()
        assert system.device.ndp.requests_rejected >= 1
