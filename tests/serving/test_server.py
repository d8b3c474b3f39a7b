"""InferenceServer lifecycle: admission control, stats, determinism."""

import numpy as np
import pytest

from repro.host.system import SystemConfig
from repro.models.base import Batch, SparseFeature
from repro.models.runner import BackendKind
from repro.serving import RequestState, ServingConfig
from repro.workload import OpenLoopGenerator, run_workload

from .conftest import build_server, toy_model


class TestLifecycle:
    def test_submit_unregistered_model_raises(self):
        server = build_server(toy_model())
        with pytest.raises(KeyError):
            server.submit(
                "nope",
                Batch(dense=np.zeros((1, 4), np.float32), bags={}, batch_size=1),
            )

    def test_submit_rejects_mismatched_batch(self):
        """A batch built for another model must fail at submit, not crash
        dispatch later and leak the admission slot."""
        model_a = toy_model(name="a", seed=1)
        model_b = toy_model(name="b", seed=2)
        server = build_server([model_a, model_b])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="do not match model"):
            server.submit("a", model_b.sample_batch(rng, 1))
        assert server.queue.inflight == 0  # nothing leaked
        request = server.submit("a", model_a.sample_batch(rng, 1))
        server.run_until_settled()
        assert request.state is RequestState.COMPLETE

    def test_submit_rejects_a_wrong_bag_count(self):
        """One bag too few used to be admitted and dispatched; with
        ``compute_outputs`` the model's ``forward`` then raised out of the
        event loop and the admission slot was never released."""
        model = toy_model()
        sequence = toy_model(name="seq")
        pooled = sequence.features[1]
        sequence.features[1] = SparseFeature(pooled.spec, pooled.lookups, sequence=True)
        server = build_server(
            [model, sequence], BackendKind.DRAM, ServingConfig(compute_outputs=True)
        )
        rng = np.random.default_rng(0)
        table = model.features[0].name

        short = model.sample_batch(rng, 2)
        short.bags[table] = short.bags[table][:1]
        with pytest.raises(ValueError, match=f"has 1 bags for table {table!r}.*not 2"):
            server.submit(model.name, short)
        long = model.sample_batch(rng, 2)
        long.bags[table] = list(long.bags[table]) + [np.array([0])]
        with pytest.raises(ValueError, match="has 3 bags"):
            server.submit(model.name, long)
        # A sequence feature owes one bag per lookup, not one per sample.
        pooled_shape = sequence.sample_batch(rng, 2)
        pooled_shape.bags[pooled.name] = model.sample_batch(rng, 2).bags[table]
        with pytest.raises(ValueError, match=f"has 2 bags for table {pooled.name!r}.*not 16"):
            server.submit(sequence.name, pooled_shape)
        assert server.queue.inflight == 0  # nothing admitted, nothing leaked

        served = [
            server.submit(model.name, model.sample_batch(rng, 2)),
            # A hand-built batch may still hold plain lists of arrays.
            server.submit(model.name, Batch(
                dense=np.zeros((1, 16), np.float32),
                bags={f.name: [np.array([1, 2, 3])] for f in model.features},
                batch_size=1,
            )),
        ]
        server.run_until_settled()
        assert all(r.state is RequestState.COMPLETE for r in served)
        assert server.queue.inflight == 0

    def test_request_timestamps_ordered(self):
        model = toy_model()
        server = build_server(model)
        rng = np.random.default_rng(0)
        request = server.submit(model.name, model.sample_batch(rng, 2))
        server.run_until_settled()
        assert request.state is RequestState.COMPLETE
        assert (
            request.t_arrival
            <= request.t_dispatch
            <= request.t_emb_done
            <= request.t_done
        )
        assert request.latency > 0
        assert request.queue_delay >= 0

    def test_on_done_callback_fires(self):
        model = toy_model()
        server = build_server(model)
        rng = np.random.default_rng(0)
        seen = []
        server.submit(model.name, model.sample_batch(rng, 1), on_done=seen.append)
        server.run_until_settled()
        assert len(seen) == 1 and seen[0].state is RequestState.COMPLETE

    def test_compute_outputs(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(compute_outputs=True)
        )
        rng = np.random.default_rng(0)
        request = server.submit(model.name, model.sample_batch(rng, 3))
        server.run_until_settled()
        assert request.output is not None and request.output.shape == (3,)

    def test_compute_outputs_without_dense_stage(self):
        model = toy_model()
        server = build_server(
            model,
            serving_config=ServingConfig(compute_outputs=True, dense_stage=False),
        )
        rng = np.random.default_rng(0)
        request = server.submit(model.name, model.sample_batch(rng, 2))
        server.run_until_settled()
        assert request.output is not None and request.output.shape == (2,)


class TestAdmissionControl:
    def test_overload_rejects_beyond_max_inflight(self):
        model = toy_model()
        server = build_server(
            model,
            serving_config=ServingConfig(max_inflight_requests=4),
        )
        assert server.queue.max_inflight == 4
        rng = np.random.default_rng(0)
        requests = [
            server.submit(model.name, model.sample_batch(rng, 1)) for _ in range(10)
        ]
        rejected = [r for r in requests if r.state is RequestState.REJECTED]
        assert len(rejected) == 6
        server.run_until_settled()
        assert server.stats.completed == 4
        assert server.stats.rejected == 6

    def test_admission_limit_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="max_inflight_requests"):
            ServingConfig(max_inflight_requests=0)

    def test_register_rejects_overflow_prone_ndp_config(self):
        """Without queue_when_full, a registration that could overflow the
        engine's entry buffer must fail up front, not crash mid-run."""
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import build_system
        from repro.models.runner import required_capacity_pages
        from repro.serving import InferenceServer

        model = toy_model()  # 2 tables x 2 inflight batches = 4 entries
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(max_entries=2, queue_when_full=False),
        )
        server = InferenceServer(system)
        with pytest.raises(ValueError, match="queue_when_full"):
            server.register_model(model, BackendKind.NDP)
        # With device-side backpressure enabled the same shape registers.
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(max_entries=2, queue_when_full=True),
        )
        InferenceServer(system).register_model(model, BackendKind.NDP)

    def test_register_rejects_beyond_backpressure_capacity(self):
        """queue_when_full helps only up to max_queued_configs; past that
        the engine rejects again, so registration must still refuse."""
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import build_system
        from repro.models.runner import required_capacity_pages
        from repro.serving import InferenceServer

        model = toy_model()  # projects 4 entries > 1 + 1 capacity
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(
                max_entries=1, queue_when_full=True, max_queued_configs=1
            ),
        )
        with pytest.raises(ValueError, match="max_queued_configs"):
            InferenceServer(system).register_model(model, BackendKind.NDP)

    def test_register_rejects_beyond_rid_window(self):
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import System
        from repro.models.runner import required_capacity_pages
        from repro.serving import InferenceServer
        from repro.ssd.presets import cosmos_plus_config

        model = toy_model()  # projects 4 > 3 usable request ids
        system = System(
            cosmos_plus_config(
                min_capacity_pages=required_capacity_pages(model),
                ndp=NdpEngineConfig(queue_when_full=True),
                slba_alignment_lbas=4,
            )
        )
        with pytest.raises(ValueError, match="request ids"):
            InferenceServer(system).register_model(model, BackendKind.NDP)

    def test_register_rejects_beyond_driver_queue_depth(self):
        from repro.driver.unvme import DriverConfig

        model = toy_model()  # projects 4 ops -> 8 commands > depth 4
        with pytest.raises(ValueError, match="queue depth"):
            build_server(
                model,
                system_config=SystemConfig(
                    driver=DriverConfig(num_qpairs=1, queue_depth=4)
                ),
            )
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import build_system
        from repro.models.runner import RunnerConfig, required_capacity_pages
        from repro.serving import InferenceServer

        model = toy_model()  # projects exactly the 4-entry capacity below
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(max_entries=4, queue_when_full=False),
        )
        server = InferenceServer(system)
        with pytest.raises(ValueError, match="no profile"):
            server.register_model(
                model,
                BackendKind.NDP,
                runner_config=RunnerConfig(
                    kind=BackendKind.NDP, partition_entries=64
                ),
            )
        # The failed attempt must not consume projected capacity.
        server.register_model(model, BackendKind.NDP)

    def test_register_rejects_model_attached_to_other_system(self):
        """A model bound to another system's device must fail loudly at
        registration, not KeyError deep inside the simulator."""
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import build_system
        from repro.models.runner import required_capacity_pages
        from repro.serving import InferenceServer

        model = toy_model()
        build_server(model)  # attaches tables to the first system
        other = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(queue_when_full=True),
        )
        with pytest.raises(ValueError, match="different device"):
            InferenceServer(other).register_model(model, BackendKind.NDP)

    def test_slots_recycle_after_completion(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_inflight_requests=2)
        )
        rng = np.random.default_rng(0)
        first = [
            server.submit(model.name, model.sample_batch(rng, 1)) for _ in range(2)
        ]
        server.run_until_settled()
        again = server.submit(model.name, model.sample_batch(rng, 1))
        assert again.state is not RequestState.REJECTED
        server.run_until_settled()
        assert server.stats.completed == 3


class TestOfferedLoadAndDeterminism:
    def _run(self, seed=11, kind=BackendKind.NDP):
        model = toy_model()
        server = build_server(model, kind=kind)
        stats = run_workload(
            server,
            OpenLoopGenerator(model.name, rate=1500.0, n_requests=30, batch_size=2),
            seed=seed,
        )
        return stats

    def test_offered_load_completes_all(self):
        stats = self._run()
        assert stats.completed + stats.rejected == 30
        assert stats.throughput_rps() > 0
        summary = stats.summary()
        assert 0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_same_seed_same_latency_stats(self):
        a = self._run(seed=23)
        b = self._run(seed=23)
        assert a.latencies == b.latencies  # bitwise-identical simulated times
        assert a.summary() == b.summary()

    def test_different_seed_different_arrivals(self):
        a = self._run(seed=23)
        b = self._run(seed=24)
        assert a.latencies != b.latencies

    @pytest.mark.parametrize("kind", [BackendKind.DRAM, BackendKind.SSD])
    def test_other_backends_serve_too(self, kind):
        stats = self._run(kind=kind)
        assert stats.completed + stats.rejected == 30


def _packed_model(name: str = "pk"):
    from repro.embedding.spec import Layout
    from repro.models.dlrm import DlrmConfig, DlrmModel

    return DlrmModel(
        DlrmConfig(
            name=name, dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
            num_tables=2, table_rows=4096, dim=8, lookups=8, layout=Layout.PACKED,
        ),
        seed=3,
    )


class TestPrewarmAtRegistration:
    """``RunnerConfig(prewarm_page_cache=True)`` is honoured by
    registration itself, on every device a table piece is placed on."""

    def _serve(self, kind, num_workers):
        from repro.host.system import build_system
        from repro.models.runner import RunnerConfig, required_capacity_pages
        from repro.serving import InferenceServer

        model = _packed_model()
        system = build_system(min_capacity_pages=required_capacity_pages(model))
        server = InferenceServer(system)
        server.register_model(
            model,
            kind,
            runner_config=RunnerConfig(kind, prewarm_page_cache=True),
            num_workers=num_workers,
        )
        warmed = [d.ftl.page_cache.size for d in system.devices]
        rng = np.random.default_rng(5)
        requests = [
            server.submit(model.name, model.sample_batch(rng, 4))
            for _ in range(num_workers)
        ]
        server.run_until_settled()
        assert all(r.state is RequestState.COMPLETE for r in requests)
        return system, warmed

    @pytest.mark.parametrize("kind", [BackendKind.SSD, BackendKind.NDP])
    def test_first_request_reads_no_flash_page(self, kind):
        system, warmed = self._serve(kind, num_workers=1)
        assert system.device.flash.total_reads() == 0
        assert warmed == [16]  # two PACKED tables of 8 pages

    def test_a_replicated_registration_warms_every_device(self):
        system, warmed = self._serve(BackendKind.SSD, num_workers=2)
        assert [d.flash.total_reads() for d in system.devices] == [0, 0]
        assert warmed == [16, 16]
