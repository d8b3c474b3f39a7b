"""A tenant that carries its backend config and its recorded requests:
the host LRU and the static partition reach ``register_model`` from a
spec, and recorded batches are submitted in order instead of drawn."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterSpec, UserSpec, setup_cluster
from repro.embedding.spec import Layout
from repro.models import BackendKind, RunnerConfig, build_model
from repro.models.dlrm import DlrmModel
from repro.workload import ArrivalTrace, ScenarioSpec, TenantSpec, run, setup

from ..serving.conftest import toy_model

SSD_LRU = RunnerConfig(kind=BackendKind.SSD, host_cache_entries=256)


def batches(n, batch_size=2, seed=3):
    rng = np.random.default_rng(seed)
    return tuple(toy_model().sample_batch(rng, batch_size) for _ in range(n))


class TestValidation:
    def test_the_backend_kind_is_the_scenarios(self):
        tenant = TenantSpec("toy", rate=100.0, n_requests=2, backend=SSD_LRU)
        with pytest.raises(ValueError, match="'toy' has a ssd backend in a ndp scenario"):
            ScenarioSpec(name="mixed", tenants=(tenant,), backend="ndp")
        assert ScenarioSpec(name="ssd", tenants=(tenant,), backend="ssd").tenants == (tenant,)

    def test_one_recorded_request_per_arrival(self):
        with pytest.raises(ValueError, match="records 3 requests for 2 arrivals"):
            TenantSpec("toy", rate=100.0, n_requests=2, requests=batches(3))
        with pytest.raises(ValueError, match="records 0 requests for 2 arrivals"):
            TenantSpec("toy", rate=100.0, n_requests=2, requests=())
        tenant = TenantSpec(
            "toy", arrival="closed", num_clients=2, requests_per_client=2, requests=batches(4)
        )
        assert tenant.total_requests == len(tenant.requests) == 4

    @pytest.mark.parametrize(
        "kind, knob, owner",
        [
            (BackendKind.NDP, "host_cache_entries", "ssd"),
            (BackendKind.DRAM, "host_cache_entries", "ssd"),
            (BackendKind.SSD, "partition_entries", "ndp"),
            (BackendKind.DRAM, "partition_entries", "ndp"),
        ],
    )
    def test_a_cache_knob_of_another_backend_is_refused(self, kind, knob, owner):
        """``build_backends`` reads each cache knob for one backend only;
        set on any other it used to be dropped without a word."""
        with pytest.raises(ValueError, match=rf"RunnerConfig\.{knob} is for the {owner} backend, not {kind.value}"):
            RunnerConfig(kind=kind, **{knob: 64})
        assert getattr(RunnerConfig(kind=BackendKind(owner), **{knob: 64}), knob) == 64

    @pytest.mark.parametrize("kind", list(BackendKind), ids=lambda k: k.value)
    def test_page_cache_prewarm_is_taken_on_every_backend(self, kind):
        """``prewarm_page_cache`` is set for every kind by the end-to-end
        example; it fills the page cache with packed tables where they
        live on flash and is a no-op on DRAM."""
        backend = RunnerConfig(kind=kind, prewarm_page_cache=True)
        spec = ScenarioSpec(
            name=f"prewarm-{kind.value}",
            tenants=(TenantSpec("packed", rate=2000.0, n_requests=4, backend=backend),),
            backend=kind.value,
        )
        packed = DlrmModel(
            dataclasses.replace(toy_model().config, name="packed", layout=Layout.PACKED), seed=1
        )
        built = setup(spec, [packed])
        cache = built.front.system.device.ftl.page_cache
        assert (cache.size > 0) == (kind is not BackendKind.DRAM)
        assert run(built).summary["completed"] == 4

    def test_recorded_requests_are_not_shaped(self):
        with pytest.raises(ValueError, match="nothing to shape"):
            TenantSpec("toy", rate=100.0, n_requests=2, requests=batches(2), locality_k=1.0)

    def test_user_keyed_fleet_refuses_recorded_tenants(self):
        scenario = ScenarioSpec(
            name="recorded",
            tenants=(TenantSpec("toy", rate=100.0, n_requests=2, requests=batches(2)),),
        )
        with pytest.raises(ValueError, match="user-keyed"):
            ClusterSpec(name="users", scenario=scenario, users=UserSpec(n_users=8))


class TestRecordedRequests:
    @pytest.mark.parametrize(
        "arrivals",
        [
            dict(rate=2000.0, n_requests=6),
            dict(arrival="replay", trace=ArrivalTrace.uniform("toy", 1000.0, 6)),
            dict(arrival="closed", num_clients=2, requests_per_client=3),
        ],
        ids=["open", "replay", "closed"],
    )
    def test_submitted_in_order_and_kept(self, arrivals):
        recorded = batches(6)
        spec = ScenarioSpec(
            name="recorded",
            tenants=(TenantSpec("toy", requests=recorded, **arrivals),),
            compute_outputs=True,
        )
        built = setup(spec, [toy_model()])
        result = run(built)
        submitted = built.generators[0].submitted
        assert tuple(r.batch for r in submitted) == recorded
        assert result.summary["completed"] == 6
        assert all(r.output is not None for r in submitted)

    def test_drawn_traffic_keeps_nothing(self):
        spec = ScenarioSpec(name="drawn", tenants=(TenantSpec("toy", rate=2000.0, n_requests=4),))
        built = setup(spec, [toy_model()])
        run(built)
        assert built.generators[0].submitted is None


class TestTenantBackend:
    def test_a_fleet_tenant_carries_its_backend_to_every_host(self):
        scenario = ScenarioSpec(
            name="fleet-lru",
            tenants=(TenantSpec("toy", rate=2000.0, n_requests=8, backend=SSD_LRU),),
            backend="ssd",
        )
        built = setup_cluster(ClusterSpec(name="fleet", scenario=scenario, n_hosts=2), [toy_model()])
        run(built)
        for server in built.servers:
            caches = [b.host_cache for b in server.backends()]
            assert caches and all(c is not None and c.capacity == 256 for c in caches)

    @pytest.mark.parametrize("name", ["rm1", "ncf"])
    @pytest.mark.parametrize(
        "backend",
        [RunnerConfig(kind=BackendKind.SSD, host_cache_entries=2048), RunnerConfig(kind=BackendKind.NDP)],
        ids=["ssd_host_lru", "ndp"],
    )
    def test_zoo_models_open_loop_through_a_spec(self, name, backend):
        """The figures' models on the serving path a spec drives: drawn
        open-loop traffic, the SSD baseline with its host LRU."""
        spec = ScenarioSpec(
            name=f"{name}-{backend.kind.value}",
            tenants=(TenantSpec(name, rate=2000.0, n_requests=8, batch_size=2, backend=backend),),
            backend=backend.kind.value,
        )
        built = setup(spec, [build_model(name)])
        result = run(built)
        assert result.summary["completed"] == 8
        caches = [getattr(b, "host_cache", None) for b in built.front.backends()]
        if backend.host_cache_entries:
            assert all(c is not None and c.hits + c.misses > 0 for c in caches)
        else:
            assert caches == [None] * len(caches)
