"""The one wiring path from spec to settled run.

``setup`` and ``setup_cluster`` compose ``prepare_models`` ->
``host_system`` -> register -> generators -> fault arming, and one
``run`` drives either.  The two regressions here are what the second,
hand-threaded copy of that sequence got wrong: a fleet ignored
``layout="frequency"``, and the standalone runner's private backend
walker crashed on sharded stages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, replica_model, run_cluster_scenario, setup_cluster
from repro.embedding.placement import LayoutMigrator
from repro.ftl.layout import FrequencyLayout
from repro.serving.sharding import RowShardPolicy, TableShardPolicy
from repro.workload import (
    RunResult,
    ScenarioSpec,
    TenantSpec,
    UpdateStreamSpec,
    prepare_models,
    run,
    run_scenario,
    setup,
)

from ..serving.conftest import toy_model


def zipf_scenario(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="wiring",
        tenants=(
            TenantSpec(
                model="toy",
                arrival="open",
                rate=2000.0,
                n_requests=24,
                batch_size=2,
                zipf_alpha=1.1,
            ),
        ),
        backend="ndp",
        seed=3,
        **kwargs,
    )


def attached_tables(server):
    return [b.table for b in server.backends() if b.table.attached]


class TestFleetHonoursLayout:
    def test_every_host_packs_by_frequency_and_migrates(self):
        spec = ClusterSpec(
            name="fleet-layout",
            scenario=zipf_scenario(layout="frequency", layout_migration_budget=8),
            n_hosts=2,
        )
        result = run_cluster_scenario(spec, [toy_model()])
        assert result.summary["completed"] == 24
        for node in result.front.nodes:
            # Walk the stage directly: the assertion must not depend on
            # the iterator this PR introduces.
            backends = node.server.workers["toy"][0].stage.by_shard[0]
            assert len(backends) == 2
            for backend in backends.values():
                table = backend.table
                assert isinstance(table.layout, FrequencyLayout), node.name
                assert table.heat_tracker is not None
            for device in node.server.system.devices:
                assert isinstance(device.ftl.layout_migrator, LayoutMigrator)
                assert len(device.ftl.layout_migrator.entries) == 2

    def test_one_host_fleet_equals_standalone_under_frequency_layout(self):
        scenario = zipf_scenario(layout="frequency", layout_migration_budget=8)
        fleet = run_cluster_scenario(
            ClusterSpec(name="oracle", scenario=scenario, n_hosts=1), [toy_model()]
        )
        alone = run_scenario(scenario, [toy_model()])
        assert fleet.per_host["host0"] == alone.summary
        assert fleet.stats.latencies() == alone.stats.latencies

    def test_modulo_fleet_keeps_identity_layout(self):
        spec = ClusterSpec(name="fleet-modulo", scenario=zipf_scenario(), n_hosts=2)
        result = run_cluster_scenario(spec, [toy_model()])
        for node in result.front.nodes:
            assert all(t.layout is None for t in attached_tables(node.server))
            assert node.server.system.device.ftl.layout_migrator is None


class TestShardedLayoutMigration:
    @pytest.mark.parametrize(
        "sharding",
        [TableShardPolicy(), RowShardPolicy(), RowShardPolicy(threshold_rows=1024)],
        ids=["table", "row-default", "row-split"],
    )
    def test_each_shard_table_registers_once_with_its_device(self, sharding):
        spec = zipf_scenario(layout="frequency", layout_migration_budget=8)
        result = run_scenario(spec, [toy_model()], num_workers=2, sharding=sharding)
        assert result.summary["completed"] == 24
        tables = attached_tables(result.front)
        assert tables and len({id(t) for t in tables}) == len(tables)
        registered = []
        for device in result.front.system.devices:
            migrator = device.ftl.layout_migrator
            for entry in getattr(migrator, "entries", ()):
                assert entry.table.device is device
                registered.append(entry.table)
        assert sorted(map(id, registered)) == sorted(map(id, tables))
        assert all(isinstance(t.layout, FrequencyLayout) for t in tables)


class TestBackendsIterator:
    def test_replicated_workers_yield_every_replica(self):
        result = run_scenario(zipf_scenario(), [toy_model()], num_workers=2)
        tables = attached_tables(result.front)
        assert len(tables) == 4  # 2 tables x 2 devices
        assert {id(t.device) for t in tables} == {
            id(d) for d in result.front.system.devices
        }

    def test_dram_backends_are_yielded_unattached(self):
        spec = ScenarioSpec(
            name="dram", tenants=zipf_scenario().tenants, backend="dram", seed=3
        )
        result = run_scenario(spec, [toy_model()])
        assert len(list(result.front.backends())) == 2
        assert attached_tables(result.front) == []


class TestReplica:
    def test_shares_data_object_and_heat_but_not_placement(self):
        table = next(iter(toy_model().tables.values()))
        heat = np.arange(table.spec.rows, dtype=np.float64)
        table.set_heat(heat)
        clone = table.replica()
        assert clone is not table and clone.spec is table.spec
        assert clone.data is table.data
        assert np.array_equal(clone.heat, heat)
        assert not clone.attached and clone.layout is None

    def test_replica_without_heat_has_none(self):
        table = next(iter(toy_model().tables.values()))
        assert table.replica().heat is None

    def test_replica_model_carries_heat_to_every_table(self):
        model = toy_model()
        prepare_models(zipf_scenario(layout="frequency"), [model])
        clone = replica_model(model)
        for name, table in model.tables.items():
            assert table.heat is not None
            assert np.array_equal(clone.tables[name].heat, table.heat)
            assert clone.tables[name].data is table.data


def set_up(front: str, scenario: ScenarioSpec):
    """``scenario`` set up standalone or as a two-host fleet."""
    if front == "server":
        return setup(scenario, [toy_model()])
    fleet = ClusterSpec(name="fleet", scenario=scenario, n_hosts=2)
    return setup_cluster(fleet, [toy_model()])


class TestSetupThenRun:
    @pytest.mark.parametrize("front", ["server", "fleet"])
    def test_setup_starts_nothing(self, front):
        built = set_up(front, zipf_scenario())
        assert built.front.sim.now == 0
        assert built.front.stats.submitted == 0
        assert all(server.stats.submitted == 0 for server in built.servers)

    @pytest.mark.parametrize("front", ["server", "fleet"])
    def test_per_host_is_each_hosts_own_summary(self, front):
        built = set_up(front, zipf_scenario())
        result = run(built)
        assert isinstance(result, RunResult) and result.front is built.front
        assert result.summary["completed"] == 24
        assert result.per_host == {s.name: s.stats.summary() for s in built.servers}
        assert list(result.per_host) == [f"host{i}" for i in range(len(built.servers))]

    def test_updates_and_layout_run_after_setup(self):
        """The update stream and layout migration are planted by ``run``,
        so a caller acting between the halves sees neither yet."""
        spec = zipf_scenario(
            layout="frequency",
            layout_migration_budget=8,
            updates=UpdateStreamSpec(rate=500.0, n_updates=4, rows_per_update=4),
        )
        expected = run_scenario(spec, [toy_model()])
        built = setup(spec, [toy_model()])
        assert built.front.system.device.ftl.layout_migrator is None
        assert built.front.stats.update_pages_written == 0
        result = run(built)
        assert result.summary == expected.summary
        assert result.updates == expected.updates
        assert result.updates["update_pages_written"] > 0
        assert built.front.system.device.ftl.layout_migrator is not None

    def test_prepare_models_rejects_unknown_tenant(self):
        with pytest.raises(KeyError, match="toy"):
            prepare_models(zipf_scenario(), [toy_model(name="other")])
