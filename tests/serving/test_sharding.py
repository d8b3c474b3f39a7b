"""Scatter-gather sharding: policy plans, id remapping, equivalence, stats.

The contract under test (ISSUE 3 / docs/SERVING.md):

* ``ReplicatePolicy`` (and ``sharding=None``) reproduce the legacy
  serving results bit-identically on a fixed seed.
* ``TableShardPolicy`` / ``RowShardPolicy`` produce the same pooled
  embeddings as replicate mode — exactly on the order-deterministic DRAM
  backend for whole-table placement, and within float32
  accumulation-order tolerance on ssd/ndp and for row-split merges.
* Per-shard stats account for every lookup exactly once, and
  ``ServingStats.reset_stats()`` restores the whole object (per-shard maps
  included) to a fresh state, per PR 2's unified reset contract.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.models.runner import BackendKind
from repro.serving import (
    ModuloRowMapping,
    ReplicatePolicy,
    RowShardPolicy,
    ServingStats,
    TablePlacement,
    TableShardPolicy,
)
from repro.embedding.stage import scatter_bags
from repro.workload import OpenLoopGenerator, run_workload

from .conftest import build_server, toy_model

# Float32 partial sums merge in shard order, not bag order; this is the
# repo-wide "modulo accumulation order" tolerance (cf. ext_multi_ssd).
RTOL, ATOL = 1e-4, 1e-5


def build_sharded(policy, kind=BackendKind.NDP, num_workers=2, num_tables=4):
    model = toy_model(num_tables=num_tables)
    server = build_server(
        model, kind=kind, num_workers=num_workers, sharding=policy
    )
    return server, model


def serve_fixed_requests(server, model, n_requests=6, batch_size=2, seed=7):
    rng = np.random.default_rng(seed)
    requests = [
        server.submit(model.name, model.sample_batch(rng, batch_size))
        for _ in range(n_requests)
    ]
    server.run_until_settled()
    return requests


# ----------------------------------------------------------------------
# Row mappings: the id-remap invariant
# ----------------------------------------------------------------------
class TestRowMappings:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_modulo_partition_covers_rows_exactly_once(self, num_shards):
        mapping = ModuloRowMapping(1000, num_shards)
        seen = np.concatenate(
            [mapping.global_ids(s) for s in range(num_shards)]
        )
        assert sorted(seen.tolist()) == list(range(1000))

    def test_modulo_local_roundtrip(self):
        mapping = ModuloRowMapping(997, 3)  # prime rows: uneven shards
        ids = np.random.default_rng(0).integers(0, 997, size=256)
        shards = mapping.shard_of(ids)
        locals_ = mapping.local_ids(ids)
        for s in range(3):
            gids = mapping.global_ids(s)
            assert np.all(np.diff(gids) > 0)  # ascending: order preserved
            mask = shards == s
            assert np.array_equal(gids[locals_[mask]], ids[mask])

    def test_modulo_mapping_needs_a_row_per_shard(self):
        with pytest.raises(ValueError, match="rows >= num_shards"):
            ModuloRowMapping(2, 3)
        assert ModuloRowMapping(3, 3).global_ids(2).tolist() == [2]

    def test_scatter_bags_preserves_bag_structure(self):
        mapping = ModuloRowMapping(100, 3)
        bags = [np.array([0, 1, 2, 3]), np.array([], dtype=np.int64), np.array([99])]
        scattered = scatter_bags(bags, mapping)
        for shard, sub in scattered.items():
            assert len(sub) == len(bags)
            gids = mapping.global_ids(shard)
            for orig, local in zip(bags, sub):
                back = gids[local]
                expect = orig[mapping.shard_of(orig) == shard]
                assert np.array_equal(back, expect)
        # Every lookup lands in exactly one shard.
        total = sum(sum(b.size for b in sub) for sub in scattered.values())
        assert total == sum(b.size for b in bags)


# ----------------------------------------------------------------------
# Policy plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_replicate_is_one_whole_model_plan_per_device(self):
        model = toy_model(num_tables=3)
        plans = ReplicatePolicy().plans(model, 3)
        assert len(plans) == 3
        for shard, plan in enumerate(plans):
            plan.validate([f.name for f in model.features])
            assert plan.mode == "replicate" and not plan.mappings()
            assert [len(plan.tables_on(s)) for s in range(3)] == [
                3 if s == shard else 0 for s in range(3)
            ]
        # The placing policies are one plan spanning every device.
        assert len(TableShardPolicy().plans(model, 3)) == 1
        assert len(RowShardPolicy(threshold_rows=1024).plans(model, 3)) == 1

    def test_table_policy_places_each_table_once(self):
        model = toy_model(num_tables=5)
        plan = TableShardPolicy().plan(model, 3)
        assert plan.mode == "table"
        homes = [p.shards for p in plan.placements.values()]
        assert all(len(h) == 1 for h in homes)
        counts = [len(plan.tables_on(s)) for s in range(3)]
        assert sum(counts) == 5
        assert max(counts) - min(counts) <= 1  # equal tables: LPT balances

    def test_table_policy_balances_lookup_bandwidth(self):
        """A table weighs lookups per sample times row bytes; the
        heaviest goes first to the least-loaded shard."""
        weights = {"a": (8, 64), "b": (4, 64), "c": (3, 64), "d": (1, 192), "e": (2, 64)}
        features = [
            SimpleNamespace(name=name, lookups=lookups, spec=SimpleNamespace(row_bytes=row_bytes))
            for name, (lookups, row_bytes) in weights.items()
        ]
        plan = TableShardPolicy().plan(SimpleNamespace(features=features), 2)
        homes = {name: p.shards[0] for name, p in plan.placements.items()}
        # 512 -> shard 0; 256, 192, 192 -> shard 1 (each while lighter); 128 -> shard 0.
        assert homes == {"a": 0, "b": 1, "c": 1, "d": 1, "e": 0}

    @pytest.mark.parametrize(
        "shards, mapping, match",
        [
            ((), None, "at least one shard"),
            ((0, 1), None, "exactly one shard"),
            ((0, 1), ModuloRowMapping(100, 3), "mapping shard count"),
        ],
        ids=["no-shard", "whole-on-two", "mapping-count"],
    )
    def test_placement_shape_is_checked(self, shards, mapping, match):
        with pytest.raises(ValueError, match=match):
            TablePlacement("t", shards, mapping)

    def test_row_policy_splits_large_and_homes_small(self):
        model = toy_model(num_tables=3)  # 4096-row tables
        policy = RowShardPolicy(threshold_rows=4096)
        plan = policy.plan(model, 2)
        assert all(p.mapping is not None for p in plan.placements.values())
        small = RowShardPolicy(threshold_rows=1 << 20).plan(model, 2)
        assert all(p.mapping is None for p in small.placements.values())

    def test_more_shards_than_tables_leaves_idle_shards(self):
        model = toy_model(num_tables=2)
        plan = TableShardPolicy().plan(model, 4)
        owned = [s for s in range(4) if plan.tables_on(s)]
        assert len(owned) == 2  # the other devices get no pieces
        server, m = build_sharded(TableShardPolicy(), num_workers=4, num_tables=2)
        requests = serve_fixed_requests(server, m, n_requests=3)
        assert all(r.done for r in requests)


# ----------------------------------------------------------------------
# End-to-end equivalence across policies
# ----------------------------------------------------------------------
class TestEquivalence:
    def _values(self, policy, kind, seed=7):
        server, model = build_sharded(policy, kind=kind)
        requests = serve_fixed_requests(server, model, seed=seed)
        return [r.values for r in requests], server

    def test_replicate_policy_bit_identical_to_default(self):
        """Explicit ReplicatePolicy must take the legacy path exactly."""
        model_a = toy_model()
        server_a = build_server(model_a, num_workers=2)
        stats_a = run_workload(
            server_a,
            OpenLoopGenerator(model_a.name, rate=1500.0, n_requests=20, batch_size=2),
            seed=5,
        )
        model_b = toy_model()
        server_b = build_server(
            model_b, num_workers=2, sharding=ReplicatePolicy()
        )
        stats_b = run_workload(
            server_b,
            OpenLoopGenerator(model_b.name, rate=1500.0, n_requests=20, batch_size=2),
            seed=5,
        )
        assert stats_a.latencies == stats_b.latencies  # bitwise simulated times
        assert stats_a.summary() == stats_b.summary()

    @pytest.mark.parametrize(
        "policy",
        [TableShardPolicy(), RowShardPolicy(threshold_rows=1024)],
        ids=["table", "row"],
    )
    @pytest.mark.parametrize(
        "kind", [BackendKind.NDP, BackendKind.SSD], ids=["ndp", "ssd"]
    )
    def test_sharded_matches_replicate_pooled_outputs(self, policy, kind):
        replicate, _ = self._values(None, kind)
        sharded, _ = self._values(policy, kind)
        assert len(replicate) == len(sharded)
        for a, b in zip(replicate, sharded):
            assert set(a) == set(b)
            for name in a:
                np.testing.assert_allclose(
                    a[name], b[name], rtol=RTOL, atol=ATOL
                )

    def test_table_shard_exact_on_dram(self):
        """DRAM gathers are order-deterministic: whole-table placement
        must reproduce replicate-mode pooled values bit-for-bit."""
        replicate, _ = self._values(None, BackendKind.DRAM)
        sharded, _ = self._values(TableShardPolicy(), BackendKind.DRAM)
        for a, b in zip(replicate, sharded):
            for name in a:
                assert np.array_equal(a[name], b[name])

    def test_sharded_matches_in_dram_reference(self):
        """Randomized: scatter-gather sums equal the model's reference SLS."""
        server, model = build_sharded(
            RowShardPolicy(threshold_rows=1024), kind=BackendKind.NDP
        )
        rng = np.random.default_rng(13)
        batches = [model.sample_batch(rng, 3) for _ in range(4)]
        requests = [server.submit(model.name, b) for b in batches]
        server.run_until_settled()
        for request, batch in zip(requests, batches):
            reference = model.reference_emb(batch)
            for name, expect in reference.items():
                np.testing.assert_allclose(
                    request.values[name], expect, rtol=RTOL, atol=ATOL
                )

    def test_offered_load_through_sharded_server(self):
        server, model = build_sharded(RowShardPolicy(threshold_rows=1024))
        stats = run_workload(
            server,
            OpenLoopGenerator(model.name, rate=1500.0, n_requests=30, batch_size=2),
            seed=11,
        )
        assert stats.completed + stats.rejected == 30
        assert stats.throughput_rps() > 0

# ----------------------------------------------------------------------
# Per-shard stats accounting + the reset audit
# ----------------------------------------------------------------------
class TestShardStats:
    def test_per_shard_lookups_conserve_total(self):
        server, model = build_sharded(RowShardPolicy(threshold_rows=1024))
        n_requests, batch_size = 6, 2
        serve_fixed_requests(server, model, n_requests, batch_size)
        summary = server.stats.shard_summary()
        per_shard = summary[model.name]
        assert set(per_shard) == {0, 1}  # both devices saw work
        total = sum(row["lookups"] for row in per_shard.values())
        expected = n_requests * batch_size * model.lookups_per_sample()
        assert total == expected
        assert all(row["batches"] >= 1 for row in per_shard.values())
        assert all(row["busy_s"] > 0 for row in per_shard.values())

    def test_replicate_mode_records_per_device_work(self):
        model = toy_model()
        server = build_server(model, num_workers=2)
        serve_fixed_requests(server, model, n_requests=6)
        per_shard = server.stats.shard_summary()[model.name]
        # Round-robin across 2 replicas: both devices credited, and
        # every lookup exactly once.
        assert set(per_shard) == {0, 1}
        total = sum(row["lookups"] for row in per_shard.values())
        assert total == 6 * 2 * model.lookups_per_sample()

    def test_reset_restores_fresh_state(self):
        """The PR 2 reset contract, audited attribute-by-attribute: after
        reset_stats(), every recorded counter — per-model
        and per-shard maps included — matches a freshly built object."""
        server, model = build_sharded(TableShardPolicy())
        serve_fixed_requests(server, model, n_requests=4)
        stats = server.stats
        assert stats.shard_summary()  # something was recorded
        stats.reset_stats()
        fresh = ServingStats(stats.sim)
        def state(value):
            # Accumulator uses __slots__ and has no __eq__; compare its
            # full streaming state field-by-field.
            slots = getattr(type(value), "__slots__", None)
            if slots:
                return {slot: getattr(value, slot) for slot in slots}
            return value

        recorded = {k: v for k, v in vars(stats).items() if k != "sim"}
        expected = {k: v for k, v in vars(fresh).items() if k != "sim"}
        assert set(recorded) == set(expected)
        for key, value in expected.items():
            assert state(recorded[key]) == state(value), (
                f"reset_stats() left {key!r} dirty"
            )
        assert stats.shard_summary() == {}

    def test_post_reset_window_counts_fresh_work(self):
        server, model = build_sharded(TableShardPolicy())
        serve_fixed_requests(server, model, n_requests=3)
        server.stats.reset_stats()
        serve_fixed_requests(server, model, n_requests=2, seed=9)
        assert server.stats.completed == 2
        per_shard = server.stats.shard_summary()[model.name]
        total = sum(row["lookups"] for row in per_shard.values())
        assert total == 2 * 2 * model.lookups_per_sample()


# ----------------------------------------------------------------------
# Registration-time validation
# ----------------------------------------------------------------------
class TestRegistration:
    def test_partition_entries_rejected_for_row_sharded_tables(self):
        from repro.models.runner import RunnerConfig

        model = toy_model()
        server = build_server(toy_model(name="other", seed=9))
        with pytest.raises(ValueError, match="row-sharded"):
            server.register_model(
                model,
                BackendKind.NDP,
                runner_config=RunnerConfig(
                    kind=BackendKind.NDP, partition_entries=64
                ),
                num_workers=2,
                sharding=RowShardPolicy(threshold_rows=1024),
            )
        # The failed attempt must not hold projected NDP capacity.
        server.register_model(model, BackendKind.NDP, num_workers=2)

    def test_sharded_ndp_capacity_projection_counts_pieces(self):
        """A device hosting only its shard's table pieces projects fewer
        concurrent entries than a full replica would."""
        from repro.core.engine import NdpEngineConfig
        from repro.host.system import build_system
        from repro.models.runner import required_capacity_pages
        from repro.serving import InferenceServer

        model = toy_model(num_tables=4)  # replicate projects 4*2=8 entries
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(max_entries=4, queue_when_full=False),
        )
        server = InferenceServer(system)
        with pytest.raises(ValueError, match="queue_when_full"):
            server.register_model(model, BackendKind.NDP, num_workers=2)
        # Table-sharded: 2 tables per device -> 2*2=4 entries, fits.
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(max_entries=4, queue_when_full=False),
        )
        InferenceServer(system).register_model(
            model, BackendKind.NDP, num_workers=2, sharding=TableShardPolicy()
        )
