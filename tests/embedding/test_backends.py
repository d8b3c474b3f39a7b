"""All three SLS backends: correctness vs the DRAM reference, caching
semantics, latency ordering.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bags import Bags
from repro.embedding.backends import DramSlsBackend, NdpSlsBackend, SsdSlsBackend
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.quant import EmbDtype, QuantSpec
from repro.sim.stats import Breakdown

from ..conftest import make_table, random_bags


@pytest.mark.parametrize("layout", [Layout.ONE_PER_PAGE, Layout.PACKED])
@pytest.mark.parametrize(
    "quant",
    [QuantSpec(), QuantSpec(dtype=EmbDtype.FP16), QuantSpec(dtype=EmbDtype.INT8)],
    ids=["fp32", "fp16", "int8"],
)
def test_all_backends_match_reference(system, layout, quant):
    table = make_table(system, rows=1024, dim=16, layout=layout, quant=quant)
    rng = np.random.default_rng(9)
    bags = random_bags(rng, 1024, n_bags=10, bag_size=7)
    ref = table.ref_sls(bags)
    for backend in (
        DramSlsBackend(system, table),
        SsdSlsBackend(system, table),
        NdpSlsBackend(system, table),
    ):
        result = backend.run_sync(bags)
        assert np.allclose(result.values, ref, rtol=1e-4, atol=1e-5), type(backend)


def test_latency_ordering_dram_ndp_ssd(system):
    """DRAM << NDP < baseline SSD for random one-per-page lookups."""
    table = make_table(system, rows=4096, dim=32)
    rng = np.random.default_rng(1)
    bags = random_bags(rng, 4096, n_bags=16, bag_size=20)
    dram = DramSlsBackend(system, table).run_sync(bags)
    ndp = NdpSlsBackend(system, table).run_sync(bags)
    # Fresh table/cache state for the baseline comparison isn't needed:
    # the page cache can only help it, and it still loses.
    base = SsdSlsBackend(system, table).run_sync(bags)
    assert dram.latency < ndp.latency < base.latency
    assert base.latency / dram.latency > 50


class TestSsdBackend:
    def test_host_cache_filters_repeat_batches(self, system):
        table = make_table(system, rows=512, dim=16)
        cache = SetAssociativeLru(256, ways=16)
        backend = SsdSlsBackend(system, table, host_cache=cache)
        bags = [np.arange(10), np.arange(5, 15)]
        first = backend.run_sync(bags)
        second = backend.run_sync(bags)
        assert second.stats["cache_hits"] > 0
        assert second.latency < first.latency
        assert np.allclose(first.values, second.values, rtol=1e-5)

    def test_sequential_duplicate_credit(self, system):
        table = make_table(system, rows=512, dim=16)
        cache = SetAssociativeLru(256, ways=16)
        backend = SsdSlsBackend(system, table, host_cache=cache)
        backend.run_sync([np.array([3, 3, 3, 3])])
        # First occurrence misses, the other three are sequential hits.
        assert cache.hits == 3
        assert cache.misses == 1

    def test_dedup_pages_within_batch(self, system):
        table = make_table(system, rows=512, dim=16)
        backend = SsdSlsBackend(system, table)
        result = backend.run_sync([np.array([7, 7]), np.array([7])])
        assert result.stats["commands"] == 1.0

    def test_coalescing_reduces_commands_for_seq(self, system):
        table = make_table(system, rows=2048, dim=32, layout=Layout.ONE_PER_PAGE)
        bags = [np.arange(32)]
        plain = SsdSlsBackend(system, table).run_sync(bags)
        coalesced = SsdSlsBackend(system, table, coalesce=True).run_sync(bags)
        assert coalesced.stats["commands"] < plain.stats["commands"]
        assert np.allclose(plain.values, coalesced.values, rtol=1e-5)

    def test_empty_bags(self, system):
        table = make_table(system, rows=64, dim=8)
        result = SsdSlsBackend(system, table).run_sync([np.array([], dtype=np.int64)])
        assert np.all(result.values == 0)
        assert result.stats["commands"] == 0.0

    @pytest.mark.parametrize(
        "layout,coalesce,cache_capacity",
        [
            (Layout.ONE_PER_PAGE, False, 1024),
            (Layout.ONE_PER_PAGE, False, 0),
            (Layout.PACKED, True, 512),
            (Layout.PACKED, False, 1024),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_values_match_reference_on_zipf_bags(
        self, system, layout, coalesce, cache_capacity, seed
    ):
        """Skewed, ragged bags (empty ones too) over a warming cache."""
        table = make_table(system, rows=20_000, dim=16, layout=layout)
        cache = SetAssociativeLru(cache_capacity, ways=16) if cache_capacity else None
        backend = SsdSlsBackend(system, table, host_cache=cache, coalesce=coalesce)
        for op in range(4):
            rng = np.random.default_rng(seed * 100 + op)
            bags = [
                rng.zipf(1.3, int(rng.integers(0, 25))).astype(np.int64) % 20_000
                for _ in range(24)
            ]
            result = backend.run_sync(bags)
            assert np.allclose(result.values, table.ref_sls(bags), rtol=1e-4, atol=1e-4)

    def test_negative_id_raises_before_the_host_cache_sees_it(self, system):
        """-1 is the array cache's empty-tag value: probed, it matched a
        free way and came back as a hit on a zero vector."""
        table = make_table(system, rows=512, dim=16)
        cache = SetAssociativeLru(64, ways=16)
        backend = SsdSlsBackend(system, table, host_cache=cache)
        backend.run_sync([np.array([5, 7])])        # every set keeps free ways
        counters = (cache.hits, cache.misses)
        with pytest.raises(IndexError, match=r"row id out of range \[0, 512\)"):
            backend.run_sync([np.array([5, -1, 7])])
        assert (cache.hits, cache.misses) == counters

    @pytest.mark.parametrize("layout", [Layout.ONE_PER_PAGE, Layout.PACKED])
    @pytest.mark.parametrize("past_the_end", [0, 3])
    def test_id_past_the_table_raises(self, system, layout, past_the_end):
        """On a packed table such an id lands in the last page's padding:
        it read back as a zero vector, reported nowhere."""
        table = make_table(system, rows=500, dim=16, layout=layout)
        assert layout is Layout.ONE_PER_PAGE or 500 % table.rows_per_page
        bags = [np.array([5, 500 + past_the_end, 7])]
        for backend in (SsdSlsBackend(system, table), DramSlsBackend(system, table)):
            with pytest.raises(IndexError, match=r"row id out of range \[0, 500\)"):
                backend.run_sync(bags)

    def test_a_shard_checks_local_ids_against_its_own_rows(self, system):
        parent = make_table(system, rows=512, dim=16, layout=Layout.PACKED)
        shard = parent.row_shard(np.arange(0, 512, 4), 0)
        shard.attach(system.device)
        backend = SsdSlsBackend(system, shard)
        backend.run_sync([np.array([0, 127])])
        # 128 is a row of the parent, not of the 128-row shard.
        with pytest.raises(IndexError, match=r"row id out of range \[0, 128\)"):
            backend.run_sync([np.array([0, 128])])


class TestNdpBackend:
    def test_partition_offloads_hot_rows(self, system):
        table = make_table(system, rows=512, dim=16)
        profile = [np.array([1, 1, 2, 2, 3])]
        partition = StaticPartitionCache.from_profile(table, profile, capacity=2)
        backend = NdpSlsBackend(system, table, partition=partition)
        # The middle bag is all hot: its cold remainder is an empty bag,
        # not a missing one, or the device's sums land on the wrong rows.
        bags = [np.array([1, 2, 50]), np.array([2, 1]), np.array([2, 60])]
        result = backend.run_sync(bags)
        assert np.allclose(result.values, table.ref_sls(bags), rtol=1e-4, atol=1e-5)
        assert result.stats["partition_hits"] == 5
        assert result.stats["cold_lookups"] == 2

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # system: read only
    )
    @given(
        # No partition, an empty one (all cold), every row (all hot), a subset.
        hot=st.one_of(
            st.none(), st.just([]), st.just(list(range(40))),
            st.lists(st.integers(0, 39), unique=True),
        ),
        # Zero bags, empty bags and duplicated ids included.
        bags=st.lists(st.lists(st.integers(0, 39), max_size=12), max_size=8),
    )
    def test_split_partition_matches_a_per_bag_oracle(self, system, hot, bags):
        """The batch split (one membership probe, one segment-sum, one
        boundary split) against the plain one: bag by bag, ``np.isin`` on
        the partition's rows, a float32 sum of the hot ones."""
        table = EmbeddingTable(TableSpec("t", 40, 8))     # the split needs no device
        partition = None
        if hot is not None:
            hot = np.asarray(hot, dtype=np.int64)
            vectors = table.get_rows(hot) if hot.size else np.zeros((0, 8), np.float32)
            partition = StaticPartitionCache(hot, vectors)
        bags = [np.asarray(bag, dtype=np.int64) for bag in bags]
        partial = np.zeros((len(bags), 8), dtype=np.float32)
        breakdown, stats = Breakdown(), {}
        cold_bags, cost = NdpSlsBackend(system, table, partition)._split_partition(
            Bags.of(bags), partial, breakdown, stats
        )

        want_partial, want_cold, hits = np.zeros_like(partial), [], 0
        for i, bag in enumerate(bags):
            mask = np.isin(bag, hot) if hot is not None else np.zeros(bag.size, bool)
            if mask.any():
                want_partial[i] = table.get_rows(bag[mask]).sum(axis=0, dtype=np.float32)
                hits += int(mask.sum())
            want_cold.append(bag[~mask])
        lookups = sum(bag.size for bag in bags)
        assert np.allclose(partial, want_partial, rtol=1e-5, atol=1e-6)
        assert len(cold_bags) == len(want_cold)
        for got, want in zip(cold_bags, want_cold):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert stats == {
            "lookups": lookups, "partition_hits": hits, "cold_lookups": lookups - hits
        }
        if partition is None:
            assert cost == 0.0 and not breakdown.components
        else:
            assert cost == system.host_cpu.accumulate_time(hits, table.spec.row_bytes)
            assert breakdown.components == {"host_partition": cost}
            assert (partition.hits, partition.misses) == (hits, lookups - hits)

    def test_all_hot_skips_device(self, system):
        table = make_table(system, rows=512, dim=16)
        partition = StaticPartitionCache.from_profile(
            table, [np.array([4, 5])], capacity=2
        )
        backend = NdpSlsBackend(system, table, partition=partition)
        started = system.device.ndp.requests_started
        result = backend.run_sync([np.array([4, 5]), np.array([4])])
        assert system.device.ndp.requests_started == started
        assert np.allclose(
            result.values, table.ref_sls([np.array([4, 5]), np.array([4])]),
            rtol=1e-4, atol=1e-5,
        )

    def test_breakdown_includes_ftl_components(self, system):
        table = make_table(system, rows=512, dim=16)
        result = NdpSlsBackend(system, table).run_sync([np.array([1, 2, 3])])
        assert result.breakdown.get("translation") > 0
        assert "flash_pages_read" in result.stats
