"""``Bags`` and its readers against the parent's per-bag plumbing.

``reference_bags.py`` holds the parent commit's ``flatten_bags``,
``build_pairs``, ``segment_sum``, ``scatter_bags``, ``ref_sls`` and
``make_sls_config`` verbatim — the list-of-arrays loops this PR removed
from ``src/``.  On any bags (ragged, empty bags, empty batch, length-1
sequence bags), fed as a list or as a ``Bags``, ``src/`` must give the
same rows and result ids, the same sorted pairs (identity and
heat-packed layout), the same shard-local bags under both row mappings
and the same float32 sums, bit for bit.

House rule: the suite shows it *ran* the reference — each reference
function is a different function from the one in ``src/``, the reference
still loops bag by bag where ``src/`` no longer does, and every
comparison goes through :func:`reference`, which counts the calls that
reached the frozen body.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.config
import repro.core.vecops
import repro.embedding.backends.base
import repro.embedding.stage
from repro.core.bags import Bags
from repro.embedding import EmbeddingTable, Layout, TableSpec
from repro.embedding.stage import scatter_bags
from repro.host.system import build_system
from repro.serving.sharding import ModuloRowMapping

from . import reference_bags

ROWS, DIM = 96, 8
IDS = st.integers(0, ROWS - 1)
BAG_LISTS = st.one_of(
    st.lists(st.lists(IDS, max_size=9), max_size=8),
    st.lists(st.lists(IDS, min_size=1, max_size=1), max_size=12),
)
RAN: Counter = Counter()


def reference(name: str):
    """The frozen function, counting the calls that reach its body."""
    frozen = getattr(reference_bags, name)

    def counted(*args):
        RAN[name] += 1
        return frozen(*args)

    return counted


def arrays(lists) -> list:
    return [np.asarray(bag, dtype=np.int64) for bag in lists]


def both_spellings(lists):
    """The two things a caller may hand ``src/``: the list, and a Bags."""
    return arrays(lists), Bags.of(arrays(lists))


@cache
def attached_tables():
    """One plain and one heat-packed table on a device (pairs address
    storage ranks, so the layout matters); built once, only read."""
    system = build_system(min_capacity_pages=1024)
    plain = EmbeddingTable(TableSpec("plain", ROWS, DIM, layout=Layout.PACKED), seed=3)
    packed = EmbeddingTable(TableSpec("packed", ROWS, DIM, layout=Layout.PACKED), seed=4)
    packed.set_heat(np.random.default_rng(9).random(ROWS))
    plain.attach(system.device)
    packed.attach(system.device)
    assert plain.layout is None and packed.layout is not None
    return plain, packed


def _loops(function) -> bool:
    tree = ast.parse(inspect.getsource(function).lstrip())
    kinds = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
    return any(isinstance(node, kinds) for node in ast.walk(tree))


def test_the_reference_is_the_per_bag_code_and_src_is_not():
    pairs = {
        "flatten_bags": repro.embedding.backends.base.flatten_bags,
        "build_pairs": repro.core.config.build_pairs,
        "segment_sum": repro.core.vecops.segment_sum,
        "scatter_bags": repro.embedding.stage.scatter_bags,
        "ref_sls": EmbeddingTable.ref_sls,
        "make_sls_config": EmbeddingTable.make_sls_config,
    }
    assert sorted(pairs) == sorted(reference_bags.__all__)
    for name, ours in pairs.items():
        theirs = getattr(reference_bags, name)
        assert theirs is not ours and theirs.__module__ == reference_bags.__name__
    for name in ("flatten_bags", "build_pairs", "make_sls_config"):
        assert _loops(getattr(reference_bags, name)), name
    for ours in (pairs["flatten_bags"], pairs["build_pairs"], pairs["make_sls_config"]):
        assert not _loops(ours), ours.__qualname__


@settings(max_examples=200, deadline=None)
@given(lists=BAG_LISTS)
def test_flatten_and_pairs_match_the_per_bag_loops(lists):
    want_rows, want_rids = reference("flatten_bags")(arrays(lists))
    want_pairs = reference("build_pairs")(arrays(lists))
    for bags in both_spellings(lists):
        rows, rids = repro.embedding.backends.base.flatten_bags(bags)
        assert rows.dtype == rids.dtype == np.int64
        assert np.array_equal(rows, want_rows) and np.array_equal(rids, want_rids)
        pairs = repro.core.config.build_pairs(bags)
        assert pairs.dtype == want_pairs.dtype and pairs.shape == want_pairs.shape
        assert np.array_equal(pairs, want_pairs)
    assert RAN["flatten_bags"] and RAN["build_pairs"]


@settings(max_examples=200, deadline=None)
@given(lists=BAG_LISTS)
def test_ref_sls_matches_the_parents_sums_bit_for_bit(lists):
    plain, _packed = attached_tables()
    want = reference("ref_sls")(plain, arrays(lists))
    for bags in both_spellings(lists):
        got = plain.ref_sls(bags)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert RAN["ref_sls"]


@settings(max_examples=200, deadline=None)
@given(lists=BAG_LISTS, keep=st.data())
def test_segment_sum_matches_the_parents_on_filtered_result_ids(lists, keep):
    """The ids form survives for the callers that filter first (the SSD
    backend's cache hits, the NDP partition's hot rows)."""
    bags = Bags.of(arrays(lists))
    mask = np.asarray(
        keep.draw(st.lists(st.booleans(), min_size=bags.ids.size, max_size=bags.ids.size)),
        dtype=bool,
    )
    plain, _packed = attached_tables()
    vectors, rids = plain.get_rows(bags.ids[mask]), bags.rids[mask]
    want = reference("segment_sum")(vectors, rids, len(bags))
    got = repro.core.vecops.segment_sum(vectors, rids, len(bags))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert RAN["segment_sum"]


@settings(max_examples=150, deadline=None)
@given(lists=BAG_LISTS)
def test_make_sls_config_pairs_match_with_and_without_a_layout(lists):
    if not lists:
        return  # zero results: SlsConfig refuses it on both sides
    for table in attached_tables():
        want = reference("make_sls_config")(table, arrays(lists))
        for bags in both_spellings(lists):
            got = table.make_sls_config(bags)
            assert got.pairs.dtype == want.pairs.dtype
            assert np.array_equal(got.pairs, want.pairs)
            assert (got.num_results, got.rows_per_page, got.table_base_lba) == (
                want.num_results, want.rows_per_page, want.table_base_lba
            )
    assert RAN["make_sls_config"]


class LookupMapping:
    """Any row -> shard assignment: shards of uneven size whose rows
    interleave, each shard's local ids ascending in global id."""

    def __init__(self, shard_of: np.ndarray):
        self._shard = np.asarray(shard_of, dtype=np.int64)
        self._local = np.empty_like(self._shard)
        for shard in np.unique(self._shard):
            mask = self._shard == shard
            self._local[mask] = np.arange(np.count_nonzero(mask))

    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        return self._shard[np.asarray(ids, dtype=np.int64)]

    def local_ids(self, ids: np.ndarray) -> np.ndarray:
        return self._local[np.asarray(ids, dtype=np.int64)]


MAPPINGS = (
    ModuloRowMapping(ROWS, 3),
    LookupMapping(np.random.default_rng(2).choice(4, size=ROWS, p=[0.55, 0.25, 0.15, 0.05])),
)


@settings(max_examples=200, deadline=None)
@given(lists=BAG_LISTS, which=st.sampled_from(range(len(MAPPINGS))))
def test_scatter_bags_matches_the_np_split_version(lists, which):
    mapping = MAPPINGS[which]
    want = reference("scatter_bags")(arrays(lists), mapping)
    for bags in both_spellings(lists):
        got = scatter_bags(bags, mapping)
        assert list(got) == list(want)          # same shards, same order
        for shard, sub in got.items():
            assert isinstance(sub, Bags) and isinstance(shard, int)
            assert len(sub) == len(want[shard]) == len(lists)
            assert sub.ids.dtype == np.int64
            for ours, theirs in zip(sub, want[shard]):
                assert np.array_equal(ours, theirs)
            assert np.array_equal(sub.rids, reference_bags.flatten_bags(want[shard])[1])
    assert RAN["scatter_bags"]
