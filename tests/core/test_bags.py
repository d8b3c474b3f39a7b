"""``Bags``: SparseLengthsSum's ``(indices, lengths)`` as one record.

Properties over ragged bags, empty bags, an empty batch and the
length-1 bags of a sequence feature: a list of arrays round-trips
through ``Bags.of`` and iteration; ``ref_sls`` over a ``Bags`` and over
the list agree bit for bit, and with an ``np.add.at`` loop written out
here as far as ``np.add.reduceat``'s own grouping allows;
``Bags.concat`` lays requests end to end so that each one's ``(lo, hi)``
span slices its own bags and its own result rows back out; ``select``
matches a bag-by-bag filter.  And the one flatten refuses what a cast to
int64 used to truncate without a word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import Bags, as_ids
from repro.core.config import build_pairs
from repro.core.vecops import segment_sum, segment_sum_offsets
from repro.embedding.backends import flatten_bags
from repro.embedding.spec import TableSpec
from repro.embedding.table import EmbeddingTable
from repro.models.base import SparseFeature
from repro.models.dlrm import DlrmConfig, DlrmModel

ROWS, DIM = 64, 8
TABLE = EmbeddingTable(TableSpec("t", ROWS, DIM), seed=5)

IDS = st.integers(0, ROWS - 1)
# Ragged; zero bags, empty bags and duplicated ids included.
RAGGED = st.lists(st.lists(IDS, max_size=9), max_size=8)
# What a sequence feature draws: every id its own bag.
SEQUENCE = st.lists(st.lists(IDS, min_size=1, max_size=1), max_size=12)
BAG_LISTS = st.one_of(RAGGED, SEQUENCE)


def arrays(lists) -> list:
    return [np.asarray(bag, dtype=np.int64) for bag in lists]


def add_at_sls(table: EmbeddingTable, lists) -> np.ndarray:
    """SparseLengthsSum the slow, obviously right way: bag by bag, row by
    row in order, ``np.add.at`` into the bag's result row."""
    out = np.zeros((len(lists), table.spec.dim), dtype=np.float32)
    for result, bag in enumerate(arrays(lists)):
        if bag.size:
            np.add.at(out, np.full(bag.size, result), table.get_rows(bag))
    return out


# ----------------------------------------------------------------------
# The sequence protocol
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(lists=BAG_LISTS)
def test_a_list_of_arrays_round_trips_through_of_and_iteration(lists):
    bags = Bags.of(arrays(lists))
    assert len(bags) == len(lists)
    assert [bag.tolist() for bag in bags] == lists
    assert [bags[i].tolist() for i in range(len(lists))] == lists
    assert bags.ids.dtype == bags.offsets.dtype == bags.rids.dtype == np.int64
    assert bags.ids.tolist() == [row for bag in lists for row in bag]
    assert bags.offsets.tolist() == np.cumsum([0] + [len(bag) for bag in lists]).tolist()
    assert bags.rids.tolist() == [i for i, bag in enumerate(lists) for _ in bag]
    rows, rids = flatten_bags(lists)
    assert np.array_equal(rows, bags.ids) and np.array_equal(rids, bags.rids)
    for bag in bags:
        assert bag.size == 0 or bag.base is not None  # a view of ids, not a copy
    if lists:
        assert bags[-1].tolist() == lists[-1]
    with pytest.raises(IndexError):
        bags[len(lists)]
    with pytest.raises(IndexError):
        bags[-len(lists) - 1]


@settings(max_examples=100, deadline=None)
@given(lists=BAG_LISTS, cut=st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_a_slice_is_the_bags_a_list_slice_would_hold(lists, cut):
    lo, hi = cut
    part = Bags.of(arrays(lists))[lo:hi]
    assert isinstance(part, Bags)
    assert [bag.tolist() for bag in part] == lists[lo:hi]
    assert part.offsets[0] == 0 and part.offsets[-1] == part.ids.size


def test_of_passes_a_bags_through_and_flattens_nothing_twice():
    bags = Bags.of([np.array([1, 2]), np.array([3])])
    assert Bags.of(bags) is bags
    assert Bags.concat([bags]) is bags
    assert flatten_bags(bags)[0] is bags.ids
    flat = np.arange(6)
    assert as_ids(flat) is flat                 # not even a second view of it
    assert Bags.uniform(as_ids(flat), 2).ids is flat


def test_uniform_bags_share_one_layout_per_shape():
    first = Bags.uniform(np.arange(12), 3)
    second = Bags.uniform(np.arange(12, 24), 3)
    assert [bag.tolist() for bag in first] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    assert first.offsets is second.offsets and first.rids is second.rids
    assert Bags.uniform(np.arange(12), 4).offsets is not first.offsets
    # Shared, so nobody may write into them.
    with pytest.raises(ValueError, match="read-only"):
        first.offsets[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        first.rids[0] = 1
    # A sequence feature: every id its own bag.
    assert [bag.tolist() for bag in Bags.uniform(np.array([7, 8, 9]), 3)] == [[7], [8], [9]]
    empty = Bags.uniform(np.zeros(0, dtype=np.int64), 0)
    assert len(empty) == 0 and empty.offsets.tolist() == [0]
    assert len(Bags.uniform(np.zeros(0, dtype=np.int64), 4)) == 4  # four empty bags
    with pytest.raises(ValueError, match="equal bags"):
        Bags.uniform(np.arange(7), 3)
    with pytest.raises(ValueError, match="equal bags"):
        Bags.uniform(np.arange(7), 0)


# ----------------------------------------------------------------------
# Sums
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(lists=BAG_LISTS)
def test_ref_sls_of_bags_and_of_a_list_agree_bit_for_bit_and_with_an_add_at_loop(lists):
    """``np.add.reduceat`` does not add a segment's rows left to right
    (three rows come out as ``a + (b + c)``; past eight it regroups
    again), so ``ref_sls`` — at the parent as much as here — equals the
    ``np.add.at`` loop bit for bit only while no bag holds more than two
    ids, and otherwise to the float32 tolerance ``perf/checks.py`` holds
    the device backends to.  Bit-identity with the parent's own sums is
    ``tests/embedding/test_bags_reference.py``."""
    want = add_at_sls(TABLE, lists)
    from_list = TABLE.ref_sls(arrays(lists))
    from_bags = TABLE.ref_sls(Bags.of(arrays(lists)))
    assert from_list.dtype == from_bags.dtype == np.float32
    assert from_list.shape == from_bags.shape == want.shape
    assert np.array_equal(from_bags, from_list)
    assert np.allclose(from_bags, want, rtol=1e-5, atol=1e-6)
    if all(len(bag) <= 2 for bag in lists):
        assert np.array_equal(from_bags, want)


@settings(max_examples=200, deadline=None)
@given(lists=RAGGED)
def test_the_offsets_form_of_segment_sum_is_the_ids_form(lists):
    bags = Bags.of(arrays(lists))
    vectors = TABLE.get_rows(bags.ids)
    by_offsets = segment_sum_offsets(vectors, bags.offsets)
    by_ids = segment_sum(vectors, bags.rids, len(bags))
    assert by_offsets.dtype == by_ids.dtype and np.array_equal(by_offsets, by_ids)
    assert not np.shares_memory(by_offsets, vectors)


# ----------------------------------------------------------------------
# Coalescing and splitting
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(requests=st.lists(BAG_LISTS, min_size=1, max_size=5), as_lists=st.booleans())
def test_concat_lays_requests_end_to_end_and_spans_slice_them_back(requests, as_lists):
    parts = [arrays(lists) if as_lists else Bags.of(arrays(lists)) for lists in requests]
    merged = Bags.concat(parts)
    # The spans ``BatchScheduler._dispatch`` records: running bag counts.
    spans, lo = [], 0
    for part in parts:
        spans.append((lo, lo + len(part)))
        lo += len(part)
    assert len(merged) == lo
    assert [bag.tolist() for bag in merged] == [bag for lists in requests for bag in lists]
    assert np.array_equal(merged.rids, Bags.of(list(merged)).rids)
    values = TABLE.ref_sls(merged)
    for lists, (lo, hi) in zip(requests, spans):
        assert [bag.tolist() for bag in merged[lo:hi]] == lists
        assert np.array_equal(values[lo:hi], TABLE.ref_sls(arrays(lists)))


def test_concat_of_nothing_is_an_empty_batch():
    nothing = Bags.concat([])
    assert len(nothing) == 0 and nothing.ids.size == 0 and nothing.offsets.tolist() == [0]


@settings(max_examples=200, deadline=None)
@given(lists=RAGGED, data=st.data())
def test_select_keeps_the_bags_and_drops_the_ids(lists, data):
    bags = Bags.of(arrays(lists))
    mask = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=bags.ids.size, max_size=bags.ids.size)),
        dtype=bool,
    )
    want, at = [], 0
    for bag in lists:
        want.append([row for row, keep in zip(bag, mask[at : at + len(bag)]) if keep])
        at += len(bag)
    for keep in (mask, np.flatnonzero(mask)):
        kept = bags.select(keep)
        assert len(kept) == len(bags)
        assert [bag.tolist() for bag in kept] == want
        assert np.array_equal(kept.rids, Bags.of(arrays(want)).rids)


# ----------------------------------------------------------------------
# Ids are integers (a cast truncated 3.7 to row 3; fails at the parent)
# ----------------------------------------------------------------------
class TestIdsAreIntegers:
    def test_float_ids_are_refused_not_truncated(self):
        with pytest.raises(TypeError, match="must be integers.*float64"):
            flatten_bags([np.array([3.7])])
        with pytest.raises(TypeError, match="must be integers"):
            TABLE.ref_sls([np.array([1, 2]), np.array([3.0])])
        with pytest.raises(TypeError, match="must be integers"):
            build_pairs([[0.5, 1.5]])

    def test_bool_ids_are_refused(self):
        with pytest.raises(TypeError, match="must be integers.*bool"):
            Bags.of([np.array([True, False])])

    def test_an_empty_list_and_an_empty_bag_pass_whatever_numpy_calls_them(self):
        assert np.array([]).dtype == np.float64  # why emptiness is exempt
        bags = Bags.of([[], np.array([]), np.array([4, 5]), np.zeros(0, dtype=bool)])
        assert [bag.tolist() for bag in bags] == [[], [], [4, 5], []]
        assert bags.ids.dtype == np.int64
        assert len(Bags.of([])) == 0
        assert TABLE.ref_sls([]).shape == (0, DIM)
        assert np.array_equal(TABLE.ref_sls([[]]), np.zeros((1, DIM), np.float32))

    def test_a_two_dimensional_bag_is_still_reshaped_flat(self):
        bags = Bags.of([np.array([[1, 2], [3, 4]]), np.array([5], dtype=np.int32)])
        assert [bag.tolist() for bag in bags] == [[1, 2, 3, 4], [5]]
        assert as_ids(np.uint8([[9]])).tolist() == [9]

    def test_sample_batch_holds_a_sampler_to_the_same_rule(self):
        model = DlrmModel(
            DlrmConfig(
                name="m", dense_in=4, bottom_mlp=(4,), top_mlp=(4,),
                num_tables=1, table_rows=ROWS, dim=4, lookups=3,
            )
        )
        (feature,) = model.features
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="must be integers"):
            model.sample_batch(rng, 2, samplers={feature.name: lambda n: np.full(n, 3.7)})
        with pytest.raises(ValueError, match="returned 5 ids, not the 6 asked for"):
            model.sample_batch(rng, 2, samplers={feature.name: lambda n: np.zeros(5, np.int64)})
        # int32 is an integer dtype: widened, not refused.
        batch = model.sample_batch(
            rng, 2, samplers={feature.name: lambda n: np.arange(n, dtype=np.int32)}
        )
        assert [bag.tolist() for bag in batch.bags[feature.name]] == [[0, 1, 2], [3, 4, 5]]
        assert batch.bags[feature.name].ids.dtype == np.int64


def test_sample_batch_draws_what_the_list_of_slices_held():
    """Same RNG calls in the same order: the parent's expression, written
    out, over a second generator with the same seed."""
    model = DlrmModel(
        DlrmConfig(
            name="m", dense_in=4, bottom_mlp=(4,), top_mlp=(4,),
            num_tables=2, table_rows=ROWS, dim=4, lookups=3,
        )
    )
    sequence = SparseFeature(model.features[1].spec, lookups=3, sequence=True)
    model.features[1] = sequence
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    batch = model.sample_batch(ours, 4)
    dense = theirs.standard_normal((4, 4)).astype(np.float32)
    assert np.array_equal(batch.dense, dense)
    for feature in model.features:
        rows = theirs.integers(0, feature.spec.rows, size=4 * feature.lookups, dtype=np.int64)
        if feature.sequence:
            want = [rows[i : i + 1] for i in range(rows.size)]
        else:
            want = [rows[i * feature.lookups : (i + 1) * feature.lookups] for i in range(4)]
        got = batch.bags[feature.name]
        assert len(got) == len(want) == 4 * feature.bags_per_sample
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert ours.integers(1 << 30) == theirs.integers(1 << 30)  # streams still aligned
