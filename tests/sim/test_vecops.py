"""Vectorized accumulation primitives vs their np.add.at ground truth."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.vecops import group_slices, scatter_add_vectors, segment_sum


class TestSegmentSum:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        n, buckets, dim = int(rng.integers(0, 300)), 17, 8
        ids = np.sort(rng.integers(0, buckets, size=n))
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        expected = np.zeros((buckets, dim), dtype=np.float32)
        np.add.at(expected, ids, vectors)
        got = segment_sum(vectors, ids, buckets)
        assert np.allclose(expected, got, rtol=1e-6, atol=1e-6)

    def test_empty_buckets_stay_zero(self):
        vectors = np.ones((2, 3), dtype=np.float32)
        out = segment_sum(vectors, np.array([1, 4]), 6)
        assert np.array_equal(out.sum(axis=1) != 0, np.array([0, 1, 0, 0, 1, 0], bool))

    def test_empty_input(self):
        out = segment_sum(np.zeros((0, 4), np.float32), np.zeros(0, np.int64), 3)
        assert out.shape == (3, 4) and not out.any()


class TestScatterAdd:
    @pytest.mark.parametrize("n", [0, 5, 127, 128, 1000])
    def test_matches_add_at_unsorted(self, n):
        rng = np.random.default_rng(n)
        ids = rng.integers(0, 23, size=n)
        vectors = rng.standard_normal((n, 6)).astype(np.float32)
        expected = rng.standard_normal((23, 6)).astype(np.float32)
        got = expected.copy()
        np.add.at(expected, ids, vectors)
        scatter_add_vectors(got, ids, vectors)
        assert np.allclose(expected, got, rtol=1e-5, atol=1e-5)


class TestGroupSlices:
    @pytest.mark.parametrize("seed", range(4))
    def test_groups_are_stable_and_complete(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 9, size=int(rng.integers(1, 60)))
        uniq, order, bounds = group_slices(keys)
        assert sorted(np.unique(keys)) == list(uniq)
        seen = []
        for g in range(uniq.size):
            idx = order[bounds[g] : bounds[g + 1]]
            assert (keys[idx] == uniq[g]).all()
            # Stable: positions within a group ascend (original order).
            assert list(idx) == sorted(idx)
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(keys.size))


def unique_form(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``group_slices`` as it was: ``np.unique(return_inverse)`` + ``bincount``."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=uniq.size)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return uniq, order, bounds


@given(
    dtype=st.sampled_from([np.int64, np.int32, np.int16, np.uint8, np.uint64]),
    values=st.lists(st.integers(0, 40), max_size=80)
    | st.lists(st.integers(0, 255), max_size=20),
)
def test_group_slices_equals_the_unique_form(dtype, values):
    keys = np.array(values, dtype=dtype)
    got, expected = group_slices(keys), unique_form(keys)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def test_group_slices_of_nothing():
    uniq, order, bounds = group_slices(np.zeros(0, dtype=np.int64))
    assert (uniq.size, order.size, bounds.tolist()) == (0, 0, [0])
    assert uniq.dtype == np.int64 and order.dtype == np.intp and bounds.dtype == np.intp
