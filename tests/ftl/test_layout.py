"""Layout bijection invariants: permutation property and identity oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ftl.layout import FrequencyLayout


class TestValidation:
    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="rows"):
            FrequencyLayout.from_heat(None, rows=0, rows_per_page=4)

    def test_rejects_bad_rows_per_page(self):
        with pytest.raises(ValueError, match="rows_per_page"):
            FrequencyLayout.from_heat(None, rows=8, rows_per_page=0)

    def test_rejects_heat_size_mismatch(self):
        with pytest.raises(ValueError):
            FrequencyLayout.from_heat(np.ones(5), rows=6, rows_per_page=2)


class TestZeroHeatOracle:
    """Uniform (or absent) heat must reproduce the identity placement (a
    table with no layout) bit-identically — enabling the machinery with
    no profile is a no-op."""

    @pytest.mark.parametrize("heat", [None, np.zeros(24), np.full(24, 3.5)])
    def test_uniform_heat_is_identity(self, heat):
        freq = FrequencyLayout.from_heat(heat, rows=24, rows_per_page=4)
        ids = np.arange(24, dtype=np.int64)
        assert np.array_equal(freq.storage_ids(ids), ids)
        assert np.array_equal(freq.external_ids(ids), ids)

    def test_hot_rows_share_low_pages(self):
        heat = np.zeros(16)
        heat[[3, 11, 7, 14]] = [4.0, 3.0, 2.0, 1.0]
        layout = FrequencyLayout.from_heat(heat, rows=16, rows_per_page=4)
        ranks = layout.storage_ids(np.array([3, 11, 7, 14]))
        assert (ranks // 4).tolist() == [0, 0, 0, 0]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 96),
    rows_per_page=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
    repacks=st.lists(st.integers(0, 2**31 - 1), max_size=4),
)
def test_heat_packed_layout_is_a_permutation(rows, rows_per_page, seed, repacks):
    """Every row mapped exactly once; id -> (page, slot) -> id round-trips
    exactly, before and after arbitrary bounded re-packs."""
    rng = np.random.default_rng(seed)
    heat = rng.random(rows)
    layout = FrequencyLayout.from_heat(heat, rows, rows_per_page)

    def check_round_trip():
        layout.check_permutation()
        ids = np.arange(rows, dtype=np.int64)
        ranks = layout.storage_ids(ids)
        assert np.array_equal(np.sort(ranks), ids)  # every row exactly once
        pages, slots = np.divmod(ranks, rows_per_page)
        assert np.array_equal(
            layout.external_ids(pages * rows_per_page + slots), ids
        )

    check_round_trip()
    for repack_seed in repacks:
        repack_rng = np.random.default_rng(repack_seed)
        ranks = repack_rng.integers(0, rows, size=repack_rng.integers(0, rows + 1))
        new_heat = repack_rng.random(rows)
        moved = layout.repack_ranks(ranks, new_heat)
        # Moved ranks are a subset of the requested ranks.
        assert np.isin(moved, ranks).all()
        check_round_trip()


def test_repack_clusters_hot_rows_and_reports_moves():
    heat = np.arange(8, dtype=np.float64)  # row 7 hottest
    layout = FrequencyLayout.from_heat(np.zeros(8), rows=8, rows_per_page=2)
    # Identity to start; re-pack all ranks against ascending heat.
    moved = layout.repack_ranks(np.arange(8), heat)
    assert moved.size > 0
    assert layout.rows_migrated == moved.size
    assert layout.version == 1
    # Hottest rows now occupy the lowest ranks.
    assert layout.external_ids(np.arange(8)).tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
    # Re-packing again with the same heat is a no-op.
    assert layout.repack_ranks(np.arange(8), heat).size == 0
    assert layout.version == 1


def test_repack_is_victim_local():
    layout = FrequencyLayout.from_heat(np.zeros(12), rows=12, rows_per_page=4)
    heat = np.zeros(12)
    heat[8] = 9.0  # hot row outside the repacked ranks
    moved = layout.repack_ranks(np.array([0, 1, 2, 3]), heat)
    # Rows only trade places within the given ranks: rank 8's occupant
    # stays put even though it is the hottest row overall.
    assert moved.size == 0
    assert layout.external_ids(np.array([8]))[0] == 8
