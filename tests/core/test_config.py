"""SLS config: pair building, validation, size accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.config import CONFIG_HEADER_BYTES, PAIR_BYTES, SlsConfig, build_pairs


class TestBuildPairs:
    def test_sorted_by_input_id(self):
        bags = [np.array([5, 1]), np.array([3, 1])]
        pairs = build_pairs(bags)
        assert np.all(np.diff(pairs[:, 0]) >= 0)
        assert pairs.shape == (4, 2)

    def test_result_ids_match_bags(self):
        bags = [np.array([10]), np.array([20, 30])]
        pairs = build_pairs(bags)
        lookup = {(int(r[0]), int(r[1])) for r in pairs}
        assert lookup == {(10, 0), (20, 1), (30, 1)}

    def test_empty(self):
        assert build_pairs([]).shape == (0, 2)

    def test_duplicate_ids_kept(self):
        bags = [np.array([7, 7, 7])]
        pairs = build_pairs(bags)
        assert pairs.shape == (3, 2)

    @given(
        bags=st.lists(
            st.lists(st.integers(0, 1000), max_size=20).map(np.array),
            min_size=1,
            max_size=10,
        )
    )
    def test_pair_count_property(self, bags):
        pairs = build_pairs(bags)
        assert pairs.shape[0] == sum(len(b) for b in bags)
        if pairs.size:
            assert np.all(np.diff(pairs[:, 0]) >= 0)


def make_config(**kwargs):
    defaults = dict(
        table_base_lba=0,
        request_id=1,
        pairs=build_pairs([np.array([0, 5]), np.array([2])]),
        num_results=2,
        vec_dim=8,
        rows_per_page=4,
        table_rows=100,
    )
    defaults.update(kwargs)
    return SlsConfig(**defaults)


class TestValidation:
    def test_valid(self):
        config = make_config()
        assert config.num_inputs == 3

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="pairs must be sorted by input id"):
            make_config(pairs=np.array([[5, 0], [1, 0]]))

    def test_unsorted_with_minimum_not_first_rejected(self):
        """The bounds are read off the ends only once the order is known:
        an unsorted array whose least id sits inside it is still refused."""
        with pytest.raises(ValueError, match="pairs must be sorted by input id"):
            make_config(pairs=np.array([[2, 0], [1, 0], [3, 1]]))
        with pytest.raises(ValueError, match="pairs must be sorted by input id"):
            make_config(pairs=np.array([[0, 0], [-1, 0], [3, 1]]))

    def test_result_id_out_of_range(self):
        with pytest.raises(ValueError, match="result id out of range"):
            make_config(pairs=np.array([[1, 5]]), num_results=2)

    def test_result_id_equal_to_num_results_rejected(self):
        with pytest.raises(ValueError, match="result id out of range"):
            make_config(pairs=np.array([[1, 0], [2, 2]]), num_results=2)

    def test_negative_result_id_rejected(self):
        with pytest.raises(ValueError, match="result id out of range"):
            make_config(pairs=np.array([[1, 1], [2, -1]]), num_results=2)

    def test_input_exceeds_rows(self):
        with pytest.raises(ValueError, match="input id exceeds table rows"):
            make_config(pairs=np.array([[200, 0]]), table_rows=100)

    def test_last_row_accepted_and_one_past_it_rejected(self):
        config = make_config(pairs=np.array([[3, 0], [99, 1]]), table_rows=100)
        assert config.num_inputs == 2
        with pytest.raises(ValueError, match="input id exceeds table rows"):
            make_config(pairs=np.array([[3, 0], [100, 1]]), table_rows=100)

    def test_negative_input(self):
        with pytest.raises(ValueError, match="negative input id"):
            make_config(pairs=np.array([[-1, 0]]))

    def test_sorted_with_negative_first_id_rejected(self):
        with pytest.raises(ValueError, match="negative input id"):
            make_config(pairs=np.array([[-3, 0], [1, 1], [1, 0]]))

    @pytest.mark.parametrize(
        "pairs, dtype",
        [([[1.5, 0.0]], "float64"), ([[1.0, 0.0]], "float64"), ([[True, False]], "bool")],
    )
    def test_non_integer_pairs_refused(self, pairs, dtype):
        """A cast read ``[[1.5, 0.0]]`` as ``[[1, 0]]`` without a word."""
        with pytest.raises(TypeError, match=f"pairs must be integers, got dtype {dtype}"):
            make_config(pairs=np.array(pairs))

    def test_other_integer_dtypes_become_int64(self):
        config = make_config(pairs=np.array([[0, 1], [5, 0]], dtype=np.int32))
        assert config.pairs.dtype == np.int64
        assert config.pairs.tolist() == [[0, 1], [5, 0]]
        assert make_config(pairs=np.zeros((0, 2))).num_inputs == 0


class TestSizes:
    def test_encoded_bytes(self):
        config = make_config()
        assert config.encoded_bytes == CONFIG_HEADER_BYTES + 3 * PAIR_BYTES

    def test_result_bytes_always_fp32(self):
        config = make_config()
        assert config.result_bytes == 2 * 8 * 4

    def test_result_pages(self):
        config = make_config()
        assert config.result_pages(page_bytes=16) == 4
        assert config.result_pages(page_bytes=1 << 20) == 1

    def test_pages_touched(self):
        config = make_config()  # rows 0,5,2 with 4 rows/page -> pages {0, 1}
        assert list(config.pages_touched()) == [0, 1]
