"""Table specs, data sources, quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding.data import DenseTableData, UpdatableTableData, VirtualTableData
from repro.embedding.spec import Layout, TableSpec
from repro.quant import EmbDtype, QuantSpec, decode_vectors, encode_vectors


class TestSpec:
    def test_one_per_page(self):
        spec = TableSpec("t", rows=100, dim=32, layout=Layout.ONE_PER_PAGE)
        assert spec.rows_per_page(16 * 1024) == 1
        assert spec.table_pages(16 * 1024) == 100
        assert spec.row_bytes == 128

    def test_packed(self):
        spec = TableSpec("t", rows=1000, dim=32, layout=Layout.PACKED)
        assert spec.rows_per_page(16 * 1024) == 128
        assert spec.table_pages(16 * 1024) == 8  # ceil(1000/128)

    def test_packed_row_too_big(self):
        spec = TableSpec("t", rows=10, dim=4096 * 5, layout=Layout.PACKED)
        with pytest.raises(ValueError):
            spec.rows_per_page(16 * 1024)

    def test_quantized_row_bytes(self):
        spec = TableSpec("t", rows=10, dim=32, quant=QuantSpec(dtype=EmbDtype.INT8))
        assert spec.row_bytes == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            TableSpec("t", rows=0, dim=4)


class TestVirtualData:
    def test_deterministic(self):
        a = VirtualTableData(1000, 16, seed=3)
        b = VirtualTableData(1000, 16, seed=3)
        ids = np.array([0, 5, 999])
        assert np.array_equal(a.get_rows(ids), b.get_rows(ids))

    def test_distinct_rows_differ(self):
        data = VirtualTableData(100000, 16, seed=3, pool_rows=64)
        # Rows sharing the same pool vector still differ via the id stamp.
        a = data.get_rows(np.array([0]))
        b = data.get_rows(np.array([64]))
        assert not np.array_equal(a, b)

    def test_out_of_range(self):
        data = VirtualTableData(10, 4)
        with pytest.raises(IndexError):
            data.get_rows(np.array([10]))
        with pytest.raises(IndexError):
            data.get_rows(np.array([-1]))

    @pytest.mark.parametrize(
        "ids, lo, hi",
        [
            ([3, -1, 9], -1, 9),                 # negative: >= 2**63 as uint64
            ([0, 10, 4], 0, 10),                 # equal to rows
            ([-(2**63), 2**63 - 1], -(2**63), 2**63 - 1),
        ],
    )
    def test_out_of_range_message_names_the_extremes(self, ids, lo, hi):
        message = rf"row id out of range \[0, 10\) \(got min={lo}, max={hi}\)"
        for data in (VirtualTableData(10, 4), DenseTableData.random(10, 4)):
            with pytest.raises(IndexError, match=message):
                data.get_rows(np.array(ids, dtype=np.int64))

    def test_every_row_in_range_passes(self):
        data = DenseTableData.random(10, 4)
        ids = np.array([0, 9, 5, 0], dtype=np.int64)
        assert np.array_equal(data.get_rows(ids), data.values[ids])
        assert data.get_rows(np.zeros(0, dtype=np.int64)).shape == (0, 4)

    @pytest.mark.parametrize(
        "ids, dtype",
        [([1.9], "float64"), ([np.nan], "float64"), ([0.0, 2.0], "float32"), ([True, False], "bool")],
    )
    def test_non_integer_ids_are_refused(self, ids, dtype):
        """A cast served 1.9 as row 1 and True as row 1, and a NaN became
        the int64 minimum (an ``IndexError`` naming it, and a warning)."""
        message = f"row ids must be integers, got dtype {dtype}"
        for data in (
            VirtualTableData(10, 4),
            DenseTableData.random(10, 4),
            UpdatableTableData(VirtualTableData(10, 4)),
        ):
            with pytest.raises(TypeError, match=message):
                data.get_rows(np.array(ids, dtype=dtype))

    def test_other_integer_dtypes_and_empty_ids_pass(self):
        data = DenseTableData.random(10, 4)
        want = data.values[[3, 9]]
        for dtype in (np.int32, np.uint8, np.uint64):
            assert np.array_equal(data.get_rows(np.array([3, 9], dtype=dtype)), want)
        assert data.get_rows(np.array([])).shape == (0, 4)

    def test_different_seeds_differ(self):
        a = VirtualTableData(100, 8, seed=1)
        b = VirtualTableData(100, 8, seed=2)
        assert not np.array_equal(a.get_rows(np.array([5])), b.get_rows(np.array([5])))


class TestGetRowsHandsBackItsOwnArray:
    """``get_rows`` returns a fresh array the caller may write into; a
    fancy-index result already is one, so the ``.copy()`` on top of it
    bought nothing.  Values against the parent's expression, written out."""

    IDS = np.array([0, 5, 5, 999, 64, 0])

    def test_virtual_rows_are_the_parents_and_nobody_elses(self):
        from repro.embedding.data import _HASH_MULT, _STAMP_PRIME

        data = VirtualTableData(1000, 16, seed=3, pool_rows=64)
        want = data._pool[self.IDS % data._pool.shape[0]].copy()
        stamp = ((self.IDS * _HASH_MULT + data.seed) % _STAMP_PRIME).astype(np.float32)
        want[:, 0] = stamp / _STAMP_PRIME - 0.5
        got = data.get_rows(self.IDS)
        assert got.dtype == np.float32 and np.array_equal(got, want)
        pool = data._pool.copy()
        assert not np.shares_memory(got, data._pool) and got.flags.writeable
        got[:] = 7.0
        assert np.array_equal(data._pool, pool)
        assert np.array_equal(data.get_rows(self.IDS), want)

    @settings(max_examples=50, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 10**6 - 1), max_size=40),
        seed=st.integers(0, 2**31),
        pool_rows=st.sampled_from([1, 64, 4096]),
    )
    def test_virtual_rows_bit_for_bit(self, ids, seed, pool_rows):
        from repro.embedding.data import _HASH_MULT, _STAMP_PRIME

        ids = np.array(ids, dtype=np.int64)
        data = VirtualTableData(10**6, 8, seed=seed, pool_rows=pool_rows)
        want = data._pool[ids % data._pool.shape[0]]
        stamp = ((ids * _HASH_MULT + seed) % _STAMP_PRIME).astype(np.float32)
        want[:, 0] = stamp / _STAMP_PRIME - 0.5
        assert data.get_rows(ids).tobytes() == want.tobytes()

    def test_dense_rows_are_a_copy(self):
        values = np.random.default_rng(0).standard_normal((1000, 4)).astype(np.float32)
        data = DenseTableData(values.copy())
        got = data.get_rows(self.IDS)
        assert np.array_equal(got, values[self.IDS])
        assert not np.shares_memory(got, data.values) and got.flags.writeable
        got[:] = 7.0
        assert np.array_equal(data.values, values)
        one = data.get_rows(np.int64(3))        # a scalar id still copies
        one[:] = 7.0
        assert np.array_equal(data.values, values)


class TestDenseData:
    def test_roundtrip(self):
        values = np.random.default_rng(0).standard_normal((10, 4)).astype(np.float32)
        data = DenseTableData(values)
        assert np.array_equal(data.get_rows(np.array([3, 3, 9])), values[[3, 3, 9]])

    def test_random_factory(self):
        data = DenseTableData.random(20, 8, seed=1)
        assert data.rows == 20 and data.dim == 8


finite_vecs = st.lists(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    min_size=8,
    max_size=8,
)


class TestQuantization:
    @given(vec=finite_vecs)
    @settings(max_examples=60)
    def test_fp32_roundtrip_exact(self, vec):
        values = np.array([vec], dtype=np.float32)
        spec = QuantSpec(dtype=EmbDtype.FP32)
        assert np.array_equal(decode_vectors(encode_vectors(values, spec), spec), values)

    @given(vec=finite_vecs)
    @settings(max_examples=60)
    def test_int8_roundtrip_within_half_step(self, vec):
        values = np.array([vec], dtype=np.float32)
        spec = QuantSpec(dtype=EmbDtype.INT8, scale=1.0 / 64.0)
        decoded = decode_vectors(encode_vectors(values, spec), spec)
        clipped = np.clip(values, -128 * spec.scale, 127 * spec.scale)
        assert np.all(np.abs(decoded - clipped) <= spec.scale / 2 + 1e-7)

    @given(vec=finite_vecs)
    @settings(max_examples=60)
    def test_quantization_idempotent(self, vec):
        """decode(encode(x)) is a fixed point of the roundtrip."""
        values = np.array([vec], dtype=np.float32)
        for dtype in EmbDtype:
            spec = QuantSpec(dtype=dtype)
            once = decode_vectors(encode_vectors(values, spec), spec)
            twice = decode_vectors(encode_vectors(once, spec), spec)
            assert np.array_equal(once, twice)

    def test_fp16_precision(self):
        spec = QuantSpec(dtype=EmbDtype.FP16)
        values = np.array([[0.1, -0.25, 1.0, 3.14]], dtype=np.float32)
        decoded = decode_vectors(encode_vectors(values, spec), spec)
        assert np.allclose(decoded, values, atol=2e-3)
