"""Vector extraction from page content (virtual, raw bytes, None)."""

import numpy as np
import pytest

from repro.core.extract import extract_vectors, extract_vectors_many
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable, TablePageContent
from repro.host.system import build_system
from repro.quant import EmbDtype, QuantSpec, encode_vectors


class VirtualPage:
    def __init__(self, values):
        self.values = values

    def vectors(self, slots):
        return self.values[slots]


class TestExtract:
    def test_none_returns_zeros(self):
        out = extract_vectors(None, np.array([0, 1]), 4, 8, QuantSpec())
        assert out.shape == (2, 4)
        assert np.all(out == 0)

    def test_virtual_fast_path(self):
        values = np.arange(32, dtype=np.float32).reshape(8, 4)
        out = extract_vectors(VirtualPage(values), np.array([2, 5]), 4, 8, QuantSpec())
        assert np.array_equal(out, values[[2, 5]])

    def test_raw_bytes_fp32(self):
        quant = QuantSpec()
        values = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32)
        page = np.zeros(8 * 16 + 10, dtype=np.uint8)  # trailing slack ok
        page[: 8 * 16] = values.view(np.uint8).reshape(-1)
        out = extract_vectors(page, np.array([0, 7]), 4, 8, quant)
        assert np.allclose(out, values[[0, 7]])

    @pytest.mark.parametrize("dtype", [EmbDtype.FP16, EmbDtype.INT8])
    def test_raw_bytes_quantized(self, dtype):
        quant = QuantSpec(dtype=dtype)
        raw = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32) * 0.3
        stored = encode_vectors(raw, quant)
        row_bytes = quant.row_bytes(8)
        page = stored.view(np.uint8).reshape(4, row_bytes).reshape(-1)
        out = extract_vectors(page, np.array([1, 3]), 8, 4, quant)
        from repro.quant import decode_vectors

        expected = decode_vectors(stored, quant)[[1, 3]]
        assert np.allclose(out, expected)

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            extract_vectors(None, np.array([8]), 4, 8, QuantSpec())

    def test_bad_content_type(self):
        with pytest.raises(TypeError):
            extract_vectors(object(), np.array([0]), 4, 8, QuantSpec())

    def test_short_buffer_rejected(self):
        page = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            extract_vectors(page, np.array([0]), 4, 8, QuantSpec())


def packed_table(rows=4096, dim=16, heat=None, seed=3):
    system = build_system(min_capacity_pages=1 << 12)
    table = EmbeddingTable(
        TableSpec("many", rows=rows, dim=dim, layout=Layout.PACKED), seed=seed
    )
    if heat is not None:
        table.set_heat(heat)
    table.attach(system.device)
    return table


def per_page(contents, lpns, slots, dim, rpp, quant):
    """The definition: one extract_vectors call per row."""
    return np.concatenate(
        [
            extract_vectors(contents.get(int(lpn)), np.array([slot]), dim, rpp, quant)
            for lpn, slot in zip(lpns, slots)
        ]
    )


class TestExtractMany:
    @pytest.mark.parametrize("with_heat", [False, True])
    def test_virtual_pages_resolve_ranks_through_the_layout(self, with_heat):
        # Regression: ranks went to table.get_rows without external_ids, so
        # under a FrequencyLayout the batch returned other rows' vectors.
        rows = 4096
        heat = np.random.default_rng(0).random(rows) if with_heat else None
        table = packed_table(rows=rows, heat=heat)
        rpp = table.rows_per_page
        contents = {50: TablePageContent(table, 0), 51: TablePageContent(table, 1)}
        lpns = np.array([51, 50, 50, 51, 51])
        slots = np.array([0, 3, rpp - 1, 7, 7])
        args = (table.spec.dim, rpp, table.spec.quant)
        got = extract_vectors_many(contents, lpns, slots, *args)
        assert np.array_equal(got, per_page(contents, lpns, slots, *args))
        ranks = (lpns - 50) * rpp + slots
        assert np.array_equal(got, table.get_rows(table.external_ids(ranks)))

    def test_last_page_tail_is_zero(self):
        table = packed_table(rows=300)      # second page holds 44 of 256 slots
        rpp = table.rows_per_page
        assert rpp < 300 < 2 * rpp
        contents = {9: TablePageContent(table, 1), 8: TablePageContent(table, 0)}
        lpns = np.array([9, 9, 8, 9])
        slots = np.array([300 - rpp - 1, 300 - rpp, 5, rpp - 1])
        args = (table.spec.dim, rpp, table.spec.quant)
        got = extract_vectors_many(contents, lpns, slots, *args)
        assert np.array_equal(got, per_page(contents, lpns, slots, *args))
        assert np.any(got[0] != 0) and np.all(got[1] == 0) and np.all(got[3] == 0)

    def test_mixed_contents_match_per_page(self):
        # Two tables' virtual pages, a raw buffer, a generic virtual page,
        # a None page and a page missing from the mapping, interleaved.
        heat = np.random.default_rng(1).random(1024)
        table_a = packed_table(rows=1024, heat=heat, seed=1)
        table_b = packed_table(rows=1024, seed=2)
        rpp, dim, quant = table_a.rows_per_page, 16, table_a.spec.quant
        generic = VirtualPage(
            np.random.default_rng(2).standard_normal((rpp, dim)).astype(np.float32)
        )
        contents = {
            1: TablePageContent(table_a, 2),
            2: TablePageContent(table_b, 0),
            3: TablePageContent(table_a, 1).materialize(),
            4: generic,
            5: None,
        }
        rng = np.random.default_rng(3)
        lpns = rng.integers(1, 7, size=64)          # 6 is not in the mapping
        slots = rng.integers(0, rpp, size=64)
        got = extract_vectors_many(contents, lpns, slots, dim, rpp, quant)
        assert np.array_equal(got, per_page(contents, lpns, slots, dim, rpp, quant))
        assert np.all(got[lpns >= 5] == 0) and np.any(got[lpns == 3] != 0)

    def test_empty_and_slot_out_of_range(self):
        table = packed_table(rows=512)
        contents = {0: TablePageContent(table, 0)}
        args = (table.spec.dim, table.rows_per_page, table.spec.quant)
        empty = np.zeros(0, dtype=np.int64)
        assert extract_vectors_many(contents, empty, empty, *args).shape == (0, 16)
        for bad in (-1, table.rows_per_page):
            with pytest.raises(IndexError):
                extract_vectors_many(contents, np.array([0]), np.array([bad]), *args)

    def test_wrong_vector_shape_rejected(self):
        table = packed_table(rows=512, dim=16)
        rpp = table.rows_per_page
        lpns, slots = np.array([0, 0]), np.array([1, 2])
        for contents in (
            {0: TablePageContent(table, 0)},                          # one-table route
            {0: TablePageContent(table, 0), 1: None},
            {0: VirtualPage(np.zeros((rpp, 16), dtype=np.float32))},  # generic route
        ):
            with pytest.raises(ValueError, match="wrong vector shape"):
                extract_vectors_many(contents, lpns, slots, 8, rpp, table.spec.quant)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="page buffer too small"):
            extract_vectors_many(
                {0: np.zeros(10, dtype=np.uint8)},
                np.array([0]), np.array([0]), 4, 8, QuantSpec(),
            )
