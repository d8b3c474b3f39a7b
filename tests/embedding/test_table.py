"""EmbeddingTable placement, addressing, reference SLS, page content."""

import numpy as np
import pytest

from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable, TablePageContent, TableRegion
from repro.quant import EmbDtype, QuantSpec, decode_vectors, encode_vectors

from ..conftest import make_table


class TestAttach:
    def test_base_lba_aligned(self, system):
        table = make_table(system, rows=128, dim=8)
        assert table.base_lba % system.device.codec.alignment == 0

    def test_two_tables_disjoint(self, system):
        t1 = make_table(system, rows=128, dim=8, name="a")
        t2 = make_table(system, rows=128, dim=8, name="b")
        assert t1.base_lba != t2.base_lba

    def test_double_attach_rejected(self, system):
        table = make_table(system, rows=64, dim=8)
        with pytest.raises(RuntimeError):
            table.attach(system.device)

    def test_unattached_properties_raise(self):
        table = EmbeddingTable(TableSpec("t", rows=8, dim=4))
        with pytest.raises(RuntimeError):
            _ = table.page_bytes
        with pytest.raises(RuntimeError):
            table.make_sls_config([np.array([0])])


class TestAddressing:
    def test_one_per_page_spans(self, system):
        table = make_table(system, rows=64, dim=8, layout=Layout.ONE_PER_PAGE)
        spans = table.lba_span_of_rows(np.array([0, 1]))
        lbas_per_page = system.device.ftl.lbas_per_page
        assert spans[0][0] == table.base_lba
        assert spans[1][0] == table.base_lba + lbas_per_page
        assert np.all(spans[:, 1] == 1)

    def test_packed_rows_share_lba(self, system):
        table = make_table(system, rows=512, dim=8, layout=Layout.PACKED)
        spans = table.lba_span_of_rows(np.array([0, 1]))
        assert spans[0][0] == spans[1][0]  # 32-byte rows pack into one LBA

    def test_row_location(self, system):
        table = make_table(system, rows=512, dim=8, layout=Layout.PACKED)
        rpp = table.rows_per_page
        assert table.row_location(0) == (0, 0)
        assert table.row_location(rpp + 3) == (1, 3)


class TestReference:
    def test_ref_sls_manual(self, system):
        table = make_table(system, rows=32, dim=4)
        bags = [np.array([1, 2]), np.array([], dtype=np.int64)]
        ref = table.ref_sls(bags)
        manual = table.get_rows(np.array([1])) + table.get_rows(np.array([2]))
        assert np.allclose(ref[0], manual[0], rtol=1e-6)
        assert np.all(ref[1] == 0)

    def test_quantized_ref_uses_canonical_values(self, system):
        table = make_table(
            system, rows=32, dim=4, quant=QuantSpec(dtype=EmbDtype.INT8), name="q"
        )
        rows = table.get_rows(np.array([3]))
        # Canonical values are on the quantization grid.
        assert np.allclose(rows * 64, np.round(rows * 64), atol=1e-5)


    @pytest.mark.parametrize("dtype", list(EmbDtype))
    def test_get_rows_is_the_quantization_round_trip(self, dtype):
        """FP32 skips the encode/decode round trip (the identity plus two
        copies); the values are the parent's expression all the same, in
        a fresh float32 array."""
        table = EmbeddingTable(
            TableSpec("t", 256, 8, quant=QuantSpec(dtype=dtype)), seed=2
        )
        ids = np.array([0, 7, 7, 255, 31])
        raw = table.data.get_rows(ids)
        want = decode_vectors(encode_vectors(raw, table.spec.quant), table.spec.quant)
        got = table.get_rows(ids)
        assert got.dtype == np.float32 and got.flags.writeable
        assert np.array_equal(got, want)
        got[:] = 7.0                              # the caller's to write into
        assert np.array_equal(table.get_rows(ids), want)


class TestPageContent:
    def test_vectors_match_materialize(self, system):
        table = make_table(system, rows=300, dim=8, layout=Layout.PACKED)
        page = TablePageContent(table, 0)
        slots = np.array([0, 3, 7])
        direct = page.vectors(slots)
        from repro.core.extract import extract_vectors

        buf = page.materialize()
        via_bytes = extract_vectors(
            buf, slots, table.spec.dim, table.rows_per_page, table.spec.quant
        )
        assert np.allclose(direct, via_bytes, rtol=1e-6)

    def test_last_page_padding_zero(self, system):
        table = make_table(system, rows=5, dim=8, layout=Layout.PACKED)
        last_page = TablePageContent(table, 0)
        out = last_page.vectors(np.array([5]))  # beyond table rows
        assert np.all(out == 0)

    def test_full_and_tail_pages_agree_with_get_rows(self, system):
        # Pages wholly inside the table skip the in-range mask; the last
        # page keeps it.  Both must return exactly get_rows' values.
        rows = 1300
        table = make_table(system, rows=rows, dim=8, layout=Layout.PACKED, name="t")
        rpp = table.rows_per_page
        last = (rows - 1) // rpp
        assert rows % rpp != 0 and last > 0, "need a partial last page"
        slots = np.arange(rpp)
        full = TablePageContent(table, last - 1).vectors(slots)
        assert full.dtype == np.float32
        assert np.array_equal(full, table.get_rows((last - 1) * rpp + slots))
        tail = TablePageContent(table, last).vectors(slots)
        live = rows - last * rpp
        assert np.array_equal(tail[:live], table.get_rows(last * rpp + slots[:live]))
        assert np.all(tail[live:] == 0)

    def test_region_bounds(self, system):
        table = make_table(system, rows=5, dim=8, layout=Layout.ONE_PER_PAGE, name="r")
        region = TableRegion(table)
        assert region.page_count == 5
        assert region.page_content(4) is not None
        assert region.page_content(5) is None
        assert region.page_content(-1) is None

    def test_flash_store_serves_table_pages(self, system):
        table = make_table(system, rows=16, dim=8, layout=Layout.ONE_PER_PAGE, name="s")
        ftl = system.device.ftl
        base_lpn = table.base_lba // ftl.lbas_per_page
        ppn = ftl.mapping.lookup(base_lpn + 3)
        content = ftl.flash.store.read(ppn)
        assert isinstance(content, TablePageContent)
        expected = table.get_rows(np.array([3]))
        assert np.allclose(content.vectors(np.array([0])), expected, rtol=1e-6)
