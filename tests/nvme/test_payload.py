"""Read payload assembly and page-content materialization."""

import numpy as np
import pytest

from repro.ftl.ftl import HostRead
from repro.nvme.commands import BlockRead
from repro.nvme.payload import page_content_to_bytes
from repro.sim import units


class VirtualPage:
    def __init__(self, data):
        self._data = data

    def materialize(self):
        return self._data


class TestPageContentToBytes:
    def test_none_is_zeros(self):
        out = page_content_to_bytes(None, 64)
        assert out.shape == (64,) and not out.any()

    def test_ndarray_passthrough(self):
        data = np.arange(64, dtype=np.uint8)
        assert np.array_equal(page_content_to_bytes(data, 64), data)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            page_content_to_bytes(np.zeros(10, dtype=np.uint8), 64)

    def test_virtual_materialize(self):
        data = np.full(64, 3, dtype=np.uint8)
        assert np.array_equal(page_content_to_bytes(VirtualPage(data), 64), data)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            page_content_to_bytes(42, 64)


class TestReadPayload:
    """A read's payload is its ``BlockRead``: the segments' bytes, in order."""

    @staticmethod
    def read_of(*segments, nbytes):
        read = BlockRead(0, 2)
        read.pages = []
        for lpn, content, offset, size in segments:
            page = HostRead(lpn, offset, size)
            page.content = content
            read.pages.append(page)
        read.nbytes = nbytes
        return read

    def test_concatenates_segments_in_order(self):
        page_a = np.arange(64, dtype=np.uint8)
        page_b = np.arange(64, 128, dtype=np.uint8)
        read = self.read_of((0, page_a, 32, 32), (1, page_b, 0, 16), nbytes=48)
        out = read.payload.to_bytes(64)
        assert np.array_equal(out[:32], page_a[32:])
        assert np.array_equal(out[32:], page_b[:16])

    def test_size_mismatch_detected(self):
        read = self.read_of((0, None, 0, 8), nbytes=9)
        with pytest.raises(AssertionError):
            read.payload.to_bytes(64)


class TestUnits:
    def test_time_conversions(self):
        assert units.us(1) == pytest.approx(1e-6)
        assert units.ms(2) == pytest.approx(2e-3)
        assert units.ns(5) == pytest.approx(5e-9)
        assert units.to_us(units.us(7)) == pytest.approx(7)
        assert units.to_ms(units.ms(7)) == pytest.approx(7)

    def test_bandwidths(self):
        assert units.MB_S(1) == 1e6
        assert units.GB_S(1) == 1e9
        assert units.seconds_per_byte(units.MB_S(1)) == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            units.seconds_per_byte(0)

    def test_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024**2
        assert units.GIB == 1024**3
