"""NVMe command model and the SLBA request-id codec."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nvme.commands import NvmeCommand, Opcode, SlbaCodec


class TestCommand:
    def test_unique_cids(self):
        a = NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1)
        b = NvmeCommand(opcode=Opcode.READ, slba=0, nlb=1)
        assert a.cid != b.cid

    def test_validation(self):
        with pytest.raises(ValueError):
            NvmeCommand(opcode=Opcode.READ, slba=-1, nlb=1)
        with pytest.raises(ValueError):
            NvmeCommand(opcode=Opcode.READ, slba=0, nlb=0)

    @pytest.mark.parametrize("field", ["slba", "nlb"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 1.0, True, np.bool_(True), "1", None])
    def test_a_non_integer_address_is_refused(self, field, value):
        # NaN passed the controller's range check (it compares false) and
        # died inside an event callback; True read LBA 1.
        args = {"slba": 0, "nlb": 1, field: value}
        with pytest.raises(TypeError, match=f"NvmeCommand.{field} must be an integer"):
            NvmeCommand(opcode=Opcode.READ, **args)

    def test_numpy_integers_are_read_as_ints(self):
        cmd = NvmeCommand(opcode=Opcode.READ, slba=np.int64(7), nlb=np.uint32(2))
        assert (cmd.slba, cmd.nlb) == (7, 2)
        assert type(cmd.slba) is int and type(cmd.nlb) is int

    def test_the_driver_refuses_a_nan_read_when_it_is_issued(self):
        from repro.driver.unvme import UnvmeDriver
        from repro.sim.kernel import Simulator
        from repro.ssd.presets import small_ssd

        sim = Simulator()
        driver = UnvmeDriver(sim, small_ssd(sim))
        with pytest.raises(TypeError, match="slba"):
            driver.read(float("nan"), 1, lambda cpl: None)
        with pytest.raises(TypeError, match="nlb"):
            driver.read(0, 2.5, lambda cpl: None)
        assert driver.commands_issued == 0 and not sim.pending_events

    def test_flush_allows_zero_nlb(self):
        NvmeCommand(opcode=Opcode.FLUSH, slba=0, nlb=0)

    def test_ndp_flag_default_off(self):
        cmd = NvmeCommand(opcode=Opcode.WRITE, slba=0, nlb=1)
        assert not cmd.ndp


class TestSlbaCodec:
    def test_roundtrip_basic(self):
        codec = SlbaCodec(1 << 14)
        slba = codec.encode(3 << 14, 77)
        assert codec.decode(slba) == (3 << 14, 77)

    def test_unaligned_base_rejected(self):
        codec = SlbaCodec(64)
        with pytest.raises(ValueError):
            codec.encode(65, 0)

    def test_request_id_out_of_range(self):
        codec = SlbaCodec(64)
        with pytest.raises(ValueError):
            codec.encode(64, 64)

    def test_tiny_alignment_rejected(self):
        with pytest.raises(ValueError, match=r"SlbaCodec\.alignment_lbas must be"):
            SlbaCodec(1)

    @given(
        base_multiple=st.integers(0, 1000),
        request_id=st.integers(0, 4095),
    )
    def test_roundtrip_property(self, base_multiple, request_id):
        codec = SlbaCodec(4096)
        base = base_multiple * 4096
        assert codec.decode(codec.encode(base, request_id)) == (base, request_id)
