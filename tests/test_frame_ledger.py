"""Host cost per request, per layer, held to its pinned count.

``tools/frame_ledger.py`` counts Python frames and numpy calls per layer
for the five benchmark workloads (their update drain apart), ``rm1`` on
``ssd`` and ``ndp`` and a garbage-collection page move;
``tools/ledger/FRAMES.json`` pins the counts per
interpreter.  A count that grows past its headroom fails here, naming the
row and the layer; one that falls asks for a re-pin, so that the pinned
file's diff is what a change did to host work.  Counts differ between
CPython versions and between numpy versions (a frame of numpy's Python
code counts for its caller's layer), so on an interpreter with no pinned
rows, or with another numpy than the rows were pinned on, the gate skips
and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import frame_ledger  # noqa: E402
from frame_ledger import count_rows, interpreter, moved, numpy_version, pinned  # noqa: E402

from repro.flash.store import FlashStore  # noqa: E402
from repro.ftl.mover import PageMove  # noqa: E402

PINS = pinned().get(interpreter())
if PINS is None:
    SKIP = (f"tools/ledger/FRAMES.json pins no rows for CPython {interpreter()} "
            f"(pinned: {', '.join(sorted(pinned())) or 'none'})")
elif PINS["numpy"] != numpy_version():
    SKIP = f"the CPython {interpreter()} rows were pinned on numpy {PINS['numpy']}, not {numpy_version()}"
else:
    SKIP = None


@pytest.fixture(scope="module")
def rows():
    return count_rows()


@pytest.mark.skipif(SKIP is not None, reason=str(SKIP))
class TestLedger:
    def test_every_row_holds_its_pinned_count(self, rows):
        assert not moved(PINS["rows"], rows)

    def test_an_extra_call_per_flash_page_read_is_named(self, monkeypatch):
        read = FlashStore.read
        monkeypatch.setattr(FlashStore, "read", lambda store, ppn: read(store, ppn))
        counted = frame_ledger.ROWS[0]()        # ssd_serve
        lines = moved({"ssd_serve": PINS["rows"]["ssd_serve"]}, counted, ("frames",))
        assert lines and all(line.startswith("ssd_serve: flash frames grew") for line in lines), lines

    def test_a_fall_asks_for_a_re_pin(self, rows):
        fewer = {name: {**row, "frames": {**row["frames"], "ftl": row["frames"].get("ftl", 0) - 50}}
                 for name, row in rows.items() if name == "ssd_serve"}
        (line,) = moved({"ssd_serve": rows["ssd_serve"]}, fewer, ("frames",))
        assert line.startswith("ssd_serve: ftl frames fell (re-pin with") and "--write" in line

    @pytest.mark.parametrize("stage", ["landed", "after_cpu", "after_program"])
    def test_an_extra_call_per_gc_page_move_stage_is_named(self, monkeypatch, stage):
        method = getattr(PageMove, stage)
        monkeypatch.setattr(PageMove, stage, lambda move, *args: method(move, *args))
        pin = {"gc/page_move": PINS["rows"]["gc/page_move"]}
        lines = moved(pin, frame_ledger.gc_move_rows(), ("frames",))
        assert lines and all(
            line.startswith("gc/page_move: ") and " frames grew" in line for line in lines
        ), lines
