"""Layer attribution on a hand-built profile table, and on a real one."""

import pytest

from repro.sim.kernel import Simulator

from perf import layers
from perf.layers import LAYERS, Tracer, attribute, layer_of

REPRO = str(layers._REPRO_ROOT)
PERF = str(layers._PERF_ROOT)

HARNESS = (f"{PERF}/run.py", 1, "repetition")
SIM = (f"{REPRO}/sim/kernel.py", 5, "run_until")
FLASH = (f"{REPRO}/flash/array.py", 10, "read_many")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
NP_SUM = ("/usr/lib/python3/site-packages/numpy/_core/fromnumeric.py", 1, "sum")
NP_REDUCE = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")

# func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)}), as cProfile builds it.
STATS = {
    HARNESS: (1, 1, 0.5, 9.0, {}),
    SIM: (1, 1, 2.0, 8.5, {HARNESS: (1, 1, 2.0, 8.5)}),
    FLASH: (100, 100, 3.0, 6.0, {SIM: (100, 100, 3.0, 6.0)}),
    HEAPPUSH: (300, 300, 1.5, 1.5, {SIM: (100, 100, 0.5, 0.5), FLASH: (200, 200, 1.0, 1.0)}),
    NP_SUM: (50, 50, 1.0, 2.0, {FLASH: (50, 50, 1.0, 2.0)}),
    NP_REDUCE: (50, 50, 1.0, 1.0, {NP_SUM: (50, 50, 1.0, 1.0)}),
}


def test_layer_of_maps_files_to_layers():
    assert layer_of(f"{REPRO}/ftl/gc.py") == "ftl"
    assert layer_of(f"{REPRO}/embedding/backends/ssd.py") == "embedding"
    assert layer_of(f"{REPRO}/ssd/device.py") == "host"       # folded
    assert layer_of(f"{REPRO}/obs/tracer.py") == "harness"    # idle package
    assert layer_of(f"{PERF}/workloads.py") == "harness"
    assert layer_of("~") is None
    assert layer_of(NP_SUM[0]) is None


def test_c_and_numpy_time_is_charged_to_the_calling_layer():
    table = attribute(STATS)
    # sim: its own 2.0 plus the heappush time spent on its behalf.
    assert table["sim"]["self_s"] == pytest.approx(2.0 + 0.5)
    # flash: its own 3.0, its heappush share, numpy.sum, and the ufunc
    # reduce reached through numpy.sum.
    assert table["flash"]["self_s"] == pytest.approx(3.0 + 1.0 + 1.0 + 1.0)
    assert table["harness"]["self_s"] == pytest.approx(0.5)
    total = sum(entry[2] for entry in STATS.values())
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(total)


def test_calls_in_counts_boundary_crossings_only():
    table = attribute(STATS)
    assert table["sim"]["calls_in"] == 1          # harness -> sim
    assert table["flash"]["calls_in"] == 100      # sim -> flash
    assert table["harness"]["calls_in"] == 0
    assert set(table) == set(LAYERS)


def test_uncalled_outside_function_lands_in_harness():
    orphan = {HEAPPUSH: (3, 3, 0.25, 0.25, {})}
    assert attribute(orphan)["harness"]["self_s"] == pytest.approx(0.25)


def test_setup_and_run_profiles_each_sum_to_their_total():
    tracer = Tracer("unit")
    sim = Simulator()

    def plant():
        for i in range(200):
            sim.schedule(i * 1e-6, lambda: None)

    with tracer.span("setup"):
        with tracer.span("plant", "setup"):
            plant()
    with tracer.span("run"):
        with tracer.span("drain", "run"):
            sim.run()
    with tracer.span("unprofiled"):
        sum(range(1000))
    tables = tracer.layer_tables()
    for phase in ("setup", "run"):
        profiled = sum(entry[2] for entry in tracer.profiles[phase].stats.values())
        assert profiled > 0
        assert sum(row["self_s"] for row in tables[phase].values()) == pytest.approx(profiled)
        assert tables[phase]["sim"]["self_s"] > 0
    # schedule() called from this file, which counts as the harness.  (The
    # frame that was already running when the hook came on has no edges.)
    assert tables["setup"]["sim"]["calls_in"] == 200
    spans = {span["name"]: span for span in tracer.spans}
    assert spans["plant"]["parent"] == spans["setup"]["id"]
    assert spans["drain"]["phase"] == "run" and spans["unprofiled"]["phase"] is None
    assert all(span["end"] >= span["start"] for span in tracer.spans)
    assert tracer.seconds("run") == pytest.approx(spans["drain"]["end"] - spans["drain"]["start"])
