"""``tools/perf_pairs.py``'s report, on canned runs: the row CHANGES.md
quotes is the parent's median [quartiles], the change's median, their
ratio and the change's wins on the side BENCHMARK.json calls better."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from perf_pairs import (  # noqa: E402
    end_to_end_bounds,
    end_to_end_metrics,
    format_table,
    frames_table,
    metric_row,
    quartiles,
    regressions,
    verdict,
    workloads_named,
)


def result(rate: float, setup: float, p50: float = 0.99, failed: int = 0) -> dict:
    return {
        "correct": True,
        "attempted": 3000,
        "failed": failed,
        "metrics": {
            "host_req_per_s": {"value": rate, "unit": "req/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "sim_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


PARENT = [1400.0, 1350.0, 1500.0, 1420.0, 1380.0]
CHANGE = [1560.0, 1500.0, 1490.0, 1600.0, 1550.0]


def test_quartiles_are_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_higher_is_better_row():
    row = metric_row("host_req_per_s", "higher", PARENT, CHANGE)
    assert row == "| host_req_per_s | 1,400 [1,380, 1,420] | 1,550 | 1.107x | 4/5 |"


def test_a_lower_is_better_row_counts_the_other_side():
    parent = [0.0340, 0.0335, 0.0350]
    change = [0.0330, 0.0340, 0.0345]
    assert metric_row("setup_s", "lower", parent, change) == (
        "| setup_s | 0.034 [0.03375, 0.0345] | 0.034 | 1.000x | 2/3 |"
    )


def test_rows_refuse_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="same non-zero number"):
        metric_row("setup_s", "lower", [1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="better must be"):
        metric_row("setup_s", "sideways", [1.0], [1.0])


def test_the_table_says_whether_simulated_numbers_moved():
    runs = [(result(p, 0.03), result(c, 0.03)) for p, c in zip(PARENT, CHANGE)]
    table = format_table("ndp_serve", 13, [("host_req_per_s", "higher"), ("setup_s", "lower")], runs)
    lines = table.splitlines()
    assert lines[0] == "ndp_serve, seed 13, 5 pairs (parent median [quartiles] -> change)"
    assert lines[4] == "| host_req_per_s | 1,400 [1,380, 1,420] | 1,550 | 1.107x | 4/5 |"
    assert lines[5] == "| setup_s | 0.03 [0.03, 0.03] | 0.03 | 1.000x | 0/5 |"
    assert lines[-1] == "sim_* identical in every run: yes; failed operations: 0; correct: yes"
    runs[2] = (runs[2][0], result(1490.0, 0.03, p50=1.01, failed=2))
    moved = format_table("ndp_serve", 13, [("host_req_per_s", "higher")], runs)
    assert moved.splitlines()[-1] == "sim_* identical in every run: NO; failed operations: 2; correct: yes"


def test_the_metrics_are_the_benchmarks_end_to_end_ones():
    metrics = dict(end_to_end_metrics())
    assert metrics["host_req_per_s"] == "higher" and metrics["setup_s"] == "lower"


BOUNDS = [("host_req_per_s", "higher", 0.25), ("setup_s", "lower", 0.25), ("sim_p50_ms", "lower", 0.2)]


def test_the_verdict_names_each_workload_metric_past_its_bound():
    steady = [(result(p, 0.03), result(c, 0.03)) for p, c in zip(PARENT, CHANGE)]
    # Medians: rate 1,400 -> 1,000 (-28.6 %, past 25 %); setup 0.030 ->
    # 0.0374 (+24.7 %, inside 25 %); p50 0.99 -> 1.2 (+21 %, past 20 %).
    slower = [
        (result(p, 0.03), result(c, 0.0374, p50=1.2))
        for p, c in zip(PARENT, [1000.0, 990.0, 1010.0, 1500.0, 950.0])
    ]
    runs = {"ndp_serve": steady, "ssd_serve": slower}
    assert regressions(runs, BOUNDS) == ["ssd_serve host_req_per_s", "ssd_serve sim_p50_ms"]
    assert verdict(regressions(runs, BOUNDS)) == (
        "worse than the parent beyond a BENCHMARK.json bound: "
        "ssd_serve host_req_per_s, ssd_serve sim_p50_ms"
    )
    assert verdict(regressions({"ndp_serve": steady}, BOUNDS)) == (
        "worse than the parent beyond a BENCHMARK.json bound: none"
    )


def test_the_verdict_judges_medians_not_single_pairs():
    # One change run far worse, the median well inside the bound.
    runs = {"dram_serve": [(result(1000.0, 0.03), result(c, 0.03)) for c in (10.0, 990.0, 1010.0)]}
    assert regressions(runs, BOUNDS) == []


def test_workloads_repeat_or_are_all():
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert workloads_named(["all"]) == [w["name"] for w in benchmark["workloads"]]
    assert workloads_named(["ssd_serve", "dram_serve", "ssd_serve"]) == ["ssd_serve", "dram_serve"]
    with pytest.raises(ValueError, match="unknown workload"):
        workloads_named(["ssd_srve"])


def test_the_bounds_are_the_benchmarks():
    bounds = {name: (better, bound) for name, better, bound in end_to_end_bounds()}
    assert bounds["host_req_per_s"] == ("higher", 0.25)
    assert [(n, b) for n, (b, _) in bounds.items()] == end_to_end_metrics()


def test_the_frames_table_is_frames_and_numpy_calls_per_request_parent_to_change():
    def side(frames, numpy_calls, requests):
        return {"frames": frames, "numpy_calls": numpy_calls, "requests": requests}

    counts = [
        ("aged_update_mix", side(2_500_000, 40_000, 100), side(2_250_000, 30_000, 100)),
        ("dram_serve", side(9_000, 0, 300), side(9_000, 0, 300)),
    ]
    lines = frames_table(13, counts).splitlines()
    assert lines[0] == (
        "Python frames and numpy calls per request, serving phase, seed 13, 1/10 scale, "
        "collector off (parent -> change)"
    )
    assert lines[2:4] == [
        "| workload | frames parent | frames change | ratio "
        "| numpy calls parent | numpy calls change | ratio |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    assert lines[4] == "| aged_update_mix | 25,000 | 22,500 | 0.900x | 400 | 300 | 0.750x |"
    # No numpy call on either side: no ratio to print.
    assert lines[5] == "| dram_serve | 30 | 30 | 1.000x | 0 | 0 | - |"
    # Nothing drained on either side: no drain table.
    assert len(lines) == 6


def test_the_update_drain_is_counted_apart_in_totals():
    """The drain after the last request is not serving work: its frames
    (perf's stop predicate runs once per drained event) stay out of the
    per-request row and get a totals row of their own."""
    def side(frames, numpy_calls, requests, drain_frames, drain_numpy_calls):
        return {
            "frames": frames, "numpy_calls": numpy_calls, "requests": requests,
            "drain_frames": drain_frames, "drain_numpy_calls": drain_numpy_calls,
        }

    counts = [
        ("aged_update_mix", side(250_000, 4_000, 100, 500_000, 9_000),
         side(240_000, 4_000, 100, 400_000, 9_000)),
        ("ndp_serve", side(90_000, 3_000, 100, 0, 0), side(80_000, 2_000, 100, 0, 0)),
    ]
    lines = frames_table(13, counts).splitlines()
    assert lines[4] == "| aged_update_mix | 2,500 | 2,400 | 0.960x | 40 | 40 | 1.000x |"
    assert lines[5] == "| ndp_serve | 900 | 800 | 0.889x | 30 | 20 | 0.667x |"
    assert lines[6:9] == ["", "Update drain after the last request, totals (parent -> change)", ""]
    assert lines[11:] == [
        "| aged_update_mix | 500,000 | 400,000 | 0.800x | 9,000 | 9,000 | 1.000x |"
    ]
