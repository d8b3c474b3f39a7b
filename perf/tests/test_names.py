"""One set of names: BENCHMARK.json, the printed result, perf/README.md."""

import json
import re
import subprocess
import sys

import pytest

from perf.layers import LAYERS
from perf.spec import BENCHMARK, END_TO_END, PER_LAYER, ROOT
from perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]] + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert len(END_TO_END) == len(BENCHMARK["end_to_end"])
    assert len(PER_LAYER) == len(BENCHMARK["per_layer"])
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert END_TO_END["setup_s"]["unit"] == "s" and END_TO_END["setup_s"]["better"] == "lower"


def test_workloads_match_benchmark_json():
    assert [(w.name, w.why) for w in WORKLOADS] == [
        (w["name"], w["why"]) for w in BENCHMARK["workloads"]
    ]
    for workload in WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
        # p99 needs ten samples beyond it.
        assert workload.n_requests >= 1000


def test_every_layer_has_its_three_host_time_metrics():
    for layer in LAYERS:
        for suffix in ("run_self_s", "setup_self_s", "calls_in"):
            assert f"{layer}.{suffix}" in PER_LAYER


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_result_has_exactly_the_listed_metrics(trace, expected):
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "dram_serve", "--quick",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    # The human-readable part names every metric too.
    for name in expected:
        assert re.search(rf"^\s+{re.escape(name)}\s", done.stdout, re.M), name


def _readme_table(marker: str):
    """Backticked names in the table that follows ``<!-- marker -->``."""
    text = (ROOT / "perf" / "README.md").read_text()
    block = text.split(f"<!-- {marker} -->", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    return re.findall(r"`([^`]+)`", block)


def test_readme_lists_the_same_names():
    assert _readme_table("workloads") == [w.name for w in WORKLOADS]
    # The report's two possibly-zero fractions are tabled with the
    # end-to-end metrics they belong to.
    e2e = _readme_table("end_to_end")
    assert e2e == list(END_TO_END) + ["sim_slo_miss_frac", "failed_frac"]
    per_layer = _readme_table("per_layer_host") + _readme_table("per_layer_sim")
    assert sorted(per_layer + e2e[-2:]) == sorted(PER_LAYER)
