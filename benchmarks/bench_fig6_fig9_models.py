"""Benchmarks regenerating Figure 6 (DRAM vs SSD end-to-end) and Figure 9
(naive NDP speedup across the model zoo)."""

from repro.experiments import fig6_end_to_end, fig9_naive_ndp
from repro.experiments.claims import check

from conftest import attach_rows, run_once


def test_fig6_end_to_end_dram_vs_ssd(benchmark):
    result = run_once(benchmark, fig6_end_to_end.run, fast=True)
    attach_rows(benchmark, result, ["model", "dram_ms", "ssd_ms", "slowdown"])
    check(result)


def test_fig9_naive_ndp_speedup(benchmark):
    result = run_once(benchmark, fig9_naive_ndp.run, fast=True)
    attach_rows(benchmark, result, ["model", "base_ms", "ndp_ms", "ndp_speedup"])
    check(result)
