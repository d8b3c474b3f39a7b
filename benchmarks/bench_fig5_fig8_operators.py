"""Benchmarks regenerating Figure 5 (DRAM vs SSD SLS) and Figure 8
(SEQ/STR microbenchmark with the NDP FTL breakdown)."""

from repro.experiments import fig5_sls, fig8_breakdown
from repro.experiments.claims import check

from conftest import attach_rows, run_once


def test_fig5_sls_dram_vs_ssd(benchmark):
    result = run_once(benchmark, fig5_sls.run, fast=True, table_rows=1 << 19)
    attach_rows(benchmark, result, ["batch", "dram_ms", "ssd_ms", "slowdown"])
    check(result)


def test_fig8_seq_str_breakdown(benchmark):
    result = run_once(benchmark, fig8_breakdown.run, fast=True)
    attach_rows(
        benchmark,
        result,
        ["pattern", "batch", "ndp_speedup", "translation_ms", "flash_read_ms"],
    )
    check(result)
