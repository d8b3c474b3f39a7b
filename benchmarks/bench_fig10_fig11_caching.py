"""Benchmarks regenerating Figure 10 (caching x locality) and Figure 11
(model-parameter sensitivity)."""

from repro.experiments import fig10_caching, fig11_sensitivity
from repro.experiments.claims import check

from conftest import attach_rows, run_once


def test_fig10_caching_locality_sweep(benchmark):
    result = run_once(benchmark, fig10_caching.run, fast=True)
    attach_rows(
        benchmark,
        result,
        ["model", "K", "batch", "speedup_cache", "speedup_part", "lru_hit"],
    )
    check(result)


def test_fig11a_feature_and_quantization(benchmark):
    result = run_once(benchmark, fig11_sensitivity.run_feature_quant, fast=True)
    attach_rows(benchmark, result, ["dim", "dtype", "row_bytes", "ndp_speedup"])
    check(result)


def test_fig11b_indices_and_tables(benchmark):
    result = run_once(benchmark, fig11_sensitivity.run_indices_tables, fast=True)
    attach_rows(benchmark, result, ["sweep", "value", "ndp_speedup"])
    check(result)
