"""Benchmarks for the design-choice ablations and the multi-SSD extension."""

from repro.experiments import ablations, ext_multi_ssd
from repro.experiments.claims import check

from conftest import attach_rows, run_once


def test_ablation_translation_cost(benchmark):
    result = run_once(benchmark, ablations.run_translation_cost, fast=True)
    attach_rows(benchmark, result, ["value", "ndp_speedup"])
    check(result)


def test_ablation_channel_scaling(benchmark):
    result = run_once(benchmark, ablations.run_channel_scaling, fast=True)
    attach_rows(benchmark, result, ["value", "base_ms", "ndp_ms"])
    check(result)


def test_ablation_embcache_and_window(benchmark):
    def both():
        return (
            ablations.run_embcache_size(fast=True),
            ablations.run_inflight_window(fast=True),
        )

    cache_result, window_result = run_once(benchmark, both)
    benchmark.extra_info["embcache"] = [
        {"slots": r["value"], "hit_rate": r["hit_rate"]} for r in cache_result.rows
    ]
    benchmark.extra_info["window"] = [
        {"window": r["value"], "ndp_ms": r["ndp_ms"]} for r in window_result.rows
    ]
    check(cache_result)
    check(window_result)


def test_extension_multi_ssd_scaling(benchmark):
    result = run_once(benchmark, ext_multi_ssd.run, fast=True)
    attach_rows(benchmark, result, ["devices", "ndp_ms", "ndp_speedup"])
    check(result)
