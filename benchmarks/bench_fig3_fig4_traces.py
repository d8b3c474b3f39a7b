"""Benchmarks regenerating Figures 3 and 4 (trace characterization)."""

from repro.experiments import fig3_reuse, fig4_locality
from repro.experiments.claims import check

from conftest import attach_rows, run_once


def test_fig3_reuse_distribution(benchmark):
    result = run_once(benchmark, fig3_reuse.run, fast=True)
    attach_rows(benchmark, result, ["page_size", "pages_for_30pct", "pages_for_50pct"])
    check(result)


def test_fig4_cache_capacity_sweep(benchmark):
    result = run_once(benchmark, fig4_locality.run, fast=True)
    attach_rows(benchmark, result, ["table", "cache_mb", "hit_rate"])
    check(result)
