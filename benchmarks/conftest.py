"""Benchmark harness helpers.

Each paper table/figure has one benchmark that runs its experiment in
fast mode, attaches the headline metrics to ``benchmark.extra_info`` and
asserts every paper claim on it with ``repro.experiments.claims.check``
(a benchmark whose shape is wrong is worse than a slow one).

Wall-clock claims are not made here: ``perf/`` (``python3 -m perf.run``,
``BENCHMARK.json``) records absolute ``host_req_per_s`` per commit, and
``python3 -m perf.run --workload ssd_serve --trace 1`` gives the
per-layer profile a perf PR starts from.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """pedantic single-shot run for multi-second experiment benches."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def attach_rows(benchmark, result, keys):
    """Store selected row fields in extra_info for the report."""
    benchmark.extra_info["experiment"] = result.experiment
    compact = []
    for row in result.rows:
        compact.append({k: row[k] for k in keys if k in row})
    benchmark.extra_info["rows"] = compact
