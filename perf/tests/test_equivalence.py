"""The benchmark times the program users run, not a look-alike.

``perf.workloads.setup`` + ``run`` compose the public pieces one by one so
set-up and run can be timed apart; ``run_scenario`` /
``run_cluster_scenario`` compose the same pieces in one call.  On the same
spec both must produce the same ``stats.summary()`` and the same sorted
latencies.  The two knobs a spec cannot express (the SSD baseline's host
LRU and ``age_device``) are plain fields of the workload; they are switched
off here for the comparison and are one visible call each in ``setup``.
"""

import dataclasses

import pytest

from repro.cluster import run_cluster_scenario
from repro.workload import run_scenario

from perf.workloads import WORKLOADS, bench_model, observe, run, setup

SEED = 5
SCALE = 0.05


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_composed_path_equals_scenario_runner(workload):
    workload = dataclasses.replace(workload, host_cache_entries=0, aged=False)
    built = setup(workload, SEED, SCALE)
    run(built)
    seen = observe(built)

    model = bench_model(workload.table_rows)
    if workload.n_hosts > 1:
        result = run_cluster_scenario(workload.cluster(SEED, SCALE), [model])
        latencies = result.stats.latencies()
    else:
        result = run_scenario(workload.scenario(SEED, SCALE), [model])
        latencies = result.stats.latencies
    assert seen.summary == result.summary
    assert seen.latencies_s == sorted(latencies)
    assert seen.completed == workload.requests(SCALE)
    if workload.update_rate:
        assert seen.update_pages_written == result.updates["update_pages_written"] > 0
