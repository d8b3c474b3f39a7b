"""Table 1 verification bench plus component microbenchmarks.

The microbenchmarks time the simulator's hot paths (DES events, one SLS
operation per backend, trace generation) with proper repetition — useful
for tracking the harness's own performance.
"""

import numpy as np

from repro.embedding.backends import DramSlsBackend, NdpSlsBackend, SsdSlsBackend
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.experiments import calibration, table1_params
from repro.experiments.claims import check
from repro.host.system import build_system
from repro.sim.kernel import Simulator
from repro.traces.locality import LocalityTraceGenerator

from conftest import attach_rows, run_once


def test_table1_benchmark_parameters(benchmark):
    result = run_once(benchmark, table1_params.run)
    attach_rows(benchmark, result, ["benchmark", "feature_size", "indices", "table_count"])
    assert all(r["model_verified"] for r in result.rows)


# ---------------------------------------------------------------------------
# Component microbenchmarks
# ---------------------------------------------------------------------------

def test_micro_des_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 20_000:
                sim.schedule(1e-6, tick)

        sim.schedule(1e-6, tick)
        sim.run()
        return state["n"]

    assert benchmark(run_events) == 20_000


def _sls_setup(rows=8192, dim=32):
    system = build_system(min_capacity_pages=rows + (1 << 15))
    table = EmbeddingTable(
        TableSpec("micro", rows=rows, dim=dim, layout=Layout.ONE_PER_PAGE), seed=0
    )
    table.attach(system.device)
    rng = np.random.default_rng(0)
    bags = [rng.integers(0, rows, size=40) for _ in range(8)]
    return system, table, bags


def test_micro_sls_op_dram(benchmark):
    system, table, bags = _sls_setup()
    backend = DramSlsBackend(system, table)
    result = benchmark(lambda: backend.run_sync(bags))
    assert result.values.shape == (8, 32)


def test_micro_sls_op_baseline_ssd(benchmark):
    system, table, bags = _sls_setup()
    backend = SsdSlsBackend(system, table)
    result = benchmark(lambda: backend.run_sync(bags))
    assert result.values.shape == (8, 32)


def test_micro_sls_op_ndp(benchmark):
    system, table, bags = _sls_setup()
    backend = NdpSlsBackend(system, table)
    result = benchmark(lambda: backend.run_sync(bags))
    assert result.values.shape == (8, 32)


def test_micro_locality_trace_generation(benchmark):
    def generate():
        gen = LocalityTraceGenerator(1 << 20, k=1, seed=0)
        return gen.generate(5000)

    trace = benchmark(generate)
    assert trace.size == 5000


def test_calibration_device_envelope(benchmark):
    result = run_once(benchmark, calibration.run, fast=True)
    attach_rows(benchmark, result, ["metric", "measured"])
    check(result)
