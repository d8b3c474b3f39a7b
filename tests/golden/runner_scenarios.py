"""Fixed-seed paper-figure runs with fully recorded outcomes.

``runner_golden.json`` pins the one-shot runs the paper figures (Figs 6,
9, 10, 11) make — ``figure_spec`` through ``setup`` and ``run``: a tiny
DLRM over DRAM, SSD and NDP tables, pipelined and serial, with a host
LRU, an NDP static partition, the device embedding cache, a prewarmed
page cache on PACKED tables and a longer warm-up.  Each scenario records
the three latencies the figures read, the simulated clock and event
count at the end of the run, the three hit rates and a digest of the
model outputs — floats as ``float.hex``, so the replay compares bit for
bit.  It was recorded on a runner that drove its own two-stage pipeline,
before the figures' runs became server clients and then scenarios; the
event count alone moved since, by one event per submission the
generators schedule.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict

import numpy as np

from repro.core.engine import NdpEngineConfig
from repro.embedding.spec import Layout
from repro.experiments.common import (
    figure_run,
    figure_spec,
    hit_rate,
    stage_means,
    steady_interval,
)
from repro.models import BackendKind, RunnerConfig
from repro.models.dlrm import DlrmConfig, DlrmModel

__all__ = ["SCENARIOS"]


def tiny_model(packed: bool = False) -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="tiny",
            dense_in=8,
            bottom_mlp=(16,),
            top_mlp=(16,),
            num_tables=2,
            table_rows=4096 if packed else 256,
            dim=8,
            lookups=8 if packed else 4,
            layout=Layout.PACKED if packed else Layout.ONE_PER_PAGE,
        ),
        seed=3,
    )


def _caches(server, kind: str):
    return (getattr(backend, kind, None) for backend in server.backends())


def _record(server, requests, warmup_batches: int) -> Dict[str, Any]:
    outputs = [r.output for r in requests if r.output is not None]
    digest = hashlib.sha256()
    for output in outputs:
        digest.update(np.ascontiguousarray(output).tobytes())
    # The stage means drop one warm-up request of what they are given.
    emb_s, dense_s = stage_means(server, requests[warmup_batches - 1 :])
    sim = server.sim
    return {
        "steady_latency": steady_interval(requests, warmup_batches).hex(),
        "mean_emb_latency": emb_s.hex(),
        "mean_dense_latency": dense_s.hex(),
        "sim_now": sim.now.hex(),
        "sim_events": sim.event_count,
        "host_cache_hit_rate": float(hit_rate(_caches(server, "host_cache"))).hex(),
        "partition_hit_rate": float(hit_rate(_caches(server, "partition"))).hex(),
        "ssd_emb_cache_hit_rate": float(hit_rate([server.system.device.ndp.emb_cache])).hex(),
        "outputs": len(outputs),
        "outputs_sha256": digest.hexdigest(),
    }


def _run(
    config: RunnerConfig,
    pipelined: bool = True,
    warmup_batches: int = 1,
    compute_outputs: bool = True,
    n_batches: int = 4,
    batch_size: int = 8,
    packed: bool = False,
    partition: bool = False,
    embcache_slots: int = 0,
) -> Callable[[], Dict[str, Any]]:
    def scenario() -> Dict[str, Any]:
        rng = np.random.default_rng(11)
        batches = [
            tiny_model(packed).sample_batch(rng, batch_size) for _ in range(n_batches)
        ]
        model = tiny_model(packed)
        profiles = None
        if partition:
            profiles = {
                f.name: [rng.integers(0, f.spec.rows, size=256)] for f in model.features
            }
        spec = figure_spec(model.name, batches, config, pipelined)
        server, requests = figure_run(
            dataclasses.replace(spec, compute_outputs=compute_outputs),
            model,
            ndp=NdpEngineConfig(embcache_slots=embcache_slots) if embcache_slots else None,
            partition_profiles=profiles,
        )
        return _record(server, requests, warmup_batches)

    return scenario


DRAM, SSD, NDP = BackendKind.DRAM, BackendKind.SSD, BackendKind.NDP

SCENARIOS = {
    "dram_pipelined": _run(RunnerConfig(DRAM)),
    "dram_serial": _run(RunnerConfig(DRAM), pipelined=False),
    # More batches than the default admission limit (64,
    # ServingConfig.max_inflight_requests), all handed over at once.
    "dram_pipelined_100_batches": _run(RunnerConfig(DRAM), n_batches=100, batch_size=2),
    "ssd_pipelined": _run(RunnerConfig(SSD)),
    "ssd_pipelined_host_lru_warmup2": _run(
        RunnerConfig(SSD, host_cache_entries=64), warmup_batches=2, n_batches=5
    ),
    "ssd_serial_host_lru": _run(RunnerConfig(SSD, host_cache_entries=64), pipelined=False),
    "ssd_pipelined_prewarm_packed": _run(
        RunnerConfig(SSD, prewarm_page_cache=True), packed=True
    ),
    "ssd_serial_prewarm_packed": _run(
        RunnerConfig(SSD, prewarm_page_cache=True), pipelined=False, packed=True
    ),
    "ssd_serial_no_outputs": _run(RunnerConfig(SSD), pipelined=False, compute_outputs=False),
    "ndp_pipelined": _run(RunnerConfig(NDP)),
    "ndp_serial": _run(RunnerConfig(NDP), pipelined=False),
    "ndp_pipelined_partition": _run(
        RunnerConfig(NDP, partition_entries=32), partition=True
    ),
    "ndp_serial_partition_embcache": _run(
        RunnerConfig(NDP, partition_entries=32),
        pipelined=False,
        partition=True,
        embcache_slots=256,
    ),
    "ndp_serial_embcache": _run(RunnerConfig(NDP), pipelined=False, embcache_slots=256),
    "ndp_pipelined_embcache_warmup2": _run(
        RunnerConfig(NDP), warmup_batches=2, n_batches=5, embcache_slots=256
    ),
    "ndp_serial_prewarm_packed": _run(
        RunnerConfig(NDP, prewarm_page_cache=True), pipelined=False, packed=True
    ),
    # One batch: the steady latency falls back to finish time over count.
    "ndp_one_batch": _run(RunnerConfig(NDP), n_batches=1),
}
