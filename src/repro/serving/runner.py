"""The paper figures' runs (Figs 6, 9, 10, 11): a list of batches through
an :class:`~repro.serving.server.InferenceServer` with one batch in flight.

Every batch is one request; nothing coalesces and one embedding stage is
in flight, so the server's one-worker dense pool is the serialized NN
timeline.  Pipelined (Section 4.2) hands every batch over at the start —
batch ``i+1``'s embeddings overlap batch ``i``'s dense stage; serial
submits each batch from the previous request's completion.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..host.system import System, build_system
from ..models.base import Batch, RecModel
from ..models.runner import RunnerConfig, required_capacity_pages
from ..sim.stats import Accumulator
from .server import InferenceServer, ServingConfig

__all__ = ["ModelRunResult", "ModelRunner"]


@dataclass
class ModelRunResult:
    steady_latency: float       # mean inter-completion interval after warm-up
    mean_emb_latency: float
    mean_dense_latency: float
    outputs: List[np.ndarray]


class ModelRunner:
    def __init__(
        self,
        model: RecModel,
        config: RunnerConfig,
        system: Optional[System] = None,
        partition_profiles: Optional[Dict[str, List[np.ndarray]]] = None,
        page_cache_pages: int = 16 * 1024,
        ndp_engine_config=None,
    ):
        self.model = model
        self.config = config
        if system is None:
            system = build_system(
                min_capacity_pages=required_capacity_pages(model),
                page_cache_pages=page_cache_pages,
                ndp=ndp_engine_config,
            )
        self.system = system
        self.server = InferenceServer(
            system,
            ServingConfig(
                max_inflight_requests=sys.maxsize,  # admit every batch handed over
                max_batch_requests=1,
                max_inflight_batches_per_worker=1,
                compute_outputs=config.compute_outputs,
            ),
        )
        self.server.register_model(
            model, config.kind, runner_config=config, partition_profiles=partition_profiles
        )

    # ------------------------------------------------------------------
    def run_batches(self, batches: Sequence[Batch]) -> ModelRunResult:
        if not batches:
            raise ValueError("need at least one batch")
        server, name = self.server, self.model.name
        t0 = server.sim.now
        if self.config.pipelined:
            requests = [server.submit(name, batch) for batch in batches]
        else:
            requests = []

            def submit_next(_previous=None) -> None:
                if len(requests) < len(batches):
                    batch = batches[len(requests)]
                    requests.append(server.submit(name, batch, on_done=submit_next))

            submit_next()
        server.run_until_settled()
        steady = requests[min(self.config.warmup_batches, len(requests) - 1) :]
        finish = [request.t_done - t0 for request in steady]
        if len(steady) < 2:
            steady_latency = finish[-1] / len(requests)
        else:
            steady_latency = (finish[-1] - finish[0]) / (len(steady) - 1)
        emb, dense = Accumulator(), Accumulator()
        service_s = server.hostpool.service_model.service_s
        for request in steady:
            emb.add(request.t_emb_done - request.t_dispatch)
            dense.add(service_s(self.model, request.batch.batch_size))
        return ModelRunResult(
            steady_latency=steady_latency,
            mean_emb_latency=emb.mean,
            mean_dense_latency=dense.mean,
            outputs=[r.output for r in requests if r.output is not None],
        )

    # ------------------------------------------------------------------
    def host_cache_hit_rate(self) -> float:
        return _hit_rate(getattr(b, "host_cache", None) for b in self.server.backends())

    def partition_hit_rate(self) -> float:
        return _hit_rate(getattr(b, "partition", None) for b in self.server.backends())

    def ssd_emb_cache_hit_rate(self) -> float:
        return _hit_rate([self.system.device.ndp.emb_cache])


def _hit_rate(caches) -> float:
    caches = [cache for cache in caches if cache is not None]
    hits = sum(cache.hits for cache in caches)
    total = sum(cache.hits + cache.misses for cache in caches)
    return hits / total if total else 0.0
