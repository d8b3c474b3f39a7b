"""Experiment scaffolding: results, text tables, locality samplers, and
the paper figures' runs as scenario specs, with their statistics."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..host.system import build_system
from ..models.base import IndexSampler, RecModel
from ..models.runner import RunnerConfig, required_capacity_pages
from ..sim.stats import Accumulator
from ..traces.locality import LocalityTraceGenerator
from ..workload.arrivals import ArrivalTrace
from ..workload.scenario import ScenarioSpec, TenantSpec, run, setup

__all__ = [
    "ExperimentResult",
    "render_table",
    "format_cell",
    "locality_samplers",
    "speedup",
    "assert_policy_equivalence",
    "figure_spec",
    "figure_run",
    "steady_interval",
    "stage_means",
    "hit_rate",
]


def figure_spec(model: str, batches, backend: RunnerConfig, pipelined: bool = True) -> ScenarioSpec:
    """A paper-figure run (Figs 6, 9, 10, 11) as a scenario: one tenant
    whose recorded ``batches`` are one request each, one batch in flight
    and every batch admitted.  Pipelined (Section 4.2) hands every batch
    over at the start, so batch ``i+1``'s embeddings overlap batch
    ``i``'s dense stage; serial is one closed-loop client, no think time."""
    if pipelined:
        arrivals = dict(arrival="replay", trace=ArrivalTrace(model, np.zeros(len(batches))))
    else:
        arrivals = dict(arrival="closed", num_clients=1, requests_per_client=len(batches))
    return ScenarioSpec(
        name=model,
        tenants=(TenantSpec(model, backend=backend, requests=tuple(batches), **arrivals),),
        backend=backend.kind.value,
        max_inflight_requests=sys.maxsize,
        max_batch_requests=1,
        max_inflight_batches_per_worker=1,
        compute_outputs=True,
    )


def figure_run(spec: ScenarioSpec, model: RecModel, ndp=None, partition_profiles=None):
    """``run(setup(spec))`` on the figures' host (one SSD sized for
    ``model``, a 16K-page cache, the ``ndp`` engine config): the server
    and the requests its tenant submitted, in order."""
    system = build_system(required_capacity_pages(model), page_cache_pages=16 * 1024, ndp=ndp)
    built = setup(spec, [model], system=system, partition_profiles=partition_profiles)
    run(built)
    return built.front, built.generators[0].submitted


def steady_interval(requests, warmup_batches: int = 1) -> float:
    """Mean inter-completion interval after ``warmup_batches`` (with one
    request left, its finish time over the request count)."""
    steady = requests[min(warmup_batches, len(requests) - 1) :]
    if len(steady) < 2:
        return (steady[-1].t_done - requests[0].t_arrival) / len(requests)
    return (steady[-1].t_done - steady[0].t_done) / (len(steady) - 1)


def stage_means(server, requests) -> Tuple[float, float]:
    """Mean embedding-stage latency and dense service time after the
    first request (with one request, of that one)."""
    emb, dense = Accumulator(), Accumulator()
    service_s = server.hostpool.service_model.service_s
    for request in requests[min(1, len(requests) - 1) :]:
        emb.add(request.t_emb_done - request.t_dispatch)
        dense.add(service_s(server.models[request.model], request.batch.batch_size))
    return emb.mean, dense.mean


def hit_rate(caches) -> float:
    """Pooled hit rate of ``caches``, ``None`` skipped: every backend's
    ``host_cache`` or ``partition``, or a device's ``ndp.emb_cache``."""
    caches = [cache for cache in caches if cache is not None]
    hits = sum(cache.hits for cache in caches)
    total = sum(cache.hits + cache.misses for cache in caches)
    return hits / total if total else 0.0


def assert_policy_equivalence(
    make_model: Callable[[], RecModel],
    make_server: Callable[[RecModel, str], object],
    policy_names: Sequence[str],
    batch_size: int = 4,
    seed: int = 17,
    rtol: float = 1e-4,
    atol: float = 1e-5,
) -> None:
    """Push one fixed batch through every sharding policy; pooled sums
    must agree (up to float32 accumulation order).

    Shared by ``experiments/ext_multi_ssd.py`` and
    ``benchmarks/bench_sharding.py`` so the equivalence contract (batch
    shape, tolerance) lives in one place.  ``make_server(model, name)``
    builds a fresh :class:`~repro.serving.InferenceServer` with ``model``
    registered under the named policy.
    """
    rng = np.random.default_rng(seed)
    batch = make_model().sample_batch(rng, batch_size)
    reference = None
    for policy_name in policy_names:
        model = make_model()
        server = make_server(model, policy_name)
        request = server.submit(model.name, batch)
        server.run_until_settled()
        if reference is None:
            reference = request.values
            continue
        for name in reference:
            if not np.allclose(
                request.values[name], reference[name], rtol=rtol, atol=atol
            ):
                raise AssertionError(
                    f"{policy_name} sharding changed pooled results for {name}"
                )


@dataclass
class ExperimentResult:
    experiment: str
    title: str
    rows: List[Dict[str, object]]
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        header = f"== {self.experiment}: {self.title} =="
        body = render_table(self.rows)
        notes = "".join(f"\nnote: {n}" for n in self.notes)
        return f"{header}\n{body}{notes}"


def format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]]) -> str:
    """Plain-text aligned table over the union of row keys."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[format_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row_cells in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    return "\n".join(lines)


def locality_samplers(
    model: RecModel,
    k: float,
    seed: int = 0,
    universe: Optional[int] = 8192,
) -> tuple[Dict[str, IndexSampler], Dict[str, LocalityTraceGenerator]]:
    """Per-table locality-trace samplers for a model (Fig 10 inputs)."""
    generators: Dict[str, LocalityTraceGenerator] = {}
    samplers: Dict[str, IndexSampler] = {}
    for i, feature in enumerate(model.features):
        gen = LocalityTraceGenerator(
            table_rows=feature.spec.rows,
            k=k,
            seed=seed + 31 * i,
            universe=min(universe, feature.spec.rows) if universe else None,
        )
        generators[feature.name] = gen
        samplers[feature.name] = gen.generate
    return samplers, generators


def speedup(baseline_s: float, candidate_s: float) -> float:
    if candidate_s <= 0:
        return float("inf")
    return baseline_s / candidate_s
