"""Figure 9: naive NDP speedup over baseline SSD across full models.

No pipelining, no host/SSD caching, random input indices: embedding-
dominated models gain up to several-x from NDP alone, MLP-dominated
models see no observable change.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..models import BackendKind, RunnerConfig, build_model
from ..models.zoo import MODEL_NAMES
from ..serving.runner import ModelRunner
from .common import ExperimentResult, speedup

__all__ = ["run"]


def run(
    fast: bool = True,
    seed: int = 0,
    batch_size: int = 64,
    models: Sequence[str] = MODEL_NAMES,
) -> ExperimentResult:
    if fast:
        models = [m for m in models if m != "rm2"]
    n_batches = 2 if fast else 3
    rng = np.random.default_rng(seed)
    rows = []
    for name in models:
        batches = [build_model(name, seed=seed).sample_batch(rng, batch_size)
                   for _ in range(n_batches)]
        base = ModelRunner(
            build_model(name, seed=seed),
            RunnerConfig(
                kind=BackendKind.SSD, pipelined=False, prewarm_page_cache=True
            ),
        ).run_batches(batches)
        ndp = ModelRunner(
            build_model(name, seed=seed),
            RunnerConfig(
                kind=BackendKind.NDP, pipelined=False, prewarm_page_cache=True
            ),
        ).run_batches(batches)
        if not np.allclose(base.outputs[-1], ndp.outputs[-1], rtol=1e-4, atol=1e-5):
            raise AssertionError(f"fig9: {name} NDP outputs diverge from baseline")
        rows.append(
            {
                "model": name,
                "base_ms": base.steady_latency * 1e3,
                "ndp_ms": ndp.steady_latency * 1e3,
                "ndp_speedup": speedup(base.steady_latency, ndp.steady_latency),
            }
        )
    return ExperimentResult(
        experiment="fig9",
        title=f"Naive NDP speedup over baseline SSD (batch {batch_size}, serial)",
        rows=rows,
        notes=["no pipelining or caching; random indices"],
    )
