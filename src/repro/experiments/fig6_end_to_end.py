"""Figure 6: end-to-end model latency with tables in DRAM vs SSD.

With operator pipelining (embedding prefetch overlapped with dense
compute), the MLP-dominated models — WND, MTWND, DIN, DIEN, NCF — run on
SSD-resident tables at ~DRAM latency (paper: 1.01-1.09x), while the
embedding-dominated DLRM-RMC models degrade by orders of magnitude.
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
    n_batches = 3 if fast else 5
    rng = np.random.default_rng(seed)
    rows = []
    for name in models:
        batches = [build_model(name, seed=seed).sample_batch(rng, batch_size)
                   for _ in range(n_batches)]
        dram = ModelRunner(
            build_model(name, seed=seed), RunnerConfig(kind=BackendKind.DRAM)
        ).run_batches(batches)
        ssd = ModelRunner(
            build_model(name, seed=seed),
            RunnerConfig(kind=BackendKind.SSD, prewarm_page_cache=True),
        ).run_batches(batches)
        if not np.allclose(dram.outputs[-1], ssd.outputs[-1], rtol=1e-4, atol=1e-5):
            raise AssertionError(f"fig6: {name} SSD outputs diverge from DRAM")
        rows.append(
            {
                "model": name,
                "dram_ms": dram.steady_latency * 1e3,
                "ssd_ms": ssd.steady_latency * 1e3,
                "slowdown": speedup(ssd.steady_latency, dram.steady_latency),
                "ssd_emb_ms": ssd.mean_emb_latency * 1e3,
                "ssd_dense_ms": ssd.mean_dense_latency * 1e3,
            }
        )
    return ExperimentResult(
        experiment="fig6",
        title=f"End-to-end latency DRAM vs SSD (batch {batch_size}, pipelined)",
        rows=rows,
        notes=["slowdown = ssd / dram steady-state latency"],
    )


def main() -> None:  # pragma: no cover
    print(run(fast=True).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
