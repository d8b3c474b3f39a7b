#!/usr/bin/env python3
"""End-to-end recommendation inference on SSD-resident embedding tables.

Runs an MLP-dominated model (WND) and an embedding-dominated model (RM3)
with tables in DRAM, on a conventional SSD, and on RecSSD — with operator
pipelining — and prints steady-state batch latency.  This is the scenario
of the paper's Figures 6 and 9: SSDs are free capacity for the MLP class,
and NDP is what makes them usable for the embedding-dominated class.

Each run is a scenario spec: one tenant replaying the same recorded
batches, one request per batch, through ``run(setup(spec))``.
"""

import numpy as np

from repro.experiments.common import figure_run, figure_spec, stage_means, steady_interval
from repro.models import BackendKind, RunnerConfig, build_model


def run_model(name: str, batch_size: int = 32, n_batches: int = 3) -> None:
    rng = np.random.default_rng(7)
    batches = [build_model(name).sample_batch(rng, batch_size) for _ in range(n_batches)]
    print(f"\n=== {name} (batch {batch_size}) ===")
    reference = None
    for kind in (BackendKind.DRAM, BackendKind.SSD, BackendKind.NDP):
        spec = figure_spec(name, batches, RunnerConfig(kind=kind, prewarm_page_cache=True))
        server, requests = figure_run(spec, build_model(name))
        output = requests[-1].output
        if reference is None:
            reference = output
            ok = True
        else:
            ok = np.allclose(output, reference, rtol=1e-4, atol=1e-5)
        emb_s, dense_s = stage_means(server, requests)
        print(
            f"{kind.value:>5}: steady latency {steady_interval(requests) * 1e3:9.3f} ms "
            f"(emb {emb_s * 1e3:8.3f} ms, "
            f"dense {dense_s * 1e3:7.3f} ms)  outputs-match={ok}"
        )


def main() -> None:
    run_model("wnd")
    run_model("rm3")


if __name__ == "__main__":
    main()
