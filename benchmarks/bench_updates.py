"""Live-update interference benchmark: read p99 vs update rate, per policy.

Ages a device to GC steady state (``age_device``: logical space mostly
resident, free pool at the GC high watermark), then serves a fixed
open-loop read load over the SSD backend while an embedding update
stream rewrites rows at increasing batch rates.  Every update row is one
flash page write (ONE_PER_PAGE layout), so sustained updates keep the
garbage collector running and its page migrations steal die time from
foreground reads — the read-tail interference this subsystem exists to
measure.  Records the read latency distribution, GC activity and the
update engine's accounting per cell to ``BENCH_updates.json``.

Contract (asserted in both modes — the acceptance bar for the update
scheduling policy):

* read p99 **degrades monotonically** with the update rate under naive
  ``interleave`` scheduling on the aged device (GC interference is
  visible, not noise);
* the update-aware ``throttled`` policy (off-peak burst batching behind
  the read lanes) **recovers a measurable share of the lost p99** at the
  highest update rate;
* reads conserve (`submitted == completed + rejected + dropped`) and
  every enqueued update page write completes in every cell.

Run standalone (writes ``BENCH_updates.json``)::

    PYTHONPATH=src python benchmarks/bench_updates.py           # full
    PYTHONPATH=src python benchmarks/bench_updates.py --smoke   # CI

or through pytest-benchmark with the rest of the bench suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_updates.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.serving import age_device
from repro.sim.stats import summarize_latencies
from repro.workload import ScenarioSpec, TenantSpec, UpdateStreamSpec, run, setup

try:
    from conftest import run_once  # pytest-benchmark path (rootdir import)
except ImportError:  # standalone `python benchmarks/...` run
    run_once = None

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_updates.json"

SEED = 7
READ_RATE = 300.0           # requests/s: sub-saturation, so idle gaps exist
ROWS_PER_UPDATE = 32        # one flash page per row (ONE_PER_PAGE)
N_REQUESTS = 120            # fixed measurement window (~0.4 s simulated)
# Update batch rates swept under naive interleaving.  The contract is
# asserted on the CONTRACT_RATES cells (shared by both modes); full mode
# adds intermediate points to the record.  The window length is fixed —
# rewriting the same 8K table pages for much longer self-invalidates
# prior update pages and GC mixing becomes non-monotone in the rate,
# which is a (real) different regime than the serving-window tail this
# benchmark pins.
CONTRACT_RATES = (0.0, 150.0, 600.0)
FULL_EXTRA_RATES = (75.0, 300.0)
HIGH_RATE = CONTRACT_RATES[-1]


def _model() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="m",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=4096,
            dim=16,
            lookups=8,
        ),
        seed=1,
    )


def run_cell(
    update_rate: float, policy: str, n_requests: int
) -> Dict[str, float]:
    """One (update rate, policy) cell on a freshly built + aged device."""
    updates = None
    if update_rate > 0:
        duration = n_requests / READ_RATE
        updates = UpdateStreamSpec(
            rate=update_rate,
            n_updates=max(1, int(update_rate * duration)),
            rows_per_update=ROWS_PER_UPDATE,
            policy=policy,
        )
    spec = ScenarioSpec(
        name=f"updates-{policy}@{update_rate:.0f}",
        tenants=(
            TenantSpec(
                model="m",
                rate=READ_RATE,
                n_requests=n_requests,
                batch_size=2,
            ),
        ),
        backend="ssd",
        seed=SEED,
        updates=updates,
    )
    built = setup(spec, [_model()])
    system = built.front.system
    aging = age_device(system)
    result = run(built)
    stats = result.stats

    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    lat = summarize_latencies(stats.latencies)
    ftl = system.device.ftl
    row: Dict[str, float] = {
        "update_rate": update_rate,
        "policy": policy if update_rate > 0 else "none",
        "read_rate": READ_RATE,
        "completed": float(stats.completed),
        "p50_ms": lat["p50_ms"],
        "p95_ms": lat["p95_ms"],
        "p99_ms": lat["p99_ms"],
        "max_ms": lat["max_ms"],
        "gc_runs": float(ftl.gc.runs),
        "gc_pages_moved": float(ftl.gc.pages_moved),
        "host_page_writes": float(ftl.host_page_writes),
        "aged_min_free_blocks_per_die": aging["min_free_blocks_per_die"],
    }
    if updates is not None:
        summary = result.updates
        assert summary["update_writes_completed"] == summary["update_pages_written"]
        row.update(summary)
    return row


def run_all(smoke: bool) -> Dict[str, object]:
    rates = sorted(CONTRACT_RATES + (() if smoke else FULL_EXTRA_RATES))
    cells: List[Dict[str, float]] = []
    for rate in rates:
        cells.append(run_cell(rate, "interleave", N_REQUESTS))
    cells.append(run_cell(HIGH_RATE, "throttled", N_REQUESTS))
    by_key = {f"{c['policy']}@{c['update_rate']:.0f}": c for c in cells}
    baseline = by_key["none@0"]
    naive = by_key[f"interleave@{HIGH_RATE:.0f}"]
    throttled = by_key[f"throttled@{HIGH_RATE:.0f}"]
    return {
        "mode": "smoke" if smoke else "full",
        "read_rate": READ_RATE,
        "rows_per_update": ROWS_PER_UPDATE,
        "update_rates": rates,
        "contract_rates": list(CONTRACT_RATES),
        "n_requests": N_REQUESTS,
        "cells": cells,
        "p99_degradation_x": naive["p99_ms"] / max(baseline["p99_ms"], 1e-9),
        "p99_recovered_x": naive["p99_ms"] / max(throttled["p99_ms"], 1e-9),
    }


def check_contract(report: Dict[str, object]) -> None:
    cells = {f"{c['policy']}@{c['update_rate']:.0f}": c for c in report["cells"]}
    sweep = [cells[f"interleave@{r:.0f}"] for r in report["contract_rates"][1:]]
    baseline = cells["none@0"]
    naive = cells[f"interleave@{HIGH_RATE:.0f}"]
    throttled = cells[f"throttled@{HIGH_RATE:.0f}"]
    # GC interference is visible and monotone in the update rate.
    p99s = [baseline["p99_ms"]] + [c["p99_ms"] for c in sweep]
    assert all(a < b for a, b in zip(p99s, p99s[1:])), (
        f"read p99 must degrade monotonically with update rate: {p99s}"
    )
    assert naive["p99_ms"] > 1.5 * baseline["p99_ms"], (
        f"aged-device GC interference too weak to measure "
        f"({naive['p99_ms']:.2f}ms vs baseline {baseline['p99_ms']:.2f}ms)"
    )
    for cell in sweep:
        assert cell["gc_runs"] > 0, "updates never woke the GC — not aged?"
    # The update-aware policy buys back a measurable share of the tail.
    assert throttled["p99_ms"] < 0.8 * naive["p99_ms"], (
        f"throttled policy failed to recover read p99 "
        f"({throttled['p99_ms']:.2f}ms vs naive {naive['p99_ms']:.2f}ms)"
    )
    assert throttled["update_writes_completed"] == naive["update_writes_completed"]


def test_update_interference(benchmark):
    report = run_once(benchmark, run_all, True)
    benchmark.extra_info["experiment"] = "live_update_interference"
    benchmark.extra_info["cells"] = [
        {
            k: row[k]
            for k in ("policy", "update_rate", "p99_ms", "gc_pages_moved")
        }
        for row in report["cells"]
    ]
    check_contract(report)


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    for cell in report["cells"]:
        print(
            f"{cell['policy']:>10} @ {cell['update_rate']:5.0f} upd/s: "
            f"p50 {cell['p50_ms']:7.2f}ms  p95 {cell['p95_ms']:7.2f}ms  "
            f"p99 {cell['p99_ms']:7.2f}ms  gc moved {cell['gc_pages_moved']:6.0f}"
        )
    check_contract(report)
    print(
        f"update contract holds: p99 degrades "
        f"{report['p99_degradation_x']:.2f}x under naive interleaving; "
        f"off-peak batching recovers {report['p99_recovered_x']:.2f}x"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
