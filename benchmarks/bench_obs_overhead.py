"""Observability overhead benchmark: tracing-enabled vs disabled wall clock.

This measures *wall-clock* simulator performance, not simulated
metrics: the contract of ``repro.obs`` is that tracing is zero-cost when
disabled (a single ``is None`` check per instrumentation site) and cheap
when enabled (append-only span records, no event scheduling, no RNG
draws).  Both halves are pinned here:

* the traced and untraced runs of the same fixed-seed scenario must
  produce **identical simulated summaries** (the bit-identity oracle,
  asserted in every mode), and
* the traced run's wall-clock overhead over the untraced run must stay
  **<= 15%** (asserted in full mode; smoke sizes are too noisy for a
  stable ratio).

Run standalone (writes ``BENCH_obs.json``)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.obs import Tracer
from repro.workload import ScenarioSpec, TenantSpec, run_scenario

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

OVERHEAD_CEILING = 0.15  # traced wall clock may cost at most 15% extra


def _model(name: str, seed: int) -> DlrmModel:
    config = DlrmConfig(
        name=name,
        dense_in=16,
        bottom_mlp=(32, 16),
        top_mlp=(32, 16),
        num_tables=2,
        table_rows=4096,
        dim=16,
        lookups=8,
    )
    return DlrmModel(config, seed=seed)


def _spec(smoke: bool) -> ScenarioSpec:
    n_requests = 48 if smoke else 400
    return ScenarioSpec(
        name="obs-overhead",
        tenants=(
            TenantSpec(
                model="m",
                arrival="open",
                rate=2000.0,
                n_requests=n_requests,
                batch_size=2,
                slo_s=0.05,
            ),
        ),
        backend="ndp",
        max_batch_requests=4,
        seed=11,
    )


def run_cell(traced: bool, smoke: bool) -> Dict[str, float]:
    """One fixed-seed serving run, with or without a tracer installed."""
    spec = _spec(smoke)
    tracer: Optional[Tracer] = Tracer() if traced else None
    model = _model("m", seed=1)
    t0 = time.perf_counter()
    result = run_scenario(spec, [model], tracer=tracer)
    wall = time.perf_counter() - t0
    row: Dict[str, float] = {
        "wall_s": wall,
        "completed": float(result.summary["completed"]),
        "spans": float(len(tracer)) if tracer is not None else 0.0,
    }
    row["_summary"] = result.summary  # popped before the report is written
    return row


def _best_of(traced: bool, smoke: bool, repeats: int) -> Dict[str, float]:
    """Min-wall-clock of ``repeats`` runs (each a fresh system; de-noised)."""
    runs = [run_cell(traced, smoke) for _ in range(repeats)]
    return min(runs, key=lambda r: r["wall_s"])


def run_all(smoke: bool) -> Dict[str, object]:
    repeats = 1 if smoke else 3
    off = _best_of(False, smoke, repeats)
    on = _best_of(True, smoke, repeats)
    # Bit-identity oracle: tracing must never perturb the simulation.
    assert off.pop("_summary") == on.pop("_summary"), (
        "tracing changed simulated results"
    )
    overhead = on["wall_s"] / off["wall_s"] - 1.0
    return {
        "mode": "smoke" if smoke else "full",
        "tracing_off": off,
        "tracing_on": on,
        "overhead_frac": overhead,
        "spans_per_request": on["spans"] / max(on["completed"], 1.0),
        "ceiling_frac": OVERHEAD_CEILING,
    }


def check_contract(report: Dict[str, object]) -> None:
    overhead = report["overhead_frac"]
    assert overhead <= OVERHEAD_CEILING, (
        f"tracing overhead {overhead:.1%} > {OVERHEAD_CEILING:.0%} ceiling"
    )


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"tracing off: {report['tracing_off']['wall_s']:.3f}s  "
        f"on: {report['tracing_on']['wall_s']:.3f}s  "
        f"overhead: {report['overhead_frac']:+.1%}  "
        f"({report['tracing_on']['spans']:.0f} spans, "
        f"{report['spans_per_request']:.1f}/request)"
    )
    if smoke:
        # CI smoke: sizes are too small for a stable wall-clock ratio;
        # the bit-identity assert above still ran.
        print("smoke mode: skipped overhead-ceiling assertion")
        return
    check_contract(report)
    print(f"obs contract holds: tracing overhead <= {OVERHEAD_CEILING:.0%}")


if __name__ == "__main__":
    main(sys.argv[1:])
