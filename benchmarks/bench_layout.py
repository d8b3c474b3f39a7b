"""Frequency-based flash layout benchmark: pages per bag and read tails.

Two experiments, both over a single-table PACKED DLRM model on the SSD
backend (the layout only matters when rows share flash pages):

**Locality (Fig 4 shape).**  ``run_scenario`` serves an open-loop tenant
whose ids follow the paper's stack-distance locality stream, once under
the legacy ``modulo`` layout and once under ``frequency`` (heat-packed
from a profile of the same distribution).  The device gets a tiny FTL
page cache so flash page reads track distinct pages touched.  Packing
hot rows into shared pages must cut flash page reads per bag and the
end-to-end read p99.

**Popularity shift + GC-piggybacked migration.**  A table is heat-packed
for yesterday's Zipf popularity (permutation seed A), then today's
traffic follows a different popularity (seed B) while an update stream
rewrites rows and keeps the garbage collector busy.  Three cells:

* ``stale``    — no migrator: the layout stays packed for seed A;
* ``migrate``  — ``LayoutMigrator`` piggybacks on GC victim reclaims,
  re-packing still-live rows against an online ``HeatTracker``;
* ``oracle``   — packed directly for seed B (the migration target).

The analytic figure of merit is distinct flash pages per probe bag under
the *final* layout; migration must recover at least half of the
stale-to-oracle gap.

Contract (asserted in both modes):

* frequency layout reads **>= 1.3x fewer flash pages per bag** than
  modulo on the locality trace, and its read p99 is lower;
* after the popularity shift, GC-piggybacked migration **recovers >=
  half** of the (stale - oracle) pages-per-bag gap, with at least one
  victim re-pack actually performed;
* reads conserve (`submitted == completed + rejected + dropped`) in
  every serving cell.

Run standalone (writes ``BENCH_layout.json``)::

    PYTHONPATH=src python benchmarks/bench_layout.py           # full
    PYTHONPATH=src python benchmarks/bench_layout.py --smoke   # CI

or through pytest-benchmark with the rest of the bench suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_layout.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.embedding import Layout
from repro.embedding.placement import HeatTracker, LayoutMigrator, profile_heat
from repro.host.system import System, build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import BackendKind, required_capacity_pages
from repro.serving import InferenceServer, age_device, make_model_updatable
from repro.sim.stats import summarize_latencies
from repro.ssd.presets import small_ssd_config
from repro.traces.powerlaw import ZipfTraceGenerator
from repro.workload import (
    OpenLoopGenerator,
    ScenarioSpec,
    TenantSpec,
    UpdateStream,
    UpdateStreamSpec,
    run_scenario,
    run_workload,
)

try:
    from conftest import run_once  # pytest-benchmark path (rootdir import)
except ImportError:  # standalone `python benchmarks/...` run
    run_once = None

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_layout.json"

SEED = 11
ROWS = 8192
DIM = 16                    # 64B rows -> 256 rows per 16KB page, 32 pages
LOOKUPS = 8
BATCH = 2
READ_RATE = 300.0           # requests/s, sub-saturation
LOCALITY_K = 0.25           # Fig 4 stack-distance shape (low K = high locality)
PROFILE_BATCHES = 64        # shift phase: Zipf popularity is stationary
PAGE_CACHE_PAGES = 8        # tiny: flash reads track distinct pages touched

# Popularity-shift phase.
ZIPF_ALPHA = 1.0
SHIFT_SEED_A = 5            # yesterday's popularity (profiled layout)
SHIFT_SEED_B = 6            # today's popularity (served + probed)
UPDATE_RATE = 400.0         # update batches/s keeping GC busy
ROWS_PER_UPDATE = 16
MIGRATION_BUDGET = 100_000  # effectively unbounded: contract pins recovery
TRACKER_DECAY_EVERY = 1024  # rows; lets the seed-A prior fade quickly


def _model() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="m",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=1,
            table_rows=ROWS,
            dim=DIM,
            lookups=LOOKUPS,
            layout=Layout.PACKED,
        ),
        seed=1,
    )


# ----------------------------------------------------------------------
# Phase 1: locality trace, modulo vs frequency (run_scenario cells)
# ----------------------------------------------------------------------
def run_locality_cell(layout: str, n_requests: int) -> Dict[str, float]:
    model = _model()
    system = build_system(
        min_capacity_pages=required_capacity_pages(model),
        page_cache_pages=PAGE_CACHE_PAGES,
    )
    spec = ScenarioSpec(
        name=f"layout-{layout}",
        tenants=(
            TenantSpec(
                model=model.name,
                arrival="open",
                rate=READ_RATE,
                n_requests=n_requests,
                batch_size=BATCH,
                locality_k=LOCALITY_K,
            ),
        ),
        backend="ssd",
        seed=SEED,
        layout=layout,
        # The locality generator's used-ID space grows with trace length
        # (fresh draws are never-seen rows), so the profile must cover
        # about as many lookups as the serving window will replay —
        # "profile yesterday, serve today" at matched day lengths.
        layout_profile_batches=n_requests,
    )
    result = run_scenario(spec, [model], system=system)
    stats = result.stats
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    n_bags = result.summary["completed"] * BATCH  # one sparse feature
    flash_reads = float(system.device.ftl.flash.total_reads())
    return {
        "layout": layout,
        "completed": result.summary["completed"],
        "flash_page_reads": flash_reads,
        "flash_reads_per_bag": flash_reads / max(n_bags, 1.0),
        "p50_ms": result.summary["p50_ms"],
        "p95_ms": result.summary["p95_ms"],
        "p99_ms": result.summary["p99_ms"],
    }


# ----------------------------------------------------------------------
# Phase 2: popularity shift, GC-piggybacked migration (custom harness)
# ----------------------------------------------------------------------
def _shift_system() -> System:
    """A few-die device so victim blocks span several table pages.

    On the 32-die Cosmos+ geometry a 32-page table puts one page per
    block and victim-local re-packing has nothing to cluster across;
    2x2 dies give GC victims ~8 table pages each.
    """
    return System(
        small_ssd_config(
            channels=2,
            ways=2,
            blocks_per_die=24,
            pages_per_block=64,
            page_bytes=16 * 1024,
            page_cache_pages=PAGE_CACHE_PAGES,
        )
    )


def _probe_pages_per_bag(table, n_bags: int) -> float:
    """Distinct flash pages a seed-B bag touches under the final layout."""
    gen = ZipfTraceGenerator(ROWS, ZIPF_ALPHA, seed=SHIFT_SEED_B)
    rpp = table.rows_per_page
    pages = [
        np.unique(table.storage_ids(gen.generate(LOOKUPS)) // rpp).size
        for _ in range(n_bags)
    ]
    return float(np.mean(pages))


def run_shift_cell(mode: str, n_requests: int, n_probe: int) -> Dict[str, float]:
    assert mode in ("stale", "migrate", "oracle")
    model = _model()
    make_model_updatable(model)
    feature = model.features[0]
    # Profile "yesterday" (seed A) — except the oracle, which is packed
    # directly for today's popularity.  Popularity is stationary per
    # seed, so a fresh generator with the serving seed profiles the same
    # hot set the serving stream will draw (seed alignment matters: the
    # permutation decides *which* rows are hot).
    profile_seed = SHIFT_SEED_B if mode == "oracle" else SHIFT_SEED_A
    sampler = ZipfTraceGenerator(ROWS, ZIPF_ALPHA, seed=profile_seed).generate
    heat = profile_heat(
        sampler, ROWS, batches=PROFILE_BATCHES, batch_size=BATCH * LOOKUPS
    )
    table = model.tables[feature.name]
    table.set_heat(heat)

    system = _shift_system()
    server = InferenceServer(system)
    server.register_model(model, BackendKind.SSD)
    assert table.attached and table.layout is not None

    migrator = None
    if mode == "migrate":
        # The tracker starts cold: seeding it with the (stale) load-time
        # profile only delays adaptation — the whole point of online
        # migration is to escape that profile.
        tracker = HeatTracker(ROWS, decay_every=TRACKER_DECAY_EVERY)
        table.heat_tracker = tracker
        migrator = LayoutMigrator(budget_rows=MIGRATION_BUDGET)
        migrator.register(table, tracker)
        system.device.ftl.layout_migrator = migrator

    aging = age_device(system)

    # Today's traffic (seed B) plus a row-update stream that keeps the
    # garbage collector reclaiming blocks holding live table pages.
    duration = n_requests / READ_RATE
    update_spec = UpdateStreamSpec(
        rate=UPDATE_RATE,
        n_updates=max(1, int(UPDATE_RATE * duration)),
        rows_per_update=ROWS_PER_UPDATE,
        policy="interleave",
    )
    engine = update_spec.make_engine(server)
    stream = UpdateStream(update_spec, model, seed=SEED)
    stream.schedule(server.sim, engine)
    serve_gen = ZipfTraceGenerator(ROWS, ZIPF_ALPHA, seed=SHIFT_SEED_B)
    generator = OpenLoopGenerator(
        model.name,
        rate=READ_RATE,
        n_requests=n_requests,
        batch_size=BATCH,
        samplers={feature.name: serve_gen.generate},
    )
    stats = run_workload(server, generator, seed=SEED)
    server.sim.run_until(lambda: stream.done and engine.idle)
    server.sim.run()  # drain background GC (and any final re-packs)

    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    ftl = system.device.ftl
    row: Dict[str, float] = {
        "mode": mode,
        "completed": float(stats.completed),
        "pages_per_bag": _probe_pages_per_bag(table, n_probe),
        "p99_ms": summarize_latencies(stats.latencies)["p99_ms"],
        "gc_runs": float(ftl.gc.runs),
        "gc_blocks_reclaimed": float(ftl.gc.blocks_reclaimed),
        "aged_min_free_blocks_per_die": aging["min_free_blocks_per_die"],
        "repacks": 0.0,
        "rows_repacked": 0.0,
        "layout_version": float(table.layout.version),
    }
    if migrator is not None:
        row["repacks"] = float(migrator.repacks)
        row["rows_repacked"] = float(migrator.rows_repacked)
        table.layout.check_permutation()
    return row


def run_all(smoke: bool) -> Dict[str, object]:
    n_requests = 160 if smoke else 400
    n_probe = 256 if smoke else 512
    locality = [
        run_locality_cell("modulo", n_requests),
        run_locality_cell("frequency", n_requests),
    ]
    shift = [
        run_shift_cell("stale", n_requests, n_probe),
        run_shift_cell("migrate", n_requests, n_probe),
        run_shift_cell("oracle", n_requests, n_probe),
    ]
    by_layout = {c["layout"]: c for c in locality}
    by_mode = {c["mode"]: c for c in shift}
    gap = by_mode["stale"]["pages_per_bag"] - by_mode["oracle"]["pages_per_bag"]
    recovered = by_mode["stale"]["pages_per_bag"] - by_mode["migrate"]["pages_per_bag"]
    return {
        "mode": "smoke" if smoke else "full",
        "n_requests": n_requests,
        "n_probe_bags": n_probe,
        "locality_k": LOCALITY_K,
        "zipf_alpha": ZIPF_ALPHA,
        "locality_cells": locality,
        "shift_cells": shift,
        "page_read_reduction_x": (
            by_layout["modulo"]["flash_reads_per_bag"]
            / max(by_layout["frequency"]["flash_reads_per_bag"], 1e-9)
        ),
        "shift_gap_pages_per_bag": gap,
        "shift_recovery_frac": recovered / max(gap, 1e-9),
    }


def check_contract(report: Dict[str, object]) -> None:
    by_layout = {c["layout"]: c for c in report["locality_cells"]}
    modulo, freq = by_layout["modulo"], by_layout["frequency"]
    reduction = report["page_read_reduction_x"]
    assert reduction >= 1.3, (
        f"frequency layout must cut flash page reads per bag >=1.3x "
        f"(modulo {modulo['flash_reads_per_bag']:.2f} vs "
        f"frequency {freq['flash_reads_per_bag']:.2f}, {reduction:.2f}x)"
    )
    assert freq["p99_ms"] < modulo["p99_ms"], (
        f"frequency layout must lower read p99 "
        f"({freq['p99_ms']:.2f}ms vs modulo {modulo['p99_ms']:.2f}ms)"
    )
    by_mode = {c["mode"]: c for c in report["shift_cells"]}
    stale, migrate, oracle = by_mode["stale"], by_mode["migrate"], by_mode["oracle"]
    assert report["shift_gap_pages_per_bag"] > 0, (
        f"popularity shift produced no layout gap to recover "
        f"(stale {stale['pages_per_bag']:.2f} vs oracle {oracle['pages_per_bag']:.2f})"
    )
    assert migrate["repacks"] > 0, "GC reclaims never reached the migrator"
    assert report["shift_recovery_frac"] >= 0.5, (
        f"GC-piggybacked migration must recover >=half the stale-oracle "
        f"pages-per-bag gap (stale {stale['pages_per_bag']:.2f}, migrated "
        f"{migrate['pages_per_bag']:.2f}, oracle {oracle['pages_per_bag']:.2f}; "
        f"recovered {report['shift_recovery_frac']:.0%})"
    )
    for cell in report["shift_cells"]:
        assert cell["gc_runs"] > 0, f"{cell['mode']}: updates never woke the GC"


def test_frequency_layout(benchmark):
    report = run_once(benchmark, run_all, True)
    benchmark.extra_info["experiment"] = "frequency_layout"
    benchmark.extra_info["page_read_reduction_x"] = report["page_read_reduction_x"]
    benchmark.extra_info["shift_recovery_frac"] = report["shift_recovery_frac"]
    check_contract(report)


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    for cell in report["locality_cells"]:
        print(
            f"locality {cell['layout']:>9}: "
            f"{cell['flash_reads_per_bag']:6.2f} flash reads/bag  "
            f"p99 {cell['p99_ms']:6.2f}ms"
        )
    for cell in report["shift_cells"]:
        print(
            f"   shift {cell['mode']:>9}: "
            f"{cell['pages_per_bag']:6.2f} pages/bag  "
            f"repacks {cell['repacks']:4.0f}  gc runs {cell['gc_runs']:4.0f}"
        )
    check_contract(report)
    print(
        f"layout contract holds: {report['page_read_reduction_x']:.2f}x fewer "
        f"page reads/bag on the locality trace; migration recovered "
        f"{report['shift_recovery_frac']:.0%} of the shift gap"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
