"""``BENCHMARK.json`` is the one list of workload and metric names, units,
directions and bounds; everything else in ``perf/`` reads it from here."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

__all__ = ["ROOT", "BENCHMARK", "END_TO_END", "PER_LAYER", "unit_of", "clock_of"]

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["per_layer"]}


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])["unit"]


def clock_of(name: str) -> str:
    """``"host"`` (what the simulator costs us; noisy) or ``"sim"`` (what the
    modelled hardware would take or do; exact for a fixed seed)."""
    host = name in ("setup_s", "host_req_per_s", "peak_rss_mb") or name.endswith(
        ("_self_s", ".calls_in", ".trace_overhead_x")
    )
    return "host" if host else "sim"
