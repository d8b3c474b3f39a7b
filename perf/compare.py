"""``python3 -m perf.compare A.json B.json`` — hold report B to A's numbers.

A and B are ``python3 -m perf.run --out`` reports of the same seed.  Every
(workload, end-to-end metric) pair gets its own row.  Simulated metrics
and ``sim_digest`` must be *equal* (1e-9 relative): a change meant only to
speed the simulator up may not move them, and a change to the model has to
say so.  ``failed_frac`` may not rise.  Host metrics may get worse by at
most the bound ``BENCHMARK.json`` gives them (set-up: or 0.05 s, whichever
is larger).  Exit code 1 if any row is a violation, 2 if the reports
cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .spec import END_TO_END, clock_of

SIM_REL_TOL = 1e-9
SETUP_FLOOR_S = 0.05


def verdict(name: str, a: float, b: float) -> Tuple[bool, str]:
    """(ok, rule applied) for metric ``name`` going from ``a`` to ``b``."""
    if name == "failed_frac":
        return b <= a, "may not rise"
    if clock_of(name) == "sim":
        ok = abs(b - a) <= SIM_REL_TOL * max(abs(a), abs(b))
        return ok, "exact"
    spec = END_TO_END[name]
    worse_by = (a - b) if spec["better"] == "higher" else (b - a)
    allowed = spec["bound"] * abs(a)
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    return worse_by <= allowed, f"{spec['bound']:.0%} worse at most"


def compare(a: dict, b: dict) -> Tuple[List[str], int]:
    """Rows to print and the number of violations."""
    rows = [f"{'workload':16s} {'metric':20s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict"]
    violations = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            rows.append(f"{workload:16s} missing from B  VIOLATION")
            violations += 1
            continue
        run_a, run_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for name, value_a in run_a["metrics"].items():
            value_b = run_b["metrics"][name]
            ok, rule = verdict(name, value_a, value_b)
            violations += not ok
            ratio = f"{value_b / value_a:8.4f}" if value_a else f"{'-':>8s}"
            rows.append(
                f"{workload:16s} {name:20s} {value_a:14.6g} {value_b:14.6g} {ratio}  "
                f"{'ok' if ok else 'VIOLATION'} ({rule})"
            )
        same = run_a["sim_digest"] == run_b["sim_digest"]
        violations += not same
        rows.append(
            f"{workload:16s} {'sim_digest':20s} {run_a['sim_digest'][:12]:>14s} "
            f"{run_b['sim_digest'][:12]:>14s} {'':8s}  {'ok' if same else 'VIOLATION'} (exact)"
        )
    return rows, violations


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0])
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if not (a.get("comparable") and b.get("comparable")):
        print('a report is stamped "comparable": false (--quick): nothing to hold it to')
        return 2
    if a["manifest"]["seed"] != b["manifest"]["seed"]:
        print("the reports were made with different seeds: simulated metrics cannot be equal")
        return 2
    rows, violations = compare(a, b)
    print("\n".join(rows))
    print(f"{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
