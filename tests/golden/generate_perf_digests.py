"""Regenerate ``perf_digests.json``: what every benchmark workload
produces on the simulated clock at ``scale=0.1``.

Run this ONLY on a commit whose simulated numbers are trusted, and never
in a change that claims the simulator got faster — such a change has to
replay the file it found:

    PYTHONPATH=src python -m tests.golden.generate_perf_digests
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from perf.workloads import WORKLOADS, observe, run, setup

GOLDEN_PATH = Path(__file__).parent / "perf_digests.json"
SCALE = 0.1
SEEDS = (13, 7)


def record(workload, seed: int) -> dict:
    """Set up, run and observe one workload the way ``perf.run`` does."""
    built = setup(workload, seed, SCALE)
    run(built)
    seen = observe(built)
    return {
        "sim_digest": seen.digest,
        "sim_events": built.sim.event_count,
        "completed": seen.completed,
    }


def _git(*args: str) -> str:
    repo = Path(__file__).resolve().parents[2]
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main() -> None:
    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--", "src")
    golden = {
        "generated_at_commit": commit,
        "src_unchanged_since_commit": not dirty,
        "scale": SCALE,
        "workloads": {},
    }
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"recording {workload.name} seed {seed} ...")
            golden["workloads"][f"{workload.name}/seed{seed}"] = record(workload, seed)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
