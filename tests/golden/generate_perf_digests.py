"""Regenerate ``perf_digests.json``: what every benchmark workload
produces on the simulated clock at ``scale=0.1``.

The rule: **digests replay, event counts may be refreshed by a PR that
names the fused hops.**  ``sim_digest`` and ``completed`` say what the
simulation computed; a change that claims the simulator got faster has
to replay the ones it found.  ``sim_events`` says how many events that
took, and a change that fuses events (and says which, in ``CHANGES.md``)
re-records it with

    PYTHONPATH=src python -m tests.golden.generate_perf_digests --events-only

which refuses to write unless every digest and completed count equals
the file's.  Without the flag everything is recorded afresh — ONLY on a
commit whose simulated numbers are trusted:

    PYTHONPATH=src python -m tests.golden.generate_perf_digests
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--events-only",
        action="store_true",
        help="re-record sim_events; refuse unless every digest replays",
    )
    events_only = parser.parse_args().events_only
    commit = _git("rev-parse", "HEAD")
    if events_only:
        golden = json.loads(GOLDEN_PATH.read_text())
        # The digests keep their provenance; the counts are those of the
        # working tree on top of this commit.
        golden["sim_events_refreshed_on_top_of_commit"] = commit
    else:
        dirty = _git("status", "--porcelain", "--", "src")
        golden = {
            "generated_at_commit": commit,
            "src_unchanged_since_commit": not dirty,
            "scale": SCALE,
            "workloads": {},
        }
    moved = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            key = f"{workload.name}/seed{seed}"
            print(f"recording {key} ...")
            seen = record(workload, seed)
            if events_only:
                found = golden["workloads"][key]
                moved += [
                    f"{key}: {field} {found[field]} -> {seen[field]}"
                    for field in ("sim_digest", "completed")
                    if seen[field] != found[field]
                ]
            golden["workloads"][key] = seen
    if moved:
        sys.exit("refusing to write, a simulated result moved:\n  " + "\n  ".join(moved))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
