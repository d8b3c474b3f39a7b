"""Regenerate ``runner_golden.json`` from the current implementation.

Run this ONLY on a commit whose ``ModelRunner`` is trusted (the file was
first recorded on the runner that drove its own two-stage pipeline,
before it became a client of ``InferenceServer``):

    PYTHONPATH=src python -m tests.golden.generate_runner_golden

The file names the commit it was recorded at and whether ``src/`` was
clean there, like ``perf_digests.json``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from .runner_scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "runner_golden.json"


def _git(*args: str) -> str:
    repo = Path(__file__).resolve().parents[2]
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main() -> None:
    golden = {
        "generated_at_commit": _git("rev-parse", "HEAD"),
        "src_unchanged_since_commit": not _git("status", "--porcelain", "--", "src"),
        "scenarios": {},
    }
    for name, scenario in SCENARIOS.items():
        print(f"recording {name} ...")
        golden["scenarios"][name] = scenario()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
