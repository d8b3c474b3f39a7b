"""Regenerate ``serving_golden.json`` from the current implementation.

Run this ONLY on a commit whose serving path is trusted (the baseline
was first recorded on the hostpool PR's default, legacy-bit-identical
configuration):

    PYTHONPATH=src python -m tests.golden.generate_serving_golden

Scenario names as arguments re-record only those keys and leave every
other recorded scenario as it is (how a PR adds a pin without touching
the ones it has to replay).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .serving_scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "serving_golden.json"


def main() -> None:
    only = sys.argv[1:]
    golden = json.loads(GOLDEN_PATH.read_text()) if only else {}
    for name in only or SCENARIOS:
        print(f"recording {name} ...")
        golden[name] = SCENARIOS[name]()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
