"""Record the golden files.

    PYTHONPATH=src python -m tests.golden [FAMILY [NAME ...]] [--check]

Without ``--check``, re-records every family, one family, or the named
scenarios of one family (the others keep their entries) — ONLY on a
commit whose simulated numbers are trusted.  A written file names the
commit it was written on and whether ``src/`` was clean there.

With ``--check``, re-records the same scenarios and compares them with
their files.  If any value moves that its family does not declare
refreshable, nothing is written and the command fails, naming every
moved value.  Otherwise the refreshable fields that moved (today,
``sim_events`` of the digests and of the runner scenarios, after a
change that fused events and names the hops in ``CHANGES.md``) are
written, and the file records the commit
they were refreshed on top of; the rest of its provenance stays.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import FAMILIES, differences


def _git(*args: str) -> str:
    repo = Path(__file__).resolve().parents[2]
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("family", nargs="?", choices=sorted(FAMILIES))
    parser.add_argument("names", nargs="*", help="scenarios of FAMILY (default: all)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="write only refreshable fields; refuse if any other value moved",
    )
    args = parser.parse_args()
    commit = _git("rev-parse", "HEAD")
    moved, writes = [], []
    for family_name in [args.family] if args.family else list(FAMILIES):
        family = FAMILIES[family_name]
        unknown = set(args.names) - set(family.scenarios)
        if unknown:
            parser.error(f"{family_name} has no scenario {sorted(unknown)}")
        if args.check or args.names:
            golden = family.load()
        else:
            golden = {**family.extras, "scenarios": {}}
        refreshed = set()
        for name in args.names or family.scenarios:
            print(f"recording {family_name}/{name} ...")
            record = family.scenarios[name]()
            if not args.check:
                golden["scenarios"][name] = record
                continue
            found = golden["scenarios"].get(name)
            if found is None:
                moved.append(f"{family_name}/{name}: not recorded")
                continue
            pinned = [key for key in found if key not in family.refreshable]
            moved += differences(
                f"{family_name}/{name}",
                {key: found[key] for key in pinned},
                {key: record[key] for key in record if key not in family.refreshable},
                family.loose,
            )
            for key in family.refreshable:
                if record[key] != found[key]:
                    found[key] = record[key]
                    refreshed.add(key)
        if not args.check:
            golden["generated_at_commit"] = commit
            golden["src_unchanged_since_commit"] = not _git("status", "--porcelain", "--", "src")
        for key in refreshed:
            golden[f"{key}_refreshed_on_top_of_commit"] = commit
        if refreshed or not args.check:
            writes.append((family, golden))
    if moved:
        sys.exit("refusing to write, a recorded value moved:\n  " + "\n  ".join(moved))
    for family, golden in writes:
        family.path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {family.path}")


if __name__ == "__main__":
    main()
