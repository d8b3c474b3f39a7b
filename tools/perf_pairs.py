#!/usr/bin/env python3
"""Alternating before/after pairs of ``python3 -m perf.run``, per workload.

A host-clock claim is a comparison of two commits on a box whose speed
drifts by 20-30 % within minutes, so the runs are taken in pairs and the
side that goes first alternates.  This script checks out ``--against``
and ``HEAD`` (committed files only, as the benchmark does) into two
temporary ``git worktree``\\ s, runs the unchanged benchmark command

    python3 -m perf.run --workload W --seed SEED --seconds S --trace 0

in each, ``--pairs`` times per workload, and prints one table per
workload with one row per end-to-end metric: the parent's median
[quartiles], the change's median, their ratio and how many pairs the
change won (on the side ``BENCHMARK.json`` calls better) — the table
``CHANGES.md`` quotes.  Each table also says whether every ``sim_*``
metric was identical in every run and how many operations failed.  The
last line names every (workload, end-to-end metric) whose change median
is worse than the parent's by more than its ``BENCHMARK.json`` bound.
``--workload`` repeats, or is ``all``; the worktrees are made once and
removed afterwards; nothing in the repo is written.

``--frames`` adds two exact counts beside the clock: in each worktree it
runs each chosen workload once more at 1/10 scale under
``sys.setprofile``, with the collector off, and prints the Python
frames and the calls into numpy's C functions (``c_call`` events whose
function, or the object it is bound to, belongs to numpy) per completed
request, parent -> change.  They count the serving phase
(``run_workload``) only; the update drain after the last request (the
updates still in flight, with perf's stop predicate called per event)
is counted apart and printed as totals in a second table.  A frame count does not see numpy work, so
a change that moves work between the two shows in the second column
(the profiler reports builtin functions and methods only, so a ufunc
called directly or a function behind numpy's array-function
dispatcher, e.g. ``np.concatenate``, is not counted).
The counts depend on no clock, so one run per side is the whole
measurement; ``--pairs 0`` prints only them.

Usage (from the repo root)::

    python3 tools/perf_pairs.py --against HEAD~1 --workload ndp_serve --pairs 10 --seconds 10
    python3 tools/perf_pairs.py --against HEAD~1 --workload ndp_serve --pairs 5 --seed 7
    python3 tools/perf_pairs.py --against HEAD~1 --workload ssd_serve --workload dram_serve
    python3 tools/perf_pairs.py --against HEAD~1 --workload all --pairs 3
    python3 tools/perf_pairs.py --against HEAD~1 --workload all --pairs 0 --frames
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, quartiles inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _number(value: float) -> str:
    """Four significant figures, thousands separated: 1,417 / 0.0215 / 72.3."""
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def metric_row(name: str, better: str, parent: Sequence[float], change: Sequence[float]) -> str:
    """One Markdown table row for paired runs ``parent[i]`` / ``change[i]``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on each side")
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if better == "higher":
        wins = sum(c > p for p, c in zip(parent, change))
    elif better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    ratio = change_median / parent_median if parent_median else float("nan")
    return (
        f"| {name} | {_number(parent_median)} [{_number(q1)}, {_number(q3)}] "
        f"| {_number(change_median)} | {ratio:.3f}x | {wins}/{len(parent)} |"
    )


def format_table(
    workload: str,
    seed: int,
    metrics: Sequence[Tuple[str, str]],
    runs: Sequence[Tuple[dict, dict]],
) -> str:
    """The report for ``runs``, a list of ``(parent, change)`` result
    objects as ``perf.run --workload`` prints them; ``metrics`` is
    ``(name, better)`` per end-to-end metric, in table order."""
    lines = [
        f"{workload}, seed {seed}, {len(runs)} pairs (parent median [quartiles] -> change)",
        "",
        "| metric | parent | change | ratio | change wins |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, better in metrics:
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        lines.append(metric_row(name, better, parent, change))
    sims = {
        json.dumps({k: v for k, v in result["metrics"].items() if k.startswith("sim_")}, sort_keys=True)
        for pair in runs
        for result in pair
    }
    failed = sum(result["failed"] for pair in runs for result in pair)
    correct = all(result["correct"] for pair in runs for result in pair)
    lines += [
        "",
        f"sim_* identical in every run: {'yes' if len(sims) == 1 else 'NO'}; "
        f"failed operations: {failed}; correct: {'yes' if correct else 'NO'}",
    ]
    return "\n".join(lines)


def frames_table(seed: int, counts: Sequence[Tuple[str, dict, dict]]) -> str:
    """The ``--frames`` report: ``counts`` holds ``(workload, parent,
    change)``, each side ``{"frames": n, "numpy_calls": k, "requests": m}``
    for the serving phase, plus ``drain_frames`` / ``drain_numpy_calls``
    for the update drain after it, as :data:`FRAMES_SCRIPT` prints them.
    A workload whose runs drain nothing has no drain row."""

    def row(workload: str, sides, per) -> str:
        cells = []
        for count in ("frames", "numpy_calls"):
            before, after = (per(side, count) for side in sides)
            ratio = f"{after / before:.3f}x" if before else "-"
            cells += [_number(before), _number(after), ratio]
        return f"| {workload} | " + " | ".join(cells) + " |"

    header = [
        "| workload | frames parent | frames change | ratio "
        "| numpy calls parent | numpy calls change | ratio |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    lines = [
        "Python frames and numpy calls per request, serving phase, seed "
        f"{seed}, 1/10 scale, collector off (parent -> change)",
        "",
        *header,
    ]
    for workload, *sides in counts:
        lines.append(row(workload, sides, lambda side, count: side[count] / side["requests"]))
    drains = [
        (workload, *sides) for workload, *sides in counts
        if any(side.get("drain_frames", 0) for side in sides)
    ]
    if drains:
        lines += ["", "Update drain after the last request, totals (parent -> change)", "", *header]
        for workload, *sides in drains:
            lines.append(row(workload, sides, lambda side, count: side.get(f"drain_{count}", 0)))
    return "\n".join(lines)


def regressions(
    runs: Dict[str, Sequence[Tuple[dict, dict]]],
    bounds: Sequence[Tuple[str, str, float]],
) -> List[str]:
    """``"workload metric"`` for every end-to-end metric, ``(name,
    better, bound)``, whose change median is worse than the parent median
    by more than ``bound`` (a fraction of the parent median), per
    workload's paired runs."""
    worse = []
    for workload, pairs in runs.items():
        for name, better, bound in bounds:
            parent = statistics.median(p["metrics"][name]["value"] for p, _ in pairs)
            change = statistics.median(c["metrics"][name]["value"] for _, c in pairs)
            if better == "higher":
                regressed = change < parent * (1.0 - bound)
            elif better == "lower":
                regressed = change > parent * (1.0 + bound)
            else:
                raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
            if regressed:
                worse.append(f"{workload} {name}")
    return worse


def verdict(worse: Sequence[str]) -> str:
    """The report's last line, from :func:`regressions`."""
    return "worse than the parent beyond a BENCHMARK.json bound: " + (
        ", ".join(worse) if worse else "none"
    )


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_bounds() -> List[Tuple[str, str, float]]:
    return [(m["name"], m["better"], m["bound"]) for m in _benchmark()["end_to_end"]]


def end_to_end_metrics() -> List[Tuple[str, str]]:
    return [(name, better) for name, better, _ in end_to_end_bounds()]


def workloads_named(names: Sequence[str]) -> List[str]:
    """``--workload`` values in order, ``all`` standing for every
    ``BENCHMARK.json`` workload; an unknown name is refused."""
    known = [w["name"] for w in _benchmark()["workloads"]]
    chosen: List[str] = []
    for name in names:
        for workload in known if name == "all" else [name]:
            if workload not in known:
                raise ValueError(f"unknown workload {workload!r}; known: {', '.join(known)}")
            if workload not in chosen:
                chosen.append(workload)
    return chosen


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "-m", "perf.run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


# Run in a worktree: set up one workload at 1/10 scale, then count the
# Python frames and the calls into numpy's C functions of each phase of
# its run — serving, and the update drain after it — apart: ``run``
# opens a tracer span around each, and the counter is on only inside one.
FRAMES_SCRIPT = """
import gc, json, sys
from perf.workloads import BY_NAME, observe, run, setup
built = setup(BY_NAME[sys.argv[1]], int(sys.argv[2]), 0.1)
tallies = {}

class Phases:
    def span(self, name, phase=None):
        return Phase(tallies.setdefault(name, [0, 0]))

class Phase:
    def __init__(self, tally):
        self.tally = tally
    def count(self, _frame, event, arg):
        if event == "call":
            self.tally[0] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            if module.startswith("numpy"):
                self.tally[1] += 1
    def __enter__(self):
        sys.setprofile(self.count)
    def __exit__(self, *_):
        sys.setprofile(None)

gc.disable()
run(built, Phases())
serve, drain = tallies["run_workload"], tallies.get("update_drain", [0, 0])
print(json.dumps({
    "frames": serve[0], "numpy_calls": serve[1], "requests": observe(built).completed,
    "drain_frames": drain[0], "drain_numpy_calls": drain[1],
}))
"""


def _count_frames(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "-c", FRAMES_SCRIPT, workload, str(seed)]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="a BENCHMARK.json workload, or all; repeat for several",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--frames", action="store_true",
        help="also count Python frames and numpy calls per request, once per side at 1/10 scale",
    )
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be >= 0")

    try:
        workloads = workloads_named(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    revisions = {"parent": _git("rev-parse", args.against), "change": _git("rev-parse", "HEAD")}
    runs: Dict[str, List[Tuple[dict, dict]]] = {w: [] for w in workloads}
    counts: List[Tuple[str, dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        trees: Dict[str, Path] = {}
        try:
            for side, revision in revisions.items():
                tree = Path(scratch) / side
                _git("worktree", "add", "--detach", str(tree), revision)
                trees[side] = tree
            for workload in workloads:
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    result = {
                        side: _measure(trees[side], workload, args.seed, args.seconds)
                        for side in order
                    }
                    runs[workload].append((result["parent"], result["change"]))
                    rate = [result[side]["metrics"]["host_req_per_s"]["value"] for side in ("parent", "change")]
                    print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): host_req_per_s "
                          f"{rate[0]:,.0f} / {rate[1]:,.0f}", file=sys.stderr, flush=True)
                if args.frames:
                    counts.append((workload, *(
                        _count_frames(trees[side], workload, args.seed)
                        for side in ("parent", "change")
                    )))
        finally:
            for tree in trees.values():
                _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "prune")
    print(f"parent {revisions['parent'][:10]}, change {revisions['change'][:10]}")
    if args.pairs:
        for workload, pairs in runs.items():
            print()
            print(format_table(workload, args.seed, end_to_end_metrics(), pairs))
    if counts:
        print()
        print(frames_table(args.seed, counts))
    if args.pairs:
        print()
        print(verdict(regressions(runs, end_to_end_bounds())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
