"""``python3 -m perf.run`` — the one benchmark command.

With ``--workload NAME`` it measures that workload in this process and
prints the result object as its last line: the form the benchmark driver
calls (``--workload --seed --seconds --trace``).  Without, it runs every
workload in a fresh subprocess of its own, one at a time, untraced and
then traced, and prints (``--out``: writes) the full report.

Every number says which clock it is on.  ``sim_*`` is simulated time: what
the modelled SSD and host would take, exact for a fixed seed.  Everything
else end to end is host time: what the simulator costs us to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy

import repro

from . import checks
from .calibrate import SpeedProbe
from .counters import layer_counts, snapshot
from .layers import LAYERS, NO_TRACE, PHASES, Tracer
from .spec import BENCHMARK, END_TO_END, PER_LAYER, ROOT, clock_of, unit_of
from .workloads import BY_NAME, WORKLOADS, Observation, Workload, observe, run, setup

MIN_REPS = 3
QUICK_SCALE = 0.1
PAPER_SPEEDUP = 2.0
UNVALIDATED = (
    "model unvalidated against hardware; only repro.experiments.calibration "
    "envelope checks exist"
)
LOAD_NOTE = (
    "open-loop Poisson arrivals in simulated time (device workloads replay one recorded "
    "trace each and --seed draws the request contents; on DRAM --seed draws the instants "
    "too; arrivals are sim events, so the generator is never late); in host time the "
    "simulator runs flat out.  Modelled caches (host LRU, FTL page cache, NDP "
    "embedding cache) start empty every repetition and statistics include the cold start."
)


@dataclass
class Rep:
    """One repetition: everything built fresh from the seed, then run."""

    setup_s: float                      # host seconds as measured, probe passes taken out
    run_s: float
    speed: float                        # machine speed while it ran (1.0 untraced reference)
    seen: Observation
    counts: Dict[str, float]
    failures: List[str]


def repetition(
    workload: Workload,
    seed: int,
    scale: float,
    tracer=NO_TRACE,
    probe: Optional[SpeedProbe] = None,
    check_values: bool = False,
) -> Rep:
    """Set up, run and check once.  Only ``setup`` and ``run`` are timed;
    counters are read and outputs checked outside both."""
    gc.collect()
    with tracer.span("setup"):
        setup_start = time.perf_counter()
        built = setup(workload, seed, scale, tracer)
        setup_end = time.perf_counter()
    before = snapshot(built)
    with tracer.span("run"):
        run_start = time.perf_counter()
        run(built, tracer)
        run_end = time.perf_counter()
    after = snapshot(built)
    setup_s, run_s, speed = setup_end - setup_start, run_end - run_start, 1.0
    if probe is not None:
        setup_s -= sum(probe.kernel_seconds(setup_start, setup_end))
        run_s -= sum(probe.kernel_seconds(run_start, run_end))
        speed = probe.speed(setup_start, run_end)
    seen = observe(built, tracer)
    counts = layer_counts(built, before, after, seen)
    failures = checks.conservation(seen) + checks.regime(built, seen, counts)
    if check_values:
        failures += checks.values(built)
    return Rep(setup_s, run_s, speed, seen, counts, failures)


def _spread(values: List[float]) -> Dict[str, float]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "min": min(values),
        "median": statistics.median(values),
        "iqr": quartiles[2] - quartiles[0],
    }


def _sim_metrics(seen: Observation) -> Dict[str, float]:
    return {
        "sim_p50_ms": seen.summary["p50_ms"],
        "sim_p99_ms": seen.summary["p99_ms"],
        "sim_throughput_rps": seen.summary["throughput_rps"],
        "sim_slo_miss_frac": seen.slo_miss_frac,
        "failed_frac": seen.failed / seen.attempted,
    }


def _same_digest(reps: List[Rep]) -> List[str]:
    digests = {rep.seen.digest for rep in reps}
    if len(digests) > 1:
        return [f"determinism: repetitions of one seed gave {len(digests)} different sim_digests"]
    return []


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: float, min_reps: int
) -> dict:
    """Untraced repetitions for at least ``seconds`` (and ``min_reps``),
    with the machine-speed probe ticking (perf/calibrate.py)."""
    reps: List[Rep] = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while len(reps) < min_reps or time.perf_counter() - start < seconds:
            reps.append(repetition(workload, seed, scale, probe=probe, check_values=not reps))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seen = reps[0].seen
    # Host seconds at reference speed, median over the repetitions.
    setup_s = _spread([rep.setup_s * rep.speed for rep in reps])
    run_s = _spread([rep.run_s * rep.speed for rep in reps])
    metrics = {
        "setup_s": setup_s["median"],
        "host_req_per_s": seen.completed / run_s["median"],
        "peak_rss_mb": peak_rss_mb,
        **_sim_metrics(seen),
    }
    failures = [f for rep in reps for f in rep.failures] + _same_digest(reps)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "requests_per_repetition": workload.requests(scale),
        "repetitions": len(reps),
        "latency_samples": seen.completed,
        "correct": not failures,
        "failures": failures,
        "attempted": sum(rep.seen.attempted for rep in reps),
        "failed": sum(rep.seen.failed for rep in reps),
        "sim_digest": seen.digest,
        "metrics": metrics,
        "host_times": {
            "measured_setup_s": [rep.setup_s for rep in reps],
            "measured_run_s": [rep.run_s for rep in reps],
            "machine_speed": [rep.speed for rep in reps],
            "setup_s": setup_s,
            "run_s": run_s,
        },
    }


def measure_per_layer(workload: Workload, seed: int, scale: float) -> dict:
    """One untraced repetition for the counters and the baseline, then one
    traced repetition for host time per layer."""
    plain = repetition(workload, seed, scale, check_values=True)
    tracer = Tracer(workload.name)
    traced = repetition(workload, seed, scale, tracer)
    tables = tracer.layer_tables()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        for phase in PHASES:
            metrics[f"{layer}.{phase}_self_s"] = tables[phase][layer]["self_s"]
        metrics[f"{layer}.calls_in"] = sum(tables[phase][layer]["calls_in"] for phase in PHASES)
    metrics["harness.trace_overhead_x"] = tracer.seconds("run") / plain.run_s
    metrics.update(plain.counts)
    sim = _sim_metrics(plain.seen)
    metrics["sim_slo_miss_frac"] = sim["sim_slo_miss_frac"]
    metrics["failed_frac"] = sim["failed_frac"]
    failures = plain.failures + traced.failures + _same_digest([plain, traced])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "requests_per_repetition": workload.requests(scale),
        "repetitions": 2,
        "correct": not failures,
        "failures": failures,
        "attempted": plain.seen.attempted + traced.seen.attempted,
        "failed": plain.seen.failed + traced.seen.failed,
        "sim_digest": plain.seen.digest,
        "metrics": metrics,
        "host_times": {
            "untraced_run_s": plain.run_s,
            "traced_run_s": tracer.seconds("run"),
            "traced_setup_s": tracer.seconds("setup"),
        },
        "spans": tracer.spans,
        "layers": tables,
    }


def result_line(detail: dict) -> str:
    """The driver's result object: exactly the metrics BENCHMARK.json lists
    for this kind of run."""
    wanted = PER_LAYER if detail["trace"] else END_TO_END
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": detail["metrics"][name], "unit": unit_of(name)} for name in wanted
        },
    })


def print_detail(detail: dict) -> None:
    name = detail["workload"]
    print(
        f"== {name}  seed {detail['seed']}  {'traced' if detail['trace'] else 'untraced'}  "
        f"{detail['repetitions']} repetitions x {detail['requests_per_repetition']} requests"
    )
    for metric, value in detail["metrics"].items():
        print(f"  {metric:36s} {value:>16.6g} {unit_of(metric):12s} [{clock_of(metric):4s}]")
    if not detail["trace"]:
        times = detail["host_times"]
        print("  host seconds are at reference speed: measured x machine speed (perf/calibrate.py)")
        for key in ("setup_s", "run_s"):
            spread = times[key]
            print(
                f"  {key:8s} measured per repetition: "
                f"{' '.join(f'{x:.3f}' for x in times[f'measured_{key}'])}"
                f"  at reference speed: min {spread['min']:.3f}, median {spread['median']:.3f}, "
                f"IQR {spread['iqr']:.3f}"
            )
        print(f"  machine speed per repetition: {' '.join(f'{x:.3f}' for x in times['machine_speed'])}")
        print(f"  latency samples: {detail['latency_samples']} completed requests per repetition")
    else:
        run_total = sum(detail["layers"]["run"][layer]["self_s"] for layer in LAYERS) or 1.0
        shares = ", ".join(
            f"{layer} {100 * detail['layers']['run'][layer]['self_s'] / run_total:.0f}%"
            for layer in LAYERS
        )
        print(f"  run-phase self-time shares: {shares}")
    print(f"  sim_digest {detail['sim_digest']}")
    for failure in detail["failures"]:
        print(f"  CHECK FAILED {failure}")


def manifest(args: argparse.Namespace, argv: List[str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "argv": argv,
        "min_repetitions": 1 if args.quick else MIN_REPS,
        "seconds": args.seconds,
    }


def run_all(args: argparse.Namespace, argv: List[str]) -> int:
    """Every workload, each in a fresh subprocess, untraced then traced."""
    report = {
        "manifest": manifest(args, argv),
        "comparable": not args.quick,
        "load": LOAD_NOTE,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in WORKLOADS:
            entry = report["workloads"][workload.name] = {"why": workload.why}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = Path(tmp) / f"{workload.name}.{trace}.json"
                command = [
                    sys.executable, "-m", "perf.run", "--workload", workload.name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                # Everything the child said except its result object, which
                # the report holds.
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                sys.stderr.write(done.stderr)
                if not out.exists():
                    print(f"{workload.name}: no result (exit code {done.returncode})")
                    return 1
                entry[key] = json.loads(out.read_text())
    p50 = {
        name: entry["end_to_end"]["metrics"]["sim_p50_ms"]
        for name, entry in report["workloads"].items()
    }
    report["derived"] = {
        "ndp_speedup_vs_ssd_p50": p50["ssd_serve"] / p50["ndp_serve"],
        "paper_speedup": PAPER_SPEEDUP,
        "note": UNVALIDATED,
    }
    print(f"\n{LOAD_NOTE}")
    print(
        f"derived.ndp_speedup_vs_ssd_p50 = {report['derived']['ndp_speedup_vs_ssd_p50']:.3f}x "
        f"(paper: {PAPER_SPEEDUP}x) — {UNVALIDATED}"
    )
    if args.quick:
        print('quick run: 1/10 size, one repetition, "comparable": false')
    if args.trace_out:
        traces = {
            name: {"spans": entry["per_layer"]["spans"], "layers": entry["per_layer"]["layers"]}
            for name, entry in report["workloads"].items()
        }
        Path(args.trace_out).write_text(json.dumps(traces, indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    correct = all(
        entry[key]["correct"]
        for entry in report["workloads"].values()
        for key in ("end_to_end", "per_layer")
    )
    return 0 if correct else 1


def run_one(args: argparse.Namespace) -> int:
    workload = BY_NAME[args.workload]
    scale = QUICK_SCALE if args.quick else 1.0
    if args.trace:
        detail = measure_per_layer(workload, args.seed, scale)
    else:
        detail = measure_end_to_end(
            workload, args.seed,
            seconds=0.0 if args.quick else args.seconds,
            scale=scale,
            min_reps=1 if args.quick else MIN_REPS,
        )
    detail["comparable"] = not args.quick
    print_detail(detail)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1))
    if args.trace_out and args.trace:
        Path(args.trace_out).write_text(
            json.dumps({workload.name: {"spans": detail["spans"], "layers": detail["layers"]}}, indent=1)
        )
    print(result_line(detail))
    return 0 if detail["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="python3 -m perf.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=13, help="draws every workload's request contents")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
                        help="measure each workload for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced, per-layer run")
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--trace-out", help="write spans and per-layer tables (JSON) here")
    parser.add_argument("--quick", action="store_true",
                        help='1/10 size, one repetition; report stamped "comparable": false')
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args, argv)


if __name__ == "__main__":
    sys.exit(main())
