"""The golden files: one registry, one envelope, one comparator.

A family is a JSON file in this directory and the named builders that
record its scenarios; a builder is a zero-argument callable returning
plain JSON data.  Every file has the same envelope::

    {"generated_at_commit": "<sha>",           # the commit it was written on
     "src_unchanged_since_commit": <bool>,      # src/ was clean there
     "scenarios": {"<name>": <record>, ...},
     ...}                                       # a family's extra fields

``tests/test_golden.py`` replays every scenario, and every variant a
family declares against the same recorded entries (the serving and
cluster runs with a tracer installed, the zero-update oracle).
``python -m tests.golden`` records them (see ``__main__`` for the
rules).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from repro.experiments import calibration
from repro.obs import Tracer

from . import cluster_scenarios, hotpath_scenarios, runner_scenarios, serving_scenarios
from . import workload_runs

__all__ = ["FAMILIES", "Family", "case_id", "differences"]

Builder = Callable[[], dict]


@dataclass(frozen=True)
class Family:
    filename: str
    scenarios: Mapping[str, Builder]
    # variant -> scenario -> builder, replayed against that scenario's entry.
    variants: Mapping[str, Mapping[str, Builder]] = field(default_factory=dict)
    # Record fields ``--check`` may re-record; every other value must replay.
    refreshable: Tuple[str, ...] = ()
    # Keys whose floats compare to 1e-4 (float32 accumulation order).
    loose: Tuple[str, ...] = ()
    # Top-level fields of a freshly written file besides the envelope.
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return Path(__file__).parent / self.filename

    def load(self) -> dict:
        return json.loads(self.path.read_text())

    def cases(self) -> Iterator[Tuple[str, str, Builder]]:
        """``(scenario, variant, builder)``; the plain replay's variant is ``""``."""
        for name, build in self.scenarios.items():
            yield name, "", build
        for variant, builders in self.variants.items():
            for name, build in builders.items():
                yield name, variant, build


def case_id(family: str, name: str, variant: str) -> str:
    return "/".join(part for part in (family, name, variant) if part)


def differences(path: str, expected, actual, loose: Tuple[str, ...] = ()) -> List[str]:
    """Every place at which ``actual`` differs from the recorded ``expected``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: {type(actual).__name__} where a dict was recorded"]
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(map(str, actual))} != {sorted(expected)}"]
        return [
            found
            for key in expected
            for found in differences(f"{path}.{key}", expected[key], actual[key], loose)
        ]
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [
            found
            for i, (e, a) in enumerate(zip(expected, actual))
            for found in differences(f"{path}[{i}]", e, a, loose)
        ]
    if isinstance(expected, float) and path.endswith(loose):
        if math.isclose(expected, actual, rel_tol=1e-4, abs_tol=1e-4):
            return []
    elif expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def traced(scenarios: Mapping[str, Callable[..., dict]]) -> Dict[str, Builder]:
    """Each builder with a tracer installed: tracing observes and never
    perturbs, so the record is the one recorded without it."""

    def replay(build: Callable[..., dict]) -> dict:
        tracer = Tracer()
        record = build(tracer=tracer)
        assert len(tracer) > 0, "the tracer never ran"
        return record

    return {name: partial(replay, build) for name, build in scenarios.items()}


def calibration_fast() -> dict:
    """The §5 envelope in fast mode: the only experiment whose NVMe
    commands span many flash pages (128 KB sequential reads)."""
    return {row["metric"]: row["measured"].hex() for row in calibration.run(fast=True).rows}


FAMILIES: Dict[str, Family] = {
    "hotpath": Family("hotpath_golden.json", hotpath_scenarios.SCENARIOS, loose=("values_sum",)),
    "serving": Family(
        "serving_golden.json",
        serving_scenarios.SERVING,
        variants={
            "traced": traced(serving_scenarios.SERVING),
            "zero_update": {"mixed_tenants_default_pools": serving_scenarios.zero_update},
        },
    ),
    "cluster": Family(
        "cluster_golden.json",
        cluster_scenarios.SCENARIOS,
        variants={"traced": traced(cluster_scenarios.SCENARIOS)},
    ),
    "updates": Family("updates_golden.json", serving_scenarios.UPDATES),
    "runner": Family(
        "runner_golden.json", runner_scenarios.SCENARIOS, refreshable=("sim_events",)
    ),
    "calibration": Family("calibration_golden.json", {"fast": calibration_fast}),
    "digests": Family(
        "perf_digests.json",
        workload_runs.SCENARIOS,
        refreshable=("sim_events",),
        extras={"scale": workload_runs.SCALE},
    ),
}
