"""The hot path must keep reproducing the simulated numbers it was born with.

``hotpath_golden.json`` was recorded on the scalar (pre-vectorization)
implementations of the caches, SLS backends and FTL read path.  Those
are gone from ``src/`` — what is left of them is history and the
reference files under ``tests/`` — and this replay is what holds the one
remaining path to them: the same fixed-seed scenarios must yield the
*exact* same simulated times, stats and device counters.  Accumulated
float32 values may differ in summation order only, hence allclose.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from ..golden.hotpath_scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "hotpath_golden.json"


def _assert_matches(path: str, expected, actual) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: type mismatch"
        assert sorted(expected) == sorted(actual), f"{path}: key mismatch"
        for key in expected:
            _assert_matches(f"{path}.{key}", expected[key], actual[key])
        return
    if isinstance(expected, list):
        assert len(expected) == len(actual), f"{path}: length mismatch"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(f"{path}[{i}]", e, a)
        return
    if isinstance(expected, float) and path.endswith("values_sum"):
        # float32 accumulation order may legitimately differ.
        assert math.isclose(expected, actual, rel_tol=1e-4, abs_tol=1e-4), (
            f"{path}: {actual} !~ {expected}"
        )
        return
    assert expected == actual, f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name, golden):
    assert name in golden, f"regenerate golden file (missing {name})"
    _assert_matches(name, golden[name], SCENARIOS[name]())
