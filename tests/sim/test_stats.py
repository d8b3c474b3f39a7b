"""Tests for statistics primitives, including property-based checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    Accumulator,
    Breakdown,
    summarize_latencies,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAccumulator:
    def test_empty(self):
        acc = Accumulator()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.variance == 0.0

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_numpy(self, values):
        acc = Accumulator()
        acc.extend(values)
        assert acc.count == len(values)
        assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)
        assert acc.minimum == min(values)
        assert acc.maximum == max(values)
        assert acc.total == pytest.approx(float(np.sum(values)), rel=1e-9, abs=1e-6)
        if len(values) > 1:
            assert acc.variance == pytest.approx(
                float(np.var(values, ddof=1)), rel=1e-6, abs=1e-6
            )

    def test_stdev_is_sqrt_variance(self):
        acc = Accumulator()
        acc.extend([1.0, 2.0, 3.0, 4.0])
        assert acc.stdev == pytest.approx(math.sqrt(acc.variance))


class TestBreakdown:
    def test_add_and_total(self):
        bd = Breakdown()
        bd.add("a", 1.0)
        bd.add("a", 2.0)
        bd.add("b", 1.0)
        assert bd.get("a") == pytest.approx(3.0)
        assert bd.total == pytest.approx(4.0)

    def test_fractions_sum_to_one(self):
        bd = Breakdown({"x": 1.0, "y": 3.0})
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["y"] == pytest.approx(0.75)

    def test_merge_and_scale(self):
        a = Breakdown({"x": 1.0})
        b = Breakdown({"x": 2.0, "y": 1.0})
        a.merge(b)
        assert a.get("x") == pytest.approx(3.0)
        scaled = a.scaled(2.0)
        assert scaled.get("y") == pytest.approx(2.0)
        assert a.get("y") == pytest.approx(1.0)  # original unchanged

    def test_copy_is_independent(self):
        a = Breakdown({"x": 1.0})
        b = a.copy()
        b.add("x", 1.0)
        assert a.get("x") == pytest.approx(1.0)


class TestSummaries:
    def test_summarize_latencies(self):
        latencies = [i * 1e-3 for i in range(1, 101)]
        summary = summarize_latencies(latencies)
        assert summary["count"] == 100
        assert summary["mean_ms"] == pytest.approx(50.5)
        assert summary["min_ms"] == pytest.approx(1.0)
        assert summary["max_ms"] == pytest.approx(100.0)
        assert summary["p50_ms"] == pytest.approx(50.0, abs=2.0)
        assert summary["p99_ms"] == pytest.approx(99.0, abs=2.0)
