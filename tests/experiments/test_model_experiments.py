"""End-to-end experiments (fig6/fig9/fig10/fig11): the paper's headline
shapes, on reduced sweeps to keep the suite's runtime reasonable.
"""

import pytest

from repro.experiments import fig6_end_to_end, fig9_naive_ndp, fig10_caching
from repro.experiments import fig11_sensitivity

pytestmark = pytest.mark.slow


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_end_to_end.run(fast=True, models=("wnd", "dien", "ncf", "rm1", "rm3"))

    def test_mlp_dominated_near_dram(self, result):
        for name in ("wnd", "dien", "ncf"):
            row = result.filter(model=name)[0]
            assert float(row["slowdown"]) < 1.5, name

    def test_embedding_dominated_degrade_orders_of_magnitude(self, result):
        for name in ("rm1", "rm3"):
            row = result.filter(model=name)[0]
            assert float(row["slowdown"]) > 50.0, name

    def test_outputs_validated_inline(self, result):
        # run() raises if SSD outputs diverge from DRAM; reaching here with
        # rows present means the check passed for every model.
        assert len(result.rows) == 5


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_naive_ndp.run(fast=True, models=("wnd", "ncf", "rm1", "rm3"))

    def test_mlp_dominated_unaffected(self, result):
        for name in ("wnd", "ncf"):
            row = result.filter(model=name)[0]
            assert 0.8 < float(row["ndp_speedup"]) < 1.3, name

    def test_embedding_dominated_accelerated(self, result):
        for name in ("rm1", "rm3"):
            row = result.filter(model=name)[0]
            assert float(row["ndp_speedup"]) > 2.0, name


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_caching.run(fast=True)

    def test_baseline_competitive_at_high_locality(self, result):
        for row in result.filter(K=0):
            assert float(row["speedup_cache"]) < 1.4

    def test_recssd_wins_at_low_locality(self, result):
        for row in result.filter(K=2):
            assert float(row["speedup_cache"]) > 1.5

    def test_partition_improves_recssd(self, result):
        for row in result.rows:
            assert float(row["speedup_part"]) >= float(row["speedup_cache"]) * 0.9

    def test_lru_hit_rates_follow_locality(self, result):
        k0 = result.filter(K=0)
        k2 = result.filter(K=2)
        assert min(float(r["lru_hit"]) for r in k0) > max(
            float(r["lru_hit"]) for r in k2
        )
        for row in k0:
            assert float(row["lru_hit"]) == pytest.approx(0.84, abs=0.10)

    def test_headline_2x_with_partitioning(self, result):
        best = max(float(r["speedup_part"]) for r in result.rows)
        assert best >= 2.0


class TestFig11:
    def test_feature_size_decreases_ndp_benefit(self, fig11_feature_quant):
        fp32 = sorted(
            (int(r["dim"]), float(r["ndp_speedup"]))
            for r in fig11_feature_quant.rows
            if r["dtype"] == "fp32"
        )
        assert fp32[0][1] > fp32[-1][1]

    def test_quantization_recovers_ndp_benefit(self, fig11_feature_quant):
        rows = fig11_feature_quant.rows
        dim = max(int(r["dim"]) for r in rows)
        fp32 = [r for r in rows if r["dtype"] == "fp32" and r["dim"] == dim][0]
        int8 = [r for r in rows if r["dtype"] == "int8" and r["dim"] == dim][0]
        assert float(int8["ndp_speedup"]) > float(fp32["ndp_speedup"])

    def test_ndp_speedup_positive_across_sweeps(self):
        result = fig11_sensitivity.run_indices_tables(fast=True)
        for row in result.rows:
            assert float(row["ndp_speedup"]) > 1.5
