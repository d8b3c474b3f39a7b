"""Cheap experiments: run them and assert the paper's qualitative claims."""

import pytest

from repro.experiments import fig8_breakdown, table1_params
from repro.experiments.cli import REGISTRY, run_experiment


class TestFig3:
    def test_power_law_concentration(self, fig3):
        for row in fig3.rows:
            # "a few hundred pages capture 30% of reuses"
            assert row["pages_for_30pct"] < 1000
            # "caching a few thousand pages can extend reuse over 50%"
            assert row["pages_for_50pct"] < 10_000
            assert row["pages_for_30pct"] < row["pages_for_50pct"] < row["pages_for_80pct"]

    def test_larger_pages_fewer_distinct(self, fig3):
        distinct = fig3.column("distinct_pages")
        assert distinct[0] > distinct[1] > distinct[2]


class TestFig4:
    def test_hit_rate_spread_and_capacity_trend(self, fig4):
        hits = [float(r["hit_rate"]) for r in fig4.rows]
        assert min(hits) < 0.10   # "under 10%"
        assert max(hits) > 0.90   # "over 90%"
        # Hit rate grows with capacity for each table.
        by_table = {}
        for row in fig4.rows:
            by_table.setdefault(row["table"], []).append(
                (row["cache_mb"], row["hit_rate"])
            )
        for entries in by_table.values():
            entries.sort()
            rates = [h for _mb, h in entries]
            assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_16mb_captures_half_of_reuse(self, fig4):
        for row in fig4.rows:
            if row["cache_mb"] >= 16:
                assert float(row["reuse_capture"]) >= 0.4


class TestFig5:
    def test_ssd_orders_of_magnitude_slower(self, fig5):
        for row in fig5.rows:
            if row["batch"] >= 8:
                assert float(row["slowdown"]) > 100.0

    def test_latency_grows_with_batch(self, fig5):
        ssd = [float(r["ssd_ms"]) for r in fig5.rows]
        assert ssd == sorted(ssd)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_breakdown.run(fast=True)

    def test_ndp_wins_strided(self, result):
        for row in result.filter(pattern="STR"):
            assert float(row["ndp_speedup"]) > 2.5

    def test_baseline_wins_sequential(self, result):
        for row in result.filter(pattern="SEQ"):
            assert float(row["ndp_speedup"]) < 1.0

    def test_translation_dominates_ndp_ftl_time(self, result):
        for row in result.filter(pattern="STR"):
            total = (
                float(row["config_write_ms"])
                + float(row["config_process_ms"])
                + float(row["translation_ms"])
                + float(row["flash_read_ms"])
            )
            assert float(row["translation_ms"]) / total > 0.35

    def test_seq_touches_fewer_pages_than_str(self, result):
        by_batch = {}
        for row in result.rows:
            by_batch.setdefault(row["batch"], {})[row["pattern"]] = row
        for rows in by_batch.values():
            assert rows["SEQ"]["flash_pages"] < rows["STR"]["flash_pages"]


class TestTable1:
    def test_parameters_verified(self):
        result = table1_params.run()
        assert [r["benchmark"] for r in result.rows] == ["RM1", "RM2", "RM3"]
        assert all(r["model_verified"] for r in result.rows)


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig3", "fig4", "fig5", "fig6", "table1",
            "fig8", "fig9", "fig10", "fig11",
            "ablations", "calibration", "multi_ssd", "qos",
        }
        assert set(REGISTRY) == expected

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run_experiment("fig99")

    def test_to_text_renders(self, fig3):
        text = fig3.to_text()
        assert "fig3" in text and "page_size" in text
