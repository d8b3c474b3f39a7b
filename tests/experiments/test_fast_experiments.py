"""Cheap experiments: Table 1 and the experiment registry.  The paper's
qualitative claims are ``test_claims.py``'s."""

import pytest

from repro.experiments import table1_params
from repro.experiments.cli import REGISTRY, run_experiment


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
            "ablations", "calibration", "multi_ssd", "qos", "claims",
        }
        assert set(REGISTRY) == expected

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run_experiment("fig99")

    def test_to_text_renders(self, results):
        text = results("fig3").to_text()
        assert "fig3" in text and "page_size" in text
