"""Device calibration: the run the ``calibration`` golden pins reports
every metric (its target ranges are claims in
``repro.experiments.claims``)."""


class TestCalibration:
    def test_run_produces_all_metrics(self, results):
        metrics = {r["metric"] for r in results("calibration").rows}
        assert metrics == {
            "sequential_read_GB_s",
            "random_read_iops",
            "page_read_latency_us",
        }
