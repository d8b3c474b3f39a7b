"""``perf.compare`` applies the right rule to each kind of metric."""

from perf.compare import compare, verdict


def test_simulated_metrics_must_be_equal():
    assert verdict("sim_p99_ms", 1.25, 1.25)[0]
    assert not verdict("sim_p99_ms", 1.25, 1.2500001)[0]
    assert not verdict("sim_throughput_rps", 400.0, 401.0)[0]     # better is still a change


def test_host_metrics_get_their_bound():
    assert verdict("host_req_per_s", 100.0, 120.0)[0]             # faster
    assert verdict("host_req_per_s", 100.0, 90.0)[0]              # within the bound
    assert not verdict("host_req_per_s", 100.0, 50.0)[0]
    assert not verdict("peak_rss_mb", 100.0, 150.0)[0]
    assert verdict("setup_s", 0.05, 0.09)[0]                      # under the 0.05 s floor
    assert not verdict("setup_s", 3.0, 4.5)[0]


def test_failed_frac_may_not_rise():
    assert verdict("failed_frac", 0.0, 0.0)[0]
    assert not verdict("failed_frac", 0.0, 0.001)[0]


def _report(p99, digest="abc"):
    run = {"metrics": {"sim_p99_ms": p99, "host_req_per_s": 300.0}, "sim_digest": digest}
    return {"workloads": {"ssd_serve": {"end_to_end": run}}}


def test_every_pair_gets_a_row_and_violations_are_counted():
    rows, violations = compare(_report(2.0), _report(2.0))
    assert violations == 0 and len(rows) == 1 + 3
    rows, violations = compare(_report(2.0), _report(2.5, digest="xyz"))
    assert violations == 2
    assert sum("VIOLATION" in row for row in rows) == 2
