"""Periodic sampler and serving probe unit tests."""

from __future__ import annotations

import pytest

from repro.obs import PeriodicSampler, serving_probe
from repro.sim.kernel import Simulator


def test_sampler_ticks_on_sim_clock():
    sim = Simulator()
    values = {"x": 0.0}
    sampler = PeriodicSampler(sim, lambda: dict(values), period_s=0.1)
    sampler.start()
    sim.schedule(0.15, lambda: values.update(x=5.0))
    sim.run(until=0.35)
    # Ticks at 0.1 (x=0), 0.2 (x=5), 0.3 (x=5); tick times accumulate
    # float steps, so compare them approximately.
    series = sampler.series("x")
    assert [v for _, v in series] == [0.0, 5.0, 5.0]
    assert [t for t, _ in series] == pytest.approx([0.1, 0.2, 0.3])
    sampler.stop()
    assert not sampler.running
    sampler.reset_stats()
    assert sampler.samples == []


def test_sampler_max_samples_self_stops():
    sim = Simulator()
    sampler = PeriodicSampler(sim, lambda: {"x": 1.0}, 0.1, max_samples=2).start()
    sim.run(until=10.0)
    assert len(sampler.samples) == 2
    assert not sampler.running  # no immortal heartbeat left behind


def test_sampler_stop_cancels_pending_tick():
    sim = Simulator()
    sampler = PeriodicSampler(sim, lambda: {"x": 1.0}, 0.1).start()
    sampler.stop()
    sim.run()
    assert sampler.samples == []


def test_sampler_validates_knobs():
    sim = Simulator()
    with pytest.raises(ValueError, match=r"PeriodicSampler\.period_s must be"):
        PeriodicSampler(sim, lambda: {}, 0.0)
    with pytest.raises(ValueError, match=r"PeriodicSampler\.max_samples must be"):
        PeriodicSampler(sim, lambda: {}, 1.0, max_samples=0)
    # Regression: a NaN period was accepted, then start() died with a SimError.
    with pytest.raises(ValueError, match=r"PeriodicSampler\.period_s must be"):
        PeriodicSampler(sim, lambda: {}, float("nan"))


def test_serving_probe_reads_live_server_shape():
    from repro.serving import ServingConfig

    from ..serving.conftest import build_server, toy_model

    import numpy as np

    model = toy_model()
    server = build_server(
        model, serving_config=ServingConfig(max_batch_requests=4)
    )
    probe = serving_probe(server)
    sampler = PeriodicSampler(server.sim, probe, period_s=0.001)
    sampler.start()
    rng = np.random.default_rng(0)
    for _ in range(8):
        server.submit(model.name, model.sample_batch(rng, 2))
    server.run_until_settled()
    sampler.stop()
    assert sampler.samples, "sampler never ticked during the run"
    final = probe()
    assert final["completed"] == float(server.stats.completed) == 8.0
    assert final["dropped"] == 0.0 and final["rejected"] == 0.0
    assert final["queue_depth"] == 0.0 and final["inflight"] == 0.0
    # The SSD-backed system exposes GC/FTL gauges through the probe.
    assert "ftl_page_reads" in final and final["ftl_page_reads"] >= 0.0
    # Mid-run samples saw the monotone completion ramp.
    completed_series = [v for _, v in sampler.series("completed")]
    assert completed_series == sorted(completed_series)
