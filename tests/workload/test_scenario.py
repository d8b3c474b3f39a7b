"""Scenario specs: validation, end-to-end runs, QoS acceptance claims."""

import numpy as np
import pytest

from repro.workload import (
    ArrivalTrace,
    ScenarioSpec,
    TenantSpec,
    UpdateStreamSpec,
    run_scenario,
    tenant_samplers,
)

from ..serving.conftest import toy_model

NAN = float("nan")


def open_tenant(model="toy", rate=1500.0, n=16, **kwargs):
    return TenantSpec(
        model=model, arrival="open", rate=rate, n_requests=n, **kwargs
    )


class TestSpecValidation:
    def test_tenant_arrival_requirements(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            TenantSpec(model="m", arrival="bursty")
        with pytest.raises(ValueError, match="rate and n_requests"):
            TenantSpec(model="m", arrival="open")
        with pytest.raises(ValueError, match="num_clients"):
            TenantSpec(model="m", arrival="closed")
        with pytest.raises(ValueError, match="trace"):
            TenantSpec(model="m", arrival="replay")
        with pytest.raises(ValueError, match="slo_s"):
            open_tenant(slo_s=-0.1)

    def test_replay_trace_must_be_recorded_for_the_tenant_model(self):
        trace = ArrivalTrace.uniform("other", 100.0, 5)
        with pytest.raises(ValueError, match="'m'.*'other'"):
            TenantSpec(model="m", arrival="replay", trace=trace)
        assert TenantSpec(model="other", arrival="replay", trace=trace).total_requests == 5

    def test_a_tenant_with_no_arrivals_is_refused(self):
        """An empty replay trace is refused like an open tenant of zero
        requests; the trace object alone used to pass the check."""
        with pytest.raises(ValueError, match="open tenant 'toy' needs rate and n_requests"):
            TenantSpec(model="toy", arrival="open", rate=100.0, n_requests=0)
        with pytest.raises(ValueError, match="replay tenant 'toy' has no arrivals"):
            TenantSpec(model="toy", arrival="replay", trace=ArrivalTrace("toy", []))

    def test_scenario_requirements(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            ScenarioSpec(name="empty", tenants=())
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(
                name="dup", tenants=(open_tenant(), open_tenant())
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad-backend",
                tenants=(open_tenant(),),
                backend="gpu",
            )

    @pytest.mark.parametrize("field", ["rate", "zipf_alpha"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_update_stream_rate_and_skew_must_be_positive(self, field, value):
        knobs = {"rate": 500.0, "n_updates": 4, field: value}
        with pytest.raises(ValueError, match=field):
            UpdateStreamSpec(**knobs)

    @pytest.mark.parametrize("field", ["min_gap_s", "defer_s", "max_defer_s"])
    @pytest.mark.parametrize("value", [NAN, -1.0])
    def test_update_stream_write_timing_refused_at_construction(self, field, value):
        # Regression: NaN was accepted, and -1.0 failed only when a run
        # built the update engine.
        with pytest.raises(ValueError, match=field):
            UpdateStreamSpec(rate=500.0, n_updates=4, **{field: value})

    @pytest.mark.parametrize(
        "arrival, knobs, match",
        [
            ("open", {"rate": NAN}, "rate"),
            ("closed", {"rate": NAN}, "rate"),
            ("open", {"slo_s": NAN}, "slo_s"),
            ("closed", {"think_time_s": NAN}, "think_time_s"),
            ("closed", {"think_time_s": -1.0}, "think_time_s"),
            ("open", {"locality_k": NAN}, "locality_k"),
            ("open", {"zipf_alpha": NAN}, "zipf_alpha"),
            ("open", {"batch_size": 0}, "batch_size"),
        ],
        ids=[
            "open-rate-nan", "closed-rate-nan", "slo-nan", "think-nan",
            "think-negative", "locality-nan", "zipf-nan", "batch-zero",
        ],
    )
    def test_tenant_refuses_nan_and_out_of_range(self, arrival, knobs, match):
        base = {
            "open": {"rate": 100.0, "n_requests": 4},
            "closed": {"num_clients": 2, "requests_per_client": 2},
        }[arrival]
        with pytest.raises(ValueError, match=match):
            TenantSpec(model="m", arrival=arrival, **{**base, **knobs})

    @pytest.mark.parametrize(
        "knobs",
        [
            {"dense_time_scale": NAN},
            {"drop_headroom_s": NAN},
            {"drop_headroom_s": -1e-3},
        ],
        ids=["dense-scale-nan", "headroom-nan", "headroom-negative"],
    )
    def test_scenario_refuses_nan_and_out_of_range(self, knobs):
        (field,) = knobs
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(name="bad", tenants=(open_tenant(),), **knobs)

    def test_total_requests(self):
        spec = ScenarioSpec(
            name="mix",
            tenants=(
                open_tenant(model="a", n=10),
                TenantSpec(
                    model="b",
                    arrival="closed",
                    num_clients=3,
                    requests_per_client=4,
                ),
                TenantSpec(
                    model="c",
                    arrival="replay",
                    trace=ArrivalTrace.uniform("c", 100.0, 5),
                ),
            ),
        )
        assert spec.total_requests == 10 + 12 + 5

    def test_admission_config_gathers_tenant_knobs(self):
        spec = ScenarioSpec(
            name="qos",
            tenants=(
                open_tenant(model="hi", slo_s=0.01, priority=2, quota=4),
                open_tenant(model="lo", slo_s=0.05),
            ),
            deadline_drop=True,
            drop_headroom_s=0.002,
        )
        admission = spec.admission_config()
        assert admission.deadline_drop
        assert admission.drop_headroom_s == 0.002
        assert admission.slo_by_model == {"hi": 0.01, "lo": 0.05}
        assert admission.priority_by_model == {"hi": 2}
        assert admission.quota_by_model == {"hi": 4}

    def test_unknown_model_rejected(self):
        spec = ScenarioSpec(name="s", tenants=(open_tenant(model="ghost"),))
        with pytest.raises(KeyError, match="ghost"):
            run_scenario(spec, [toy_model()])

    def test_tenant_samplers_exclusive(self):
        model = toy_model()
        with pytest.raises(ValueError, match="not both"):
            tenant_samplers(model, locality_k=1.0, zipf_alpha=1.2)
        assert tenant_samplers(model) is None
        zipf = tenant_samplers(model, zipf_alpha=1.2)
        assert set(zipf) == {f.name for f in model.features}


class TestScenarioRuns:
    def test_multi_tenant_mix_end_to_end(self):
        spec = ScenarioSpec(
            name="mix",
            tenants=(
                open_tenant(model="a", n=12, batch_size=2, zipf_alpha=1.1),
                TenantSpec(
                    model="b",
                    arrival="closed",
                    num_clients=2,
                    requests_per_client=5,
                    think_time_s=0.001,
                    locality_k=1.0,
                ),
            ),
            seed=3,
        )
        result = run_scenario(
            spec, [toy_model(name="a", seed=1), toy_model(name="b", seed=2)]
        )
        assert result.summary["completed"] == 22
        assert result.lane("a")["submitted"] == 12
        assert result.lane("b")["submitted"] == 10
        assert result.stats.inflight == 0

    def test_fixed_seed_reproducible(self):
        spec = ScenarioSpec(
            name="repro",
            tenants=(open_tenant(n=14, batch_size=2, slo_s=0.01),),
            deadline_drop=True,
            seed=9,
        )
        a = run_scenario(spec, [toy_model()])
        b = run_scenario(spec, [toy_model()])
        assert a.stats.latencies == b.stats.latencies
        assert a.summary == b.summary
        assert a.lanes == b.lanes

    def test_latency_vs_load_curve_from_fixed_seed(self):
        """The acceptance-criteria curve: sweeping offered load at one
        seed yields a monotone-pressure latency curve end-to-end."""
        p95 = []
        for load in (400.0, 1200.0, 3600.0):
            result = run_scenario(
                ScenarioSpec(
                    name=f"load-{load}",
                    tenants=(open_tenant(rate=load, n=24, batch_size=2),),
                    seed=17,
                ),
                [toy_model()],
            )
            p95.append(result.summary["p95_ms"])
        assert p95[0] > 0
        # Tails grow (weakly) with offered load; heavy overload is
        # strictly worse than light load.
        assert p95[0] <= p95[1] * 1.05 and p95[1] <= p95[2] * 1.05
        assert p95[2] > p95[0]


class TestQosAcceptance:
    def test_deadline_admission_beats_reject_at_limit_goodput(self):
        """The PR's acceptance bar, as a tier-1 test: under 2x overload
        the deadline-aware policy converts strictly more submissions
        into within-deadline completions than reject-at-limit."""
        from repro.experiments.ext_qos import calibrate, run_admission_policy

        calibration = calibrate(seed=0)
        reject, _ = run_admission_policy(
            "reject", calibration, n_requests=96, seed=0
        )
        deadline, _ = run_admission_policy(
            "deadline", calibration, n_requests=96, seed=0
        )
        assert deadline["goodput_frac"] > reject["goodput_frac"], (
            reject,
            deadline,
        )
        # And the served tail is shorter: the stale queue head is shed.
        assert deadline["p95_ms"] < reject["p95_ms"]

    def test_priority_scenario_protects_hi_lane(self):
        from repro.experiments.ext_qos import calibrate, run_admission_policy

        calibration = calibrate(seed=0)
        row, result = run_admission_policy(
            "priority", calibration, n_requests=96, seed=0
        )
        assert row["hi_goodput_frac"] > row["lo_goodput_frac"], row
        stats = result.stats
        assert stats.submitted == (
            stats.completed + stats.rejected + stats.dropped + stats.inflight
        )
