"""FaultSpec/FaultEvent validation and spec-level plumbing rules."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec
from repro.faults import FAULT_KINDS, FaultEvent, FaultSpec
from repro.serving import InferenceServer
from repro.workload import ScenarioSpec, TenantSpec, run_scenario

from ..serving.conftest import toy_model


def open_scenario(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="faulty",
        tenants=(
            TenantSpec(model="toy", arrival="open", rate=1000.0, n_requests=8),
        ),
        **kwargs,
    )


class TestFaultEvent:
    def test_valid_kinds_construct(self):
        for kind in FAULT_KINDS:
            host = "host0" if kind.startswith("host_") else None
            event = FaultEvent(t=0.5, kind=kind, host=host)
            assert event.kind == kind
            assert event.host_scoped == kind.startswith("host_")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(t=0.0, kind="meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(t=-1.0, kind="fail_slow")

    def test_fail_slow_needs_inflating_factor(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(t=0.0, kind="fail_slow", factor=1.0)
        assert FaultEvent(t=0.0, kind="fail_slow", factor=10.0).factor == 10.0

    def test_read_errors_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                FaultEvent(t=0.0, kind="read_errors", fraction=bad)
        assert FaultEvent(t=0.0, kind="read_errors", fraction=0.5).fraction == 0.5

    def test_host_kinds_require_host(self):
        for kind in ("host_fail", "host_drain", "host_restore"):
            with pytest.raises(ValueError, match="host"):
                FaultEvent(t=0.0, kind=kind)

    @pytest.mark.parametrize("kind", ["fail_slow", "host_drain"])
    def test_nan_time_rejected(self, kind):
        host = "host0" if kind.startswith("host_") else None
        with pytest.raises(ValueError, match="time"):
            FaultEvent(t=float("nan"), kind=kind, host=host)

    def test_nan_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(t=0.0, kind="fail_slow", factor=float("nan"))

    def test_negative_device_rejected(self):
        with pytest.raises(ValueError, match="device"):
            FaultEvent(t=0.0, kind="fail_slow", device=-1)


class TestFaultSpec:
    def test_bool_and_hosts(self):
        assert not FaultSpec()
        spec = FaultSpec(
            events=(
                FaultEvent(t=0.1, kind="host_fail", host="host1"),
                FaultEvent(t=0.2, kind="fail_slow", host="host0"),
            )
        )
        assert spec
        assert spec.hosts == ("host0", "host1")

    def test_events_must_be_fault_events(self):
        with pytest.raises(TypeError):
            FaultSpec(events=("fail_slow",))


class TestSpecPlumbing:
    """``ScenarioSpec.faults`` is the one schedule of every run.  A
    standalone run refuses a host-naming event in the injector, before
    traffic; a fleet refuses an event that names no host of it."""

    def test_scenario_accepts_device_faults(self):
        spec = open_scenario(
            faults=FaultSpec(events=(FaultEvent(t=0.1, kind="fail_slow"),))
        )
        assert spec.faults and len(spec.faults.events) == 1

    def test_standalone_run_refuses_a_host_naming_event_before_traffic(
        self, monkeypatch
    ):
        submitted = []
        submit = InferenceServer.submit

        def counting_submit(server, *args, **kwargs):
            submitted.append(args[0])
            return submit(server, *args, **kwargs)

        monkeypatch.setattr(InferenceServer, "submit", counting_submit)
        for event in (
            FaultEvent(t=0.0, kind="host_fail", host="host0"),
            FaultEvent(t=0.0, kind="fail_slow", host="host0"),
        ):
            # The spec holds it (a fleet would run it); the run refuses it.
            spec = open_scenario(faults=FaultSpec(events=(event,)))
            with pytest.raises(ValueError, match="needs a cluster"):
                run_scenario(spec, [toy_model()])
        assert submitted == []
        # The counter sees traffic when there is some.
        run_scenario(open_scenario(), [toy_model()])
        assert len(submitted) == 8

    def test_cluster_refuses_a_fault_on_an_unknown_host(self):
        for event in (
            FaultEvent(t=0.1, kind="fail_slow", host="host9"),
            FaultEvent(t=0.1, kind="host_drain", host="host2"),
        ):
            with pytest.raises(ValueError, match="unknown host"):
                ClusterSpec(
                    name="ghost",
                    scenario=open_scenario(faults=FaultSpec(events=(event,))),
                    n_hosts=2,
                )

    def test_cluster_refuses_a_device_event_naming_no_host(self):
        with pytest.raises(ValueError, match="must name a host"):
            ClusterSpec(
                name="anon",
                scenario=open_scenario(
                    faults=FaultSpec(events=(FaultEvent(t=0.1, kind="fail_slow"),))
                ),
                n_hosts=2,
            )
        named = FaultSpec(
            events=(
                FaultEvent(t=0.1, kind="host_drain", host="host1"),
                FaultEvent(t=0.1, kind="fail_slow", host="host0"),
            )
        )
        spec = ClusterSpec(
            name="named", scenario=open_scenario(faults=named), n_hosts=2
        )
        assert spec.scenario.faults is named
