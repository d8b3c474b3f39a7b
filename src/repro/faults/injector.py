"""Arms a :class:`FaultSpec` on a sim kernel and applies each event.

The injector mutates *live* component state — flash timing, reliability
model, NDP/device down flags, host lifecycle — at each event's simulated
time, and keeps the original objects so repair events restore them
exactly.  Nothing is wrapped or proxied: with an empty schedule the
injector schedules zero events and touches zero hot-path state, which is
what keeps fault-free runs bit-identical to a build without this module.

Timing swaps key originals by ``id(device)`` and always scale from the
*original* timing, so repeated ``fail_slow`` events re-derive rather
than compound.  ``FlashChannel`` holds its own timing reference (die
occupancy uses the channel's copy while batched reads use the array's),
so both are swapped together.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from ..flash.reliability import ReadRetryModel, ReliabilityConfig
from .spec import FaultEvent, FaultSpec

__all__ = ["FaultStats", "FaultInjector"]


class FaultStats:
    """Injection-side accounting: what actually fired, and when."""

    def __init__(self) -> None:
        self.reset_stats()

    def reset_stats(self) -> None:
        self.injected = 0
        self.by_kind: Dict[str, int] = {}
        self.log: List[Dict[str, object]] = []

    def record(self, t: float, event: FaultEvent, detail: object) -> None:
        self.injected += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.log.append(
            {
                "t": t,
                "kind": event.kind,
                "host": event.host,
                "device": event.device,
                "detail": detail,
            }
        )


class FaultInjector:
    """Schedules a :class:`FaultSpec` against one server or a cluster."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.stats = FaultStats()
        # id(device) -> original object, saved on first mutation so a
        # later repair (or a second fault) starts from pristine state.
        self._orig_timing: Dict[int, object] = {}
        self._orig_reliability: Dict[int, ReadRetryModel] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm_server(self, server) -> None:
        """Arm on a standalone :class:`InferenceServer`.

        The one place a standalone run refuses an event that names a
        host (host lifecycle kinds always do): there is no fleet.  All
        are checked before any is scheduled."""
        for event in self.spec.events:
            if event.host is not None:
                raise ValueError(
                    f"{event.kind} (host={event.host!r}) needs a cluster"
                )
        self._arm(server.sim, lambda event: server)

    def arm_cluster(self, cluster) -> None:
        """Arm on a :class:`~repro.cluster.cluster.Cluster`."""

        def resolve(event: FaultEvent):
            if event.host_scoped:
                return cluster
            if event.host is None:
                raise ValueError(
                    f"{event.kind} in a cluster needs an explicit host"
                )
            return cluster.node(event.host).server

        self._arm(cluster.sim, resolve)

    def _arm(self, sim, resolve: Callable[[FaultEvent], object]) -> None:
        for event in self.spec.events:
            sim.schedule_at(
                event.t, lambda e=event: self._apply(sim, e, resolve(e))
            )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _device(self, server, event: FaultEvent):
        devices = server.system.devices
        if not 0 <= event.device < len(devices):
            raise ValueError(
                f"device {event.device} out of range (host has "
                f"{len(devices)} devices)"
            )
        return devices[event.device]

    def _apply(self, sim, event: FaultEvent, target) -> None:
        handler = getattr(self, f"_do_{event.kind}")
        detail = handler(event, target)
        self.stats.record(sim.now, event, detail)
        tracer = sim.tracer
        if tracer is not None:
            tracer.event(
                "fault",
                kind=event.kind,
                host=event.host,
                device=event.device,
                detail=repr(detail) if detail is not None else None,
            )

    # -- device timing --------------------------------------------------
    def _do_fail_slow(self, event: FaultEvent, server) -> object:
        device = self._device(server, event)
        orig = self._orig_timing.setdefault(id(device), device.flash.timing)
        f = event.factor
        slowed = replace(
            orig,
            t_read_s=orig.t_read_s * f,
            t_program_s=orig.t_program_s * f,
            t_erase_s=orig.t_erase_s * f,
            t_cmd_s=orig.t_cmd_s * f,
            channel_bw_bytes_s=orig.channel_bw_bytes_s / f,
        )
        self._swap_timing(device, slowed)
        return {"factor": f}

    def _do_restore_speed(self, event: FaultEvent, server) -> object:
        device = self._device(server, event)
        orig = self._orig_timing.get(id(device))
        if orig is not None:
            self._swap_timing(device, orig)
        return {"restored": orig is not None}

    @staticmethod
    def _swap_timing(device, timing) -> None:
        device.flash.timing = timing
        for channel in device.flash.channels:
            channel.timing = timing

    # -- read errors ----------------------------------------------------
    def _do_read_errors(self, event: FaultEvent, server) -> object:
        device = self._device(server, event)
        orig = self._orig_reliability.setdefault(
            id(device), device.flash.reliability
        )
        device.flash.reliability = ReadRetryModel(
            ReliabilityConfig(
                read_fail_probability=event.fraction,
                max_read_retries=orig.config.max_read_retries,
                seed=event.seed,
            )
        )
        return {"fraction": event.fraction}

    def _do_clear_read_errors(self, event: FaultEvent, server) -> object:
        device = self._device(server, event)
        orig = self._orig_reliability.get(id(device))
        if orig is not None:
            device.flash.reliability = orig
        return {"restored": orig is not None}

    # -- NDP engine / whole device --------------------------------------
    def _do_ndp_crash(self, event: FaultEvent, server) -> object:
        self._device(server, event).ndp.down = True
        return None

    def _do_ndp_restore(self, event: FaultEvent, server) -> object:
        self._device(server, event).ndp.down = False
        return None

    def _do_device_down(self, event: FaultEvent, server) -> object:
        self._device(server, event).down = True
        return None

    def _do_device_up(self, event: FaultEvent, server) -> object:
        self._device(server, event).down = False
        return None

    # -- host lifecycle (cluster only) ----------------------------------
    def _do_host_fail(self, event: FaultEvent, cluster) -> object:
        return {"shed": cluster.fail(event.host)}

    def _do_host_drain(self, event: FaultEvent, cluster) -> object:
        cluster.drain(event.host)
        return None

    def _do_host_restore(self, event: FaultEvent, cluster) -> object:
        cluster.restore(event.host)
        return None

    def reset_stats(self) -> None:
        self.stats.reset_stats()
