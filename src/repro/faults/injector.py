"""Arming fault plans against live components.

A :class:`FaultInjector` takes a :class:`~repro.faults.plan.FaultPlan`
and wires it into a running system:

* device faults attach a :class:`DeviceFaults` window model to
  ``Device.faults`` (consulted by every reservation transfer);
* channel faults attach a seeded :class:`ChannelFaults` loss/jitter model
  to ``Channel.faults`` (consulted by every transmit/serialize);
* scheduler faults schedule ``stop()``/``start()``/``service_scale``
  flips on the simulator's own queue;
* process faults schedule kernel-level ``interrupt()``/``abandon()``.

Every fault that actually *bites* (a transfer hits a window, a
transmission is dropped, a stop fires) increments ``faults.injected``
and is appended to ``injector.log`` — ``(virtual time, kind, target)``
tuples — which the determinism tests compare across runs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.avtime import WorldTime
from repro.errors import DeviceFaultError, FaultError, SimulationError
from repro.faults.plan import Fault, FaultPlan
from repro.sim import Process, Simulator

InjectionRecord = Tuple[float, str, str]


class DeviceFaults:
    """Outage/slowdown windows for one storage device (or scheduler)."""

    __slots__ = ("windows", "_record")

    def __init__(self, record) -> None:
        self.windows: List[Fault] = []
        self._record = record

    def add(self, fault: Fault) -> None:
        self.windows.append(fault)

    def adjust(self, now: float, duration: float, target: str) -> Tuple[float, float]:
        """Transform a transfer starting at ``now``: (extra wait, new duration)."""
        wait_s = 0.0
        for window in self.windows:
            if not window.at <= now < window.at + window.duration:
                continue
            self._record(window.kind, target)
            if window.kind == "device-outage":
                if window.mode == "error":
                    raise DeviceFaultError(
                        f"device {target!r} is down until t={window.at + window.duration:g}s"
                    )
                wait_s = max(wait_s, window.at + window.duration - now)
            else:  # slowdown
                duration *= window.factor
        return wait_s, duration


class ChannelFaults:
    """A seeded loss/jitter model for one channel.

    The random stream is seeded from ``(plan seed, channel name)``, so
    the drop/jitter sequence is a pure function of the plan and the
    (deterministic) order of transmissions.
    """

    __slots__ = ("rate", "jitter_s", "mode", "_rng", "_record")

    def __init__(self, fault: Fault, seed: int, record) -> None:
        self.rate = fault.rate
        self.jitter_s = fault.jitter_s
        self.mode = fault.mode
        self._rng = random.Random(f"{seed}:channel:{fault.target}")
        self._record = record

    def sample_drop(self, target: str) -> bool:
        if self.rate <= 0.0:
            return False
        dropped = self._rng.random() < self.rate
        if dropped:
            self._record("channel-loss", target)
        return dropped

    def sample_jitter(self) -> float:
        if self.jitter_s <= 0.0:
            return 0.0
        return self._rng.random() * self.jitter_s


class FaultInjector:
    """Arms a :class:`FaultPlan` against live components and keeps score."""

    def __init__(self, simulator: Simulator, plan: FaultPlan) -> None:
        self.simulator = simulator
        self.plan = plan
        self.log: List[InjectionRecord] = []
        metrics = simulator.obs.metrics
        self._m_injected = metrics.counter("faults.injected")
        self._armed = False

    # -- bookkeeping -------------------------------------------------------
    def record(self, kind: str, target: str) -> None:
        self._m_injected.inc()
        self.log.append((self.simulator._clock.now, kind, target))
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant(f"fault:{kind}", "faults", target=target)

    @property
    def injected(self) -> int:
        return len(self.log)

    # -- arming ------------------------------------------------------------
    def arm(self,
            devices: Union[Mapping[str, object], Iterable[object]] = (),
            schedulers: Mapping[str, object] = (),
            channels: Union[Mapping[str, object], Iterable[object]] = (),
            processes: Mapping[str, Process] = (),
            nodes: Union[Mapping[str, object], Iterable[object]] = (),
            edges: Union[Mapping[str, object], Iterable[object]] = ()) -> "FaultInjector":
        """Attach the plan's faults to the given named components.

        ``devices``, ``channels``, ``nodes`` and ``edges`` accept either
        mappings or iterables of objects carrying ``.name``;
        ``schedulers`` and ``processes`` are mappings (schedulers have
        no name of their own).  Unmatched plan targets raise — a
        silently unarmed fault would make a "survived the fault plan"
        claim meaningless.
        """
        if self._armed:
            raise SimulationError("fault plan already armed")
        self._armed = True
        device_map = _by_name(devices)
        channel_map = _by_name(channels)
        scheduler_map = dict(schedulers)
        process_map = dict(processes)
        node_map = _by_name(nodes)
        edge_map = _by_name(edges)
        for fault in self.plan:
            if fault.kind == "node-outage":
                self._arm_node(fault, _lookup(node_map, fault, "node"))
            elif fault.kind == "edge-cache-outage":
                # Same kill/restore surface as a storage node, but its
                # own namespace: a plan cannot quietly hit an edge when
                # it named a node (or vice versa).
                self._arm_node(fault, _lookup(edge_map, fault, "edge"))
            elif fault.kind.startswith("device-"):
                self._arm_device(fault, _lookup(device_map, fault, "device"))
            elif fault.kind.startswith("scheduler-"):
                self._arm_scheduler(fault, _lookup(scheduler_map, fault, "scheduler"))
            elif fault.kind == "channel-loss":
                self._arm_channel(fault, _lookup(channel_map, fault, "channel"))
            elif fault.kind == "process-crash":
                self._arm_crash(fault, _lookup(process_map, fault, "process"))
            elif fault.kind == "process-hang":
                self._arm_hang(fault, _lookup(process_map, fault, "process"))
        return self

    def _arm_node(self, fault: Fault, node) -> None:
        sim = self.simulator

        def kill() -> None:
            if node.live:
                self.record(fault.kind, fault.target)
                node.kill()
        sim.schedule_at(WorldTime(fault.at), kill)
        if fault.duration > 0:
            def restore() -> None:
                if not node.live:
                    node.restore()
            sim.schedule_at(WorldTime(fault.at + fault.duration), restore)

    def _arm_device(self, fault: Fault, device) -> None:
        if device.faults is None:
            device.faults = DeviceFaults(self.record)
        device.faults.add(fault)

    def _arm_scheduler(self, fault: Fault, scheduler) -> None:
        sim = self.simulator
        if fault.kind == "scheduler-outage":
            def stop() -> None:
                self.record(fault.kind, fault.target)
                scheduler.stop()
            sim.schedule_at(WorldTime(fault.at), stop)
            if fault.duration > 0:
                def restart() -> None:
                    if not scheduler.running:
                        scheduler.start()
                sim.schedule_at(WorldTime(fault.at + fault.duration), restart)
        else:  # scheduler-slowdown
            def slow() -> None:
                self.record(fault.kind, fault.target)
                scheduler.service_scale *= fault.factor
            def recover() -> None:
                scheduler.service_scale /= fault.factor
            sim.schedule_at(WorldTime(fault.at), slow)
            sim.schedule_at(WorldTime(fault.at + fault.duration), recover)

    def _arm_channel(self, fault: Fault, channel) -> None:
        if channel.faults is not None:
            raise SimulationError(
                f"channel {fault.target!r} already has a loss model armed"
            )
        channel.faults = ChannelFaults(fault, self.plan.seed, self.record)

    def _arm_crash(self, fault: Fault, process: Process) -> None:
        def crash() -> None:
            if not process.done:
                self.record(fault.kind, fault.target)
                process.interrupt(FaultError(
                    f"injected crash of {fault.target!r} at t={fault.at:g}s"
                ))
        self.simulator.schedule_at(WorldTime(fault.at), crash)

    def _arm_hang(self, fault: Fault, process: Process) -> None:
        def hang() -> None:
            if not process.done:
                self.record(fault.kind, fault.target)
                process.abandon()
        self.simulator.schedule_at(WorldTime(fault.at), hang)


def _by_name(components) -> Dict[str, object]:
    if isinstance(components, Mapping):
        return dict(components)
    return {component.name: component for component in components}


def _lookup(mapping: Mapping[str, object], fault: Fault, kind: str):
    try:
        return mapping[fault.target]
    except KeyError:
        raise SimulationError(
            f"fault plan names {kind} {fault.target!r} but no such "
            f"{kind} was passed to arm() (have: {sorted(mapping) or 'none'})"
        ) from None
