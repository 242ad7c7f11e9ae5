"""Composite activities (paper §4.2, Fig. 2; §4.3 MultiSource/MultiSink).

"Composite activities can be formed which contain component activities.
It is possible to connect an 'out' port of a component to the 'out' of
the composite in which it is contained — provided the ports are of the
same data type.  A similar rule applies to the connection of 'in' ports."

"activities which process composite AV values will generally contain
components for each track of the value.  Such a composite would maintain
the synchronization of its component activities."

Exported ports are proxy :class:`~repro.activities.ports.Port` objects;
connections made to them attach to the underlying component port, so "an
application working with a source activity need not be aware of its
internal configuration" (Fig. 2, bottom).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.activities.base import ActivityState, Location, MediaActivity
from repro.activities.ports import Port
from repro.avtime import WorldTime
from repro.errors import ActivityError, ActivityStateError, PortError
from repro.sim import Simulator, WaitProcess
from repro.streams.sync import Resynchronizer, SyncGroup
from repro.temporal.composite import TemporalComposite


class CompositeActivity(MediaActivity):
    """An activity containing component activities.

    Parameters
    ----------
    resync_interval:
        When set, every paced component source gets a
        :class:`Resynchronizer` with this element interval and reports its
        drift to the composite's :class:`SyncGroup` — the paper's
        "maintain the synchronization of its component activities".
        ``None`` disables active resynchronization (the group still
        *measures* skew).
    """

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 resync_interval: Optional[int] = None) -> None:
        super().__init__(simulator, name, location)
        self.components: Dict[str, MediaActivity] = {}
        self._track_of: Dict[str, Optional[str]] = {}
        self.sync_group = SyncGroup(self.name)
        self.resync_interval = resync_interval

    # -- composition ---------------------------------------------------------
    def install(self, component: MediaActivity,
                track: Optional[str] = None) -> MediaActivity:
        """The paper's ``install <activity> in <composite>``."""
        if component.name in self.components:
            raise ActivityError(
                f"component {component.name!r} already installed in {self.name!r}"
            )
        if component is self:
            raise ActivityError("a composite cannot contain itself")
        self.components[component.name] = component
        self._track_of[component.name] = track
        if hasattr(component, "attach_sync"):
            member = track or component.name
            resync = (
                Resynchronizer(self.resync_interval)
                if self.resync_interval is not None else None
            )
            component.attach_sync(self.sync_group, member, resync)
        return component

    def export(self, inner_port: Port, name: Optional[str] = None) -> Port:
        """Re-export a component's port on the composite boundary.

        Enforces the paper's rule: out connects to out, in connects to in,
        same data type (the proxy inherits the inner port's type).
        """
        owner = inner_port.owner
        if owner is None or owner.name not in self.components:
            raise PortError(
                f"cannot export {inner_port.full_name}: not a port of an "
                f"installed component of {self.name!r}"
            )
        proxy = self.add_port(
            name or inner_port.name, inner_port.direction, inner_port.media_type
        )
        proxy.proxy_for = inner_port
        return proxy

    def attach_sync(self, group: SyncGroup, member: str,
                    resync: Optional[Resynchronizer] = None) -> None:
        """Join an outer sync group: delegate to syncable components."""
        targets = [c for c in self.components.values() if hasattr(c, "attach_sync")]
        for component in targets:
            name = member if len(targets) == 1 else f"{member}.{component.name}"
            component.attach_sync(group, name, resync)

    # -- binding ------------------------------------------------------------
    def bind(self, value, port_name: Optional[str] = None) -> None:
        """Bind a temporally composed value: distribute tracks to components.

        Components installed with a ``track`` receive that track's value;
        binding a non-composite value requires exactly one component.
        """
        if self.state is ActivityState.RUNNING:
            raise ActivityStateError(f"cannot bind while {self.name!r} is running")
        if isinstance(value, TemporalComposite):
            for comp_name, component in self.components.items():
                track = self._track_of[comp_name]
                if track is None:
                    continue
                component.bind(value.value(track))
            self._bound = value
            return
        bindable = [c for c, t in self._track_of.items() if t is None]
        if len(self.components) == 1:
            next(iter(self.components.values())).bind(value)
            self._bound = value
            return
        raise ActivityError(
            f"cannot bind a single value to composite {self.name!r} with "
            f"{len(self.components)} components (bind a TemporalComposite, "
            f"or install components with track names); "
            f"untracked components: {bindable}"
        )

    # -- control ---------------------------------------------------------
    def cue(self, when: WorldTime) -> None:
        super().cue(when)
        for component in self.components.values():
            component.cue(when)

    def stop(self) -> None:
        super().stop()
        for component in self.components.values():
            if component.state is ActivityState.RUNNING:
                component.stop()

    def _pre_start(self) -> None:
        if not self.components:
            raise ActivityError(f"composite {self.name!r} has no components")

    def _process(self) -> Generator:
        procs = [component.start() for component in self.components.values()]
        for proc in procs:
            yield WaitProcess(proc)

    # -- introspection ---------------------------------------------------
    def max_skew(self) -> float:
        """Largest inter-component drift spread observed (seconds)."""
        return self.sync_group.max_skew()


class MultiSource(CompositeActivity):
    """The §4.3 composite source: one component source per track.

    ``install`` exports each component source's out ports automatically
    under ``<track>`` (or the component name), so a matching
    :class:`MultiSink` can be paired port-by-port.
    """

    def install(self, component: MediaActivity,
                track: Optional[str] = None) -> MediaActivity:
        super().install(component, track)
        label = track or component.name
        outs = component.out_ports()
        if not outs:
            raise ActivityError(
                f"MultiSource component {component.name!r} has no out ports"
            )
        for port in outs:
            name = label if len(outs) == 1 else f"{label}.{port.name}"
            self.export(port, name)
        return component


class MultiSink(CompositeActivity):
    """The §4.3 composite sink: one component sink per track."""

    def install(self, component: MediaActivity,
                track: Optional[str] = None) -> MediaActivity:
        super().install(component, track)
        label = track or component.name
        ins = component.in_ports()
        if not ins:
            raise ActivityError(
                f"MultiSink component {component.name!r} has no in ports"
            )
        for port in ins:
            name = label if len(ins) == 1 else f"{label}.{port.name}"
            self.export(port, name)
        return component
