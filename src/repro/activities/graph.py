"""Activity graphs (paper §4.2).

"A group of activities connected in this fashion is called an *activity
graph*."  The graph owns the connections between activity ports, validates
structure (type-checked connections, no dangling in-ports at start, no
cycles) and runs the whole configuration on the DES kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.activities.base import MediaActivity
from repro.activities.composite import CompositeActivity
from repro.activities.ports import Connection, Direction, Port
from repro.avtime import WorldTime
from repro.errors import ConnectionError_, GraphError
from repro.sim import Simulator


class ActivityGraph:
    """A set of activities plus the connections between their ports."""

    def __init__(self, simulator: Simulator, name: str = "graph") -> None:
        self.simulator = simulator
        self.name = name
        self.activities: Dict[str, MediaActivity] = {}
        self.connections: List[Connection] = []

    # -- construction ------------------------------------------------------
    def add(self, activity: MediaActivity) -> MediaActivity:
        if activity.name in self.activities:
            raise GraphError(f"activity {activity.name!r} already in graph {self.name!r}")
        self.activities[activity.name] = activity
        return activity

    def remove(self, activity: MediaActivity) -> None:
        """Remove a top-level activity and tear down its connections.

        Connections touching the activity (or any component of it, for a
        composite) are disconnected, which releases their channel
        reservations.  Sessions call this on close so a long-lived system
        does not accrete dead activities (the churn test pins this down).
        """
        registered = self.activities.get(activity.name)
        if registered is not activity:
            raise GraphError(
                f"activity {activity.name!r} is not in graph {self.name!r}"
            )
        del self.activities[activity.name]
        members = {id(a) for a in self._flatten(activity)}
        survivors: List[Connection] = []
        for connection in self.connections:
            if (id(connection.source.owner) in members
                    or id(connection.sink.owner) in members):
                connection.disconnect()
            else:
                survivors.append(connection)
        self.connections = survivors

    def connect(self, source: Port, sink: Port, capacity: int = 8,
                reservation=None) -> Connection:
        """Create a type-checked connection between two ports.

        Both owning activities must already be in the graph (composites
        count through their exported ports).
        """
        for port in (source, sink):
            owner = port.owner
            if owner is None or not self._contains_activity(owner):
                raise GraphError(
                    f"port {port.full_name} does not belong to an activity "
                    f"in graph {self.name!r}"
                )
        connection = Connection(self.simulator, source, sink, capacity, reservation)
        self.connections.append(connection)
        return connection

    def connect_composites(self, source: CompositeActivity, sink: CompositeActivity,
                           capacity: int = 8) -> List[Connection]:
        """Pairwise-connect two composites' exported ports (§4.3, Fig. 3),
        paired by :meth:`pair_composites`."""
        return [self.connect(out_port, in_port, capacity)
                for out_port, in_port in self.pair_composites(source, sink)]

    @staticmethod
    def pair_composites(source: CompositeActivity,
                        sink: CompositeActivity) -> List[Tuple[Port, Port]]:
        """Pair ``source``'s exported out-ports with ``sink``'s exported
        in-ports: by port name first, then by media-type compatibility."""
        outs = [p for p in source.ports.values() if p.direction is Direction.OUT]
        ins = {p.name: p for p in sink.ports.values() if p.direction is Direction.IN}
        if not outs:
            raise GraphError(f"composite {source.name!r} exports no out ports")
        pairs = []
        unmatched_ins = dict(ins)
        for out_port in outs:
            in_port = unmatched_ins.pop(out_port.name, None)
            if in_port is None:
                candidates = [
                    p for p in unmatched_ins.values()
                    if p.media_type.accepts(out_port.media_type)
                ]
                if not candidates:
                    raise ConnectionError_(
                        f"no in-port of {sink.name!r} matches out-port "
                        f"{out_port.full_name} ({out_port.media_type.name})"
                    )
                in_port = candidates[0]
                del unmatched_ins[in_port.name]
            pairs.append((out_port, in_port))
        return pairs

    @staticmethod
    def _port_bandwidth(port: Port) -> float:
        """Bandwidth demand of the stream leaving ``port`` (bits/second)."""
        owner = port.resolve().owner
        value = getattr(owner, "bound_value", None)
        rate = getattr(value, "data_rate_bps", None)
        if callable(rate):
            bps = value.data_rate_bps()
            if bps > 0:
                return bps
        return 1_000_000.0  # default reservation when no value is bound yet

    # -- validation ----------------------------------------------------------
    @staticmethod
    def _flatten(activity: MediaActivity) -> List[MediaActivity]:
        """The activity and, recursively, all composite components."""
        result = [activity]
        if isinstance(activity, CompositeActivity):
            for component in activity.components.values():
                result.extend(ActivityGraph._flatten(component))
        return result

    def _contains_activity(self, activity: MediaActivity) -> bool:
        for member in self.activities.values():
            if any(a is activity for a in self._flatten(member)):
                return True
        return False

    def _leaf_activities(self) -> List[MediaActivity]:
        leaves: List[MediaActivity] = []
        for activity in self.activities.values():
            leaves.extend(
                a for a in self._flatten(activity)
                if not isinstance(a, CompositeActivity)
            )
        return leaves

    def validate(self) -> None:
        """Structural checks before start.

        * every in-port of every (leaf) activity is connected;
        * every out-port is connected;
        * the connection graph is acyclic (streams flow forward).
        """
        for activity in self._leaf_activities():
            for port in activity.ports.values():   # proxies: composites only
                if not port.resolve().connected:
                    raise GraphError(
                        f"port {port.full_name} is not connected"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        edges: Dict[str, Set[str]] = {}
        for connection in self.connections:
            src = connection.source.owner.name
            dst = connection.sink.owner.name
            edges.setdefault(src, set()).add(dst)
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise GraphError(f"activity graph {self.name!r} contains a cycle at {node!r}")
            visiting.add(node)
            for succ in edges.get(node, ()):
                visit(succ)
            visiting.discard(node)
            done.add(node)

        for node in list(edges):
            visit(node)

    # -- control ---------------------------------------------------------
    def start_all(self) -> None:
        """Validate, then start every top-level activity."""
        self.validate()
        for activity in self.activities.values():
            activity.start()

    def run(self, until: Optional[WorldTime] = None) -> WorldTime:
        """Run the simulation until all streams drain (or ``until``)."""
        return self.simulator.run(until)

    def run_to_completion(self) -> WorldTime:
        """start_all + run; the common one-shot pattern."""
        self.start_all()
        return self.run()

    # -- the paper's graphical notation -------------------------------------
    def render_ascii(self) -> str:
        """Render the activity graph in the paper's node/arc notation.

        "Flow composition, activity graphs, simple and composite
        activities can be depicted using a graphical notion where nodes
        correspond to activities and directed arcs indicate port
        connections" (§4.2, Fig. 2).  Composites render as bracketed
        groups listing their components.
        """
        lines = []
        for activity in self.activities.values():
            if isinstance(activity, CompositeActivity):
                inner = " ".join(f"[{c.name}]" for c in activity.components.values())
                lines.append(f"[{activity.name}: {inner}]  ({activity.kind.value})")
            else:
                lines.append(f"[{activity.name}]  ({activity.kind.value})")
        for connection in self.connections:
            media = connection.source.media_type.name
            lines.append(
                f"  [{connection.source.owner.name}] --{media}--> "
                f"[{connection.sink.owner.name}]"
            )
        return "\n".join(lines)
