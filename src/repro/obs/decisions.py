"""Structured decision events: *why* the system treated a session as it did.

Metrics say *how much* (42 sessions shed), traces say *when* (a span at
t=0.4); neither answers "why was ``viewer-7`` degraded?".  A
:class:`DecisionLog` records the control-plane verdicts themselves —
admit / preempt / degrade / shed / queue from the admission controller,
breaker transitions, replica routing and failover from the cluster,
retry and deadline firings from the recovery policies — each tagged with
the *subject* (the session or stream label the decision was about) so a
session's full decision chain can be reconstructed afterwards
(``python -m repro explain``).

The log is the third slot of an :class:`~repro.obs.Obs`, following the
tracer's pattern exactly: emitters pre-bind it and guard with
``if decisions.enabled:``, the :class:`~repro.sim.Simulator` binds its
virtual clock on construction (first binder wins), and
:data:`NULL_DECISIONS` is the shared disabled implementation so the
default cost is one attribute load per decision point.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class DecisionEvent:
    """One recorded control-plane verdict."""

    __slots__ = ("ts", "kind", "actor", "subject", "args")

    def __init__(self, ts: float, kind: str, actor: str, subject: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self.ts = ts            # virtual seconds
        self.kind = kind        # "admit" | "degrade" | "shed" | "queue" | ...
        self.actor = actor      # the deciding component ("admission", "node-1")
        self.subject = subject  # the session/stream the decision was about
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": self.ts, "kind": self.kind,
            "actor": self.actor, "subject": self.subject,
        }
        if self.args:
            out["args"] = self.args
        return out


class DecisionLog:
    """Collects decision events against a virtual clock (append-only)."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.events: List[DecisionEvent] = []
        self._clock: Callable[[], float] = clock if clock is not None else _zero

    # -- clock binding -----------------------------------------------------
    @property
    def clock_bound(self) -> bool:
        return self._clock is not _zero

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt a virtual clock; ignored if one is already bound."""
        if not self.clock_bound:
            self._clock = clock

    # -- recording ---------------------------------------------------------
    def emit(self, kind: str, subject: str, actor: str = "", **args: Any) -> None:
        """Record one verdict about ``subject`` at the current virtual time."""
        self.record(kind, subject, actor, args)

    def record(self, kind: str, subject: str, actor: str,
               fields: Dict[str, Any]) -> None:
        """:meth:`emit` with the fields as a dict, which is kept, not copied."""
        self.events.append(DecisionEvent(
            self._clock(), kind, actor, subject, fields or None))

    # -- reconstruction ----------------------------------------------------
    def chain(self, subject: str) -> List[DecisionEvent]:
        """Every decision about ``subject``, in emission (= causal) order.

        Emission order is total within one run: the DES kernel is
        single-threaded and ties at equal virtual time preserve the order
        the decisions were actually taken in.
        """
        return [e for e in self.events if e.subject == subject]

    def by_kind(self, kind: str) -> List[DecisionEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


def _zero() -> float:
    return 0.0


class NullDecisionLog:
    """The disabled log: records nothing, costs one attribute load."""

    enabled = False
    events: List[DecisionEvent] = []  # always empty; shared read-only view

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    @property
    def clock_bound(self) -> bool:
        return False

    def emit(self, kind: str, subject: str, actor: str = "", **args: Any) -> None:
        pass

    def record(self, kind: str, subject: str, actor: str,
               fields: Dict[str, Any]) -> None:
        pass

    def chain(self, subject: str) -> List[DecisionEvent]:
        return []

    def by_kind(self, kind: str) -> List[DecisionEvent]:
        return []

    def __len__(self) -> int:
        return 0


NULL_DECISIONS = NullDecisionLog()
