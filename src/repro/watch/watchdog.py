"""The watchdog: always-on supervision over a running scenario.

A :class:`Watchdog` composes the three watch primitives —
:class:`~repro.watch.invariants.InvariantMonitor`,
:class:`~repro.watch.slo.SLOEngine` and
:class:`~repro.watch.recorder.FlightRecorder` — behind one object a
scenario arms and starts::

    dog = Watchdog(sim, slos=default_slos(), bundle_dir="out")
    dog.arm(channels=[trunk], controllers=[control], channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=2.0)
    ... run the workload ...
    report = dog.teardown()

The cadence process wakes on the virtual clock, runs every invariant
probe, and evaluates the SLO catalog.  An invariant breach is the
fail-fast path: the watchdog emits an ``invariant-breach`` decision,
writes a postmortem bundle, and raises
:class:`~repro.errors.InvariantBreachError` — which the kernel records
as a *failure* (not a fault) and re-raises from ``Simulator.run()``, so
a corrupted run cannot quietly continue.  A hard SLO failure dumps a
bundle too but only records the ``slo-breach`` decision: the run goes on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Generator, List, Optional, Union

from repro.errors import InvariantBreachError, SLOViolationError
from repro.sim import Delay, Simulator, weak_hook
from repro.watch.invariants import Breach, InvariantMonitor
from repro.watch.recorder import FlightRecorder
from repro.watch.slo import SLOEngine

PathLike = Union[str, Path]

#: the actor of the watchdog's decisions and the name of its ticker.
NAME = "watchdog"


class Watchdog:
    """Arms probes and SLOs over a scenario and supervises it."""

    def __init__(self, simulator: Simulator,
                 slos=(),
                 bundle_dir: Optional[PathLike] = None) -> None:
        self.simulator = simulator
        self.bundle_dir = Path(bundle_dir) if bundle_dir is not None else None
        self.monitor = InvariantMonitor(simulator)
        self.engine = SLOEngine(simulator.obs.metrics, slos)
        self.recorder = FlightRecorder(simulator.obs)
        self._decisions = simulator.obs.decisions
        self._bundle_seq = 0
        self._slo_bundled: set = set()
        self.bundle_paths: List[Path] = []
        self.ticks = 0
        # A scenario can die from an unhandled exception between ticks;
        # hook the kernel's first-failure path so even those crashes
        # leave a postmortem instead of only a raise from run().
        simulator.add_failure_hook(weak_hook(self._on_kernel_failure))

    # -- setup -------------------------------------------------------------
    def arm(self, channels=(), allocators=(), controllers=(), cluster=None,
            tier=None, channels_complete: bool = False) -> "Watchdog":
        """Arm invariant probes and flight-recorder state dumps."""
        self.monitor.arm(channels=channels, allocators=allocators,
                         controllers=controllers, cluster=cluster,
                         tier=tier, channels_complete=channels_complete)
        self.recorder.track(*channels, *controllers, *allocators)
        if cluster is not None:
            self.recorder.track(cluster)
        if tier is not None:
            self.recorder.track(tier)
        return self

    # -- the cadence process -----------------------------------------------
    def start(self, cadence_s: float = 0.05,
              horizon_s: float = 10.0) -> None:
        """Spawn the supervision process (bounded by ``horizon_s``).

        The bound matters: an unbounded ticker would keep the event heap
        non-empty forever and ``Simulator.run()`` would never drain.
        """
        if cadence_s <= 0:
            raise SLOViolationError(
                f"watchdog cadence must be positive, got {cadence_s}")
        self.simulator.spawn(self._run(cadence_s, horizon_s),
                             name=f"{NAME}:ticker")

    def _run(self, cadence_s: float, horizon_s: float) -> Generator:
        while self.simulator.now_s + cadence_s <= horizon_s:
            yield Delay(cadence_s)
            self.check()

    # -- checking ----------------------------------------------------------
    def _write_bundle(self, doc: Dict[str, object]) -> Optional[Path]:
        if self.bundle_dir is None:
            return None
        self._bundle_seq += 1
        path = self.recorder.dump(
            doc, self.bundle_dir / f"postmortem-{self._bundle_seq:03d}.json")
        self.bundle_paths.append(path)
        return path

    def _fail(self, breaches: List[Breach]) -> None:
        first = breaches[0]
        if self._decisions.enabled:
            for breach in breaches:
                self._decisions.emit("invariant-breach", breach.component,
                                     actor=NAME,
                                     invariant=breach.invariant,
                                     detail=breach.detail)
        doc = self.recorder.bundle("invariant-breach",
                                   self.simulator.now_s,
                                   breaches=breaches,
                                   slo_report=self.engine.report())
        path = self._write_bundle(doc)
        where = f" (postmortem: {path})" if path is not None else ""
        raise InvariantBreachError(f"{first}{where}")

    def _on_kernel_failure(self, proc, error: BaseException) -> None:
        """First-failure hook: crash-dump anything we didn't raise ourselves.

        Breach/SLO failures already wrote their bundle on the raise
        path; everything else is an unhandled scenario exception whose
        evidence would otherwise die with the traceback.
        """
        if isinstance(error, (InvariantBreachError, SLOViolationError)):
            return
        failure = {
            "process": proc.name,
            "error_type": type(error).__name__,
            "error": str(error),
        }
        if self._decisions.enabled:
            self._decisions.emit("unhandled-failure", proc.name,
                                 actor=NAME,
                                 error_type=failure["error_type"],
                                 detail=failure["error"])
        doc = self.recorder.bundle("unhandled-failure",
                                   self.simulator.now_s,
                                   slo_report=self.engine.report(),
                                   failure=failure)
        self._write_bundle(doc)

    def _check_hard_slos(self, instruments) -> None:
        results = self.engine.evaluate(instruments)
        failed = [r for r in self.engine.hard_failures(results)
                  if r.spec.name not in self._slo_bundled]
        if not failed:
            return
        for result in failed:
            self._slo_bundled.add(result.spec.name)
            if self._decisions.enabled:
                self._decisions.emit("slo-breach", result.spec.name,
                                     actor=NAME,
                                     klass=result.spec.klass,
                                     value=round(result.value, 6),
                                     target=result.spec.target,
                                     burn=round(result.burn, 4))
        doc = self.recorder.bundle("slo-hard-fail",
                                   self.simulator.now_s,
                                   slo_report=self.engine.report())
        self._write_bundle(doc)

    def check(self) -> None:
        """One supervision tick: invariants first, then hard SLOs, over
        one settling of the metrics registry (nothing runs in between)."""
        self.ticks += 1
        instruments = self.simulator.obs.metrics.settled()
        breaches = self.monitor.check_now(instruments)
        if breaches:
            self._fail(breaches)
        self._check_hard_slos(instruments)

    def teardown(self, strict: bool = True) -> Dict[str, object]:
        """Final audit: end-state invariants + the full SLO report.

        With ``strict`` (default) any teardown breach raises
        :class:`~repro.errors.InvariantBreachError`; otherwise the
        breaches are only recorded in the returned report.
        """
        breaches = self.monitor.check_teardown()
        if breaches and strict:
            self._fail(breaches)
        report = self.engine.report()
        report["teardown_breaches"] = [b.to_dict() for b in breaches]
        report["ticks"] = self.ticks
        report["checks"] = self.monitor.checks
        return report
