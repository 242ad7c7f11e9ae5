"""The scenario registry: the one place that knows the families.

Each subsystem keeps its scenarios where they run, as a ``SCENARIOS``
dict in its own ``scenarios.py``.  One :class:`Family` record per CLI
subcommand declares the package, the flags and how they reach the
scenario, the fact that decides the exit code, and the scenario that
``python -m repro trace <family>`` runs; :func:`run_family` is the one
handler behind all seven generated subcommands.

:func:`table` is the one name table ``trace``, ``explain`` and
``profile`` resolve through.  Every scenario has the qualified name
``<family>-<name>`` (``herd-surge``, ``trace-quickstart``); a bare name
belongs to the first family, in :data:`FAMILIES` order, that has it
(DESIGN.md decision 17 lists the three shared ones).

Packages are imported on use; none imports this module back except
:mod:`repro.obs.scenarios`, which reads its presets here.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import scoped

__all__ = [
    "FAMILIES", "Family", "Scenario", "Toggle", "flag",
    "lookup_scenario", "positive", "print_facts", "run_family", "table",
]

Facts = Dict[str, object]
Flag = Tuple[str, Dict[str, object]]


def flag(option: str, **keywords) -> Flag:
    """One subcommand option, written like its ``add_argument`` call.

    The parsed value reaches the scenario as the keyword argument of
    the same name (``--bundle-dir`` -> ``bundle_dir``) unless it is None.
    """
    return option, keywords


def positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """argparse ``type`` for counts and scale factors: a ``cast`` > 0."""
    def parse(text: str) -> float:
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Toggle:
    """A ``--no-<x>`` / ``--compare`` pair over one boolean keyword.

    Without either flag the defence is on; ``--no-<x>`` runs without it
    and ``--compare`` runs both, on first, under the identical seed.
    """

    kwarg: str          # the scenario keyword the pair drives
    off_flag: str       # "--no-cache"; its run is labelled "no cache"
    on: str             # label of the on run; may quote other flags
    off_help: str

    def flags(self) -> Tuple[Flag, ...]:
        return (flag(self.off_flag, action="store_true", help=self.off_help),
                flag("--compare", action="store_true",
                     help=f"run both with and without {self.off_flag}"))

    def runs(self, options: Dict[str, object],
             fn: Callable) -> List[Tuple[str, Dict[str, bool]]]:
        """(label, keywords) per run; empty if ``fn`` lacks the off mode."""
        modes = ((True, False) if options["compare"]
                 else (not options[_dest(self.off_flag)],))
        if self.kwarg in inspect.signature(fn).parameters:
            off = self.off_flag.lstrip("-").replace("-", " ")
            return [(self.on if mode else off, {self.kwarg: mode})
                    for mode in modes]
        return [(self.on, {})] if modes == (True,) else []


@dataclass(frozen=True)
class Family:
    """One scenario family: a package's ``SCENARIOS`` and its subcommand."""

    name: str                       # subcommand and qualified-name prefix
    package: str                    # exports SCENARIOS (and summary_line)
    default: str                    # scenario run when none is named
    #: Subcommand help.  Empty for ``trace`` (it exports files) and
    #: ``soak`` (its positional is an action): ``__main__`` writes those
    #: two by hand and they join the name table only.
    help: str = ""
    flags: Tuple[Flag, ...] = ()
    toggle: Optional[Toggle] = None
    header: str = "seed {seed}"     # run header, after the toggle's label
    exit_fact: Optional[str] = None  # exit 1 when present and false
    #: ``watch`` needs a live tracer (the flight recorder puts a trace
    #: tail in its bundles); ``query`` and ``soak`` run without one.
    tracing: bool = True
    seeded: bool = True             # scenarios take ``seed=``
    #: ``trace <family>``: (scenario, extra keywords), run at seed 0.
    preset: Optional[Tuple[str, Dict[str, object]]] = None

    def scenarios(self) -> Dict[str, Callable[..., Facts]]:
        return import_module(self.package).SCENARIOS

    def run_preset(self) -> Facts:
        name, keywords = self.preset
        return self.scenarios()[name](seed=0, **keywords)


#: In name-resolution order: a bare name belongs to the first family
#: here that has it.
FAMILIES: Dict[str, Family] = {family.name: family for family in (
    Family("trace", "repro.obs.scenarios", "quickstart", seeded=False),
    Family("faults", "repro.faults", "disk-outage",
           "run a seeded fault-injection scenario and report QoS",
           toggle=Toggle("recover", "--no-recovery", "recovery",
                         "run without retry/degradation defenses"),
           preset=("disk-outage", {})),
    Family("overload", "repro.admission", "surge",
           "run a seeded multi-client overload scenario through the "
           "admission controller",
           toggle=Toggle("admission", "--no-admission", "admission",
                         "run the uncontrolled baseline"),
           preset=("priority-mix", {})),
    Family("watch", "repro.watch", "leak",
           "run a scenario under the SLO/invariant watchdog",
           flags=(flag("--bundle-dir",
                       help="write postmortem bundles here"),)),
    Family("cluster", "repro.cluster", "node-kill",
           "run a seeded scale-out storage cluster scenario",
           flags=(flag("--nodes", type=positive(int),
                       help="override the scenario's node count"),),
           preset=("node-kill", {})),
    Family("cache", "repro.cache", "zipf-crowd",
           "run a seeded cache-tier scenario against the cluster",
           toggle=Toggle("cached", "--no-cache", "cached, {policy}",
                         "run the cache-less baseline"),
           flags=(flag("--policy", default="lru",
                       choices=("lru", "cost-aware"),
                       help="eviction policy (default: lru)"),),
           preset=("zipf-crowd", {"sessions": 400})),
    Family("soak", "repro.soak", "day", tracing=False),
    Family("herd", "repro.herd", "surge",
           "run a hybrid vectorized-herd scenario (foreground sessions "
           "+ fluid client crowds)",
           flags=(flag("--clients", type=positive(int),
                       help="expected crowd size (default: the "
                            "scenario's own)"),
                  flag("--compare-discrete", action="store_true",
                       help="also run the scaled-down herd-vs-discrete "
                            "equivalence probe")),
           exit_fact="probe_equivalent",
           preset=("surge", {"clients": 4_000})),
    Family("query", "repro.annotations", "speech",
           "run an annotation-store temporal-query scenario",
           flags=(flag("--mode", default="auto",
                       choices=("auto", "index", "scan"),
                       help="planner mode (default: auto)"),),
           header="seed {seed}, mode {mode}",
           exit_fact="all_agree", tracing=False,
           preset=("speech", {})),
)}


@dataclass(frozen=True)
class Scenario:
    """One row of the name table."""

    family: Family
    name: str
    fn: Callable[..., Facts]

    def run(self, seed: int = 0) -> Facts:
        """Run with the scenario's own defaults."""
        return self.fn(seed=seed) if self.family.seeded else self.fn()


def table() -> Dict[str, Scenario]:
    """Every name ``trace``/``explain``/``profile`` accept -> its scenario."""
    names: Dict[str, Scenario] = {}
    for family in FAMILIES.values():
        for name, fn in family.scenarios().items():
            scenario = Scenario(family, name, fn)
            names[f"{family.name}-{name}"] = scenario
            names.setdefault(name, scenario)
    return names


def lookup_scenario(kind: str, name: str, registry,
                    allow_all: bool = False) -> Optional[List[str]]:
    """Resolve a scenario argument to the list of names to run.

    None, after a ``pick one of`` listing on stderr, when the name is
    unknown (callers exit 2).  With ``allow_all`` the name ``all``
    expands to every scenario in the registry, sorted.
    """
    if allow_all and name == "all":
        return sorted(registry)
    if name in registry:
        return [name]
    options = ", ".join(sorted(registry) + (["all"] if allow_all else []))
    print(f"unknown {kind} scenario {name!r}; pick one of: {options}",
          file=sys.stderr)
    return None


def print_facts(header: str, facts: Facts) -> None:
    """The header line, then one indented ``key = value`` line per fact."""
    print(header)
    for key, value in facts.items():
        print(f"  {key} = {value}")


def run_family(family: Family, args: argparse.Namespace) -> int:
    """Run ``args.scenario`` (or ``all``) of a family; print its facts."""
    module = import_module(family.package)
    names = lookup_scenario(family.name, args.scenario, module.SCENARIOS,
                            allow_all=True)
    if names is None:
        return 2
    summary_line = getattr(module, "summary_line", None)
    options = vars(args)
    keywords = {dest: options[dest]
                for dest in (_dest(option) for option, _ in family.flags)
                if options[dest] is not None}
    toggle = family.toggle
    exit_code = 0
    for name in names:
        fn = module.SCENARIOS[name]
        runs = [("", {})] if toggle is None else toggle.runs(options, fn)
        if not runs:
            print(f"{family.name} scenario {name!r} has no "
                  f"{toggle.off_flag} baseline; drop "
                  f"{toggle.off_flag}/--compare", file=sys.stderr)
            return 2
        for label, mode in runs:
            # A fresh observability scope per run keeps counters and
            # decisions from bleeding between runs in one process.
            with scoped(tracing=family.tracing):
                facts = fn(seed=args.seed, **keywords, **mode)
            header = ", ".join(filter(None, (label, family.header)))
            print_facts(f"scenario {name!r} ({header.format(**options)}):",
                        facts)
            if summary_line is not None:
                print(summary_line(name, facts))
            if family.exit_fact in facts and not facts[family.exit_fact]:
                # Herd diverging from its discrete reference, or index
                # and scan rows disagreeing, is a correctness failure:
                # a non-zero exit lets CI gate on it directly.
                exit_code = 1
    return exit_code
