"""Reach audit: which of ``src/repro`` does anything but a unit test run?

Runs every *driver* the repository has, each in its own process under a
function-entry recorder, and reports what none of them entered:

* ``python -m repro`` bare (the tour); every family's ``all --seed 0``,
  once more per declared ``store_true`` flag and per non-default
  ``choices`` value; every scenario's ``--compare`` run where its toggle
  applies; ``soak day`` and ``soak search``; every ``trace`` preset,
  and one more with ``--canonical``; ``explain`` and ``profile``.  All read from
  ``repro.scenarios.FAMILIES``, so a new scenario, flag or family is
  covered without an edit here;
* ``examples/*.py`` and every ``benchmarks/bench_*.py`` with a
  script-mode ``--smoke``, by glob;
* ``pytest benchmarks --benchmark-disable`` (every exhibit, claim and
  ablation bench) and ``benchmarks/ledger/run.py --smoke`` (the four
  ledger workloads).

The unit tests under ``tests/`` are deliberately not drivers: code that
only its own test enters is what this audit exists to find.

The recorder is a generated ``sitecustomize.py`` put first on
``PYTHONPATH``, so grandchildren (the ledger's ``child.py``) are
recorded too.  It hooks ``sys.settrace`` and returns no local tracer:
one Python call per frame entered and nothing per line, and, unlike a
``sys.setprofile`` hook, it is not displaced when a driver runs
``cProfile`` (``profile``, the ledger's tracing pass).

The report lists, per package, lines, lines inside functions and lines
inside functions never entered; then every module with no function
entered, every class with no method entered, and every public function
never entered.  An interface's declarations (abstract methods, bodies
of ``...`` or ``raise NotImplementedError``) are not functions here:
their implementations are what runs.

Modules, classes and public functions are gated: exit status 1 when one
is unreached and not in ``tools/reach_keep.txt`` (a dotted name and a
one-line reason per line), and also when a keep-list line names
something that is reached, or names nothing, so the list cannot rot.
One line may name several members of one class or module in brace
form, ``repro.db.query.Q.{between,like}``; each member is checked on
its own.  A driver's own exit status
is printed, not gated (the timing gates of ``bench_obs_overhead`` fail
under any recorder by construction): a driver that stops running
shrinks reach and trips the gate by that route.

The drivers leave what they always leave: the benches rewrite
``benchmarks/results/*.txt`` and the examples ``examples/output/``;
everything this tool itself writes goes to a temporary directory.

Usage::

    python tools/check_reach.py [--report FILE]
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KEEP = Path(__file__).with_name("reach_keep.txt")
DRIVER_TIMEOUT_S = 600

#: ``sitecustomize.py`` of every driver process; the two paths are
#: written into it, so the recorder needs no environment of its own.
RECORDER = '''\
import atexit, os, sys, threading

_seen = set()


def _enter(frame, event, arg, add=_seen.add):
    add(frame.f_code)


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    entered = sorted({{f"{{code.co_filename}}:{{code.co_firstlineno}}"
                      for code in list(_seen)
                      if code.co_filename.startswith({src!r})}})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.entered"), "a") as f:
        f.write("".join(line + "\\n" for line in entered))


atexit.register(_dump)
threading.settrace(_enter)
sys.settrace(_enter)
'''


class Function(NamedTuple):
    module: str             # "repro.db.index"
    owner: Optional[str]    # "repro.db.index.OrderedIndex" for a method
    name: str               # "OrderedIndex.range"
    lines: int              # its own lines, nested functions excluded
    public: bool


class Tree(NamedTuple):
    """What the source declares, before anything is run."""

    functions: Dict[Tuple[str, int], Function]  # (path, co_firstlineno)
    lines: Dict[str, int]                       # module -> lines in file
    package: Dict[str, str]                     # module -> "repro.db"
    classes: Dict[str, str]                     # dotted class -> module


def _span(node: ast.AST) -> range:
    # co_firstlineno of a decorated function is its first decorator's.
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return range(first, node.end_lineno + 1)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _declaration(node: ast.AST) -> bool:
    """An interface's method: abstract, ``...`` or ``raise NotImplementedError``.

    Its implementations are what runs; nothing enters the declaration.
    """
    if any("abstractmethod" in ast.unparse(d) for d in node.decorator_list):
        return True
    body = [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str))]  # docstring
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        return "NotImplementedError" in ast.unparse(stmt.exc)
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)


def parse_tree(src: Path = SRC) -> Tree:
    tree = Tree({}, {}, {}, {})
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        text = path.read_text()
        tree.lines[module] = len(text.splitlines())
        tree.package[module] = ".".join(
            path.relative_to(src).parent.parts[:2])

        def visit(node, scope: Tuple[str, ...], owner, public: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    dotted = ".".join((module, *scope, child.name))
                    tree.classes[dotted] = module
                    visit(child, (*scope, child.name), dotted,
                          public and not child.name.startswith("_"))
                elif isinstance(child, _DEFS):
                    if _declaration(child):
                        continue
                    span = _span(child)
                    own = set(span)
                    for inner in ast.walk(child):
                        if inner is not child and isinstance(inner, _DEFS):
                            own.difference_update(_span(inner))
                    tree.functions[str(path), span[0]] = Function(
                        module, owner, ".".join((*scope, child.name)),
                        len(own),
                        public and not child.name.startswith("_"))
                    # A nested function is neither a method nor public.
                    visit(child, (*scope, child.name), None, False)
                else:
                    visit(child, scope, owner, public)

        visit(ast.parse(text, filename=str(path)), (), None, True)
    return tree


def drivers(scratch: Path) -> Iterator[Tuple[str, List[str]]]:
    """(label, argv) for every driver; repro is importable (see main)."""
    from repro.scenarios import FAMILIES

    python = sys.executable
    cli = [python, "-m", "repro"]
    yield "tour", cli
    for family in FAMILIES.values():
        if not family.help:
            continue  # trace and soak: below
        every = [*cli, family.name, "all", "--seed", "0"]
        yield f"{family.name} all", every
        for option, keywords in family.flags:
            if keywords.get("action") == "store_true":
                yield f"{family.name} all {option}", [*every, option]
            for choice in keywords.get("choices", ()):
                if choice != keywords.get("default"):
                    yield (f"{family.name} all {option} {choice}",
                           [*every, option, choice])
        if family.toggle is not None:
            for name, fn in sorted(family.scenarios().items()):
                if family.toggle.runs({"compare": True}, fn):
                    yield (f"{family.name} {name} --compare",
                           [*cli, family.name, name, "--compare",
                            "--seed", "0"])
    yield "soak day", [*cli, "soak", "day"]
    yield "soak search", [*cli, "soak", "search", "--chaos-seed", "4",
                          "--plant-leak", "--out", str(scratch / "soak")]
    for name in sorted(FAMILIES["trace"].scenarios()):
        yield f"trace {name}", [*cli, "trace", name, "--out",
                                str(scratch / "traces")]
    yield "trace quickstart --canonical", [
        *cli, "trace", "quickstart", "--canonical",
        "--out", str(scratch / "canonical")]
    yield "explain node-kill", [*cli, "explain", "node-kill",
                                "--session", "viewer-10"]
    yield "explain priority-mix", [*cli, "explain", "priority-mix"]
    yield "profile", [*cli, "profile", "--top", "5"]
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{path.name}", [python, str(path)]
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    yield "pytest benchmarks", [
        python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", *map(str, benches)]
    for path in benches:
        if '"--smoke"' in path.read_text():
            yield f"{path.name} --smoke", [python, str(path), "--smoke"]
    yield "ledger --smoke", [python, str(ROOT / "benchmarks/ledger/run.py"),
                             "--smoke"]


def run_drivers(scratch: Path, jobs: int
                ) -> Tuple[Set[Tuple[str, int]], List[Tuple[str, int, float]]]:
    """Run every driver; (entered (path, line) pairs, driver outcomes)."""
    site = scratch / "site"
    out = scratch / "entered"
    site.mkdir()
    out.mkdir()
    src = str(SRC)
    (site / "sitecustomize.py").write_text(
        RECORDER.format(src=src + os.sep, out=str(out)))
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(site), src, inherited)))}

    def run(driver: Tuple[str, List[str]]) -> Tuple[str, int, float]:
        label, argv = driver
        started = time.perf_counter()
        try:
            code = subprocess.run(
                argv, cwd=scratch, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=DRIVER_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = -1
        return label, code, time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(run, drivers(scratch)))
    entered = set()
    for record in out.iterdir():
        for line in record.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            entered.add((path, int(lineno)))
    return entered, outcomes


class Reach(NamedTuple):
    """The tree split by what the drivers entered."""

    packages: List[Tuple[str, int, int, int]]  # name, lines, in fns, never
    modules: List[str]      # >= 1 function, none entered
    classes: List[str]      # >= 1 method, none entered, module reached
    functions: List[str]    # public, never entered, module/class reached
    known: Set[str]         # every module, class and function name


def measure(tree: Tree, entered: Set[Tuple[str, int]]) -> Reach:
    functions = tree.functions
    live = {key: function for key, function in functions.items()
            if key in entered}
    modules = ({f.module for f in functions.values()}
               - {f.module for f in live.values()})
    classes = ({f.owner for f in functions.values()
                if f.owner is not None and f.module not in modules}
               - {f.owner for f in live.values()})
    dead = modules | classes
    never = sorted(f"{f.module}.{f.name}" for key, f in functions.items()
                   if f.public and key not in live
                   and f.module not in dead and f.owner not in dead)
    totals = defaultdict(lambda: [0, 0, 0])
    for module, count in tree.lines.items():
        totals[tree.package[module]][0] += count
    for key, function in functions.items():
        row = totals[tree.package[function.module]]
        row[1] += function.lines
        if key not in live:
            row[2] += function.lines
    packages = [(name, *row) for name, row in sorted(totals.items())]
    return Reach(packages, sorted(modules), sorted(classes), never,
                 set(tree.lines) | set(tree.classes)
                 | {f"{f.module}.{f.name}" for f in functions.values()})


def read_keep(path: Path = KEEP) -> Dict[str, str]:
    """``dotted.name  reason`` per line; ``#`` comments and blanks skipped.

    ``prefix.{a,b}  reason`` names ``prefix.a`` and ``prefix.b``.
    """
    keep = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, _, reason = line.strip().partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: {name} has no reason")
        prefix, brace, members = name.partition("{")
        if brace and not members.endswith("}"):
            raise SystemExit(f"{path}:{number}: {name} has an unclosed brace")
        for member in members[:-1].split(",") if brace else [""]:
            keep[prefix + member] = reason.strip()
    return keep


def verdicts(unreached: Set[str], known: Set[str],
             keep: Dict[str, str]) -> List[str]:
    """Why the gate fails, one line per name; empty when it passes."""
    problems = [f"{name}: never entered and not in {KEEP.name}; delete it, "
                f"wire it to a driver, or list it with its reason"
                for name in sorted(unreached - set(keep))]
    for name in keep:
        if name not in known:
            problems.append(f"{name}: {KEEP.name} lists it, but src/repro "
                            f"has no such module, class or function; "
                            f"drop the line")
        elif name not in unreached:
            problems.append(f"{name}: {KEEP.name} lists it, but it is "
                            f"reached (or inside an unreached module or "
                            f"class, whose line covers it); drop it")
    return problems


def render(reach: Reach, keep: Dict[str, str],
           outcomes: List[Tuple[str, int, float]], wall_s: float) -> str:
    lines = [f"{'package':24}{'lines':>8}{'in functions':>14}"
             f"{'never entered':>15}"]
    for name, total, inside, never in reach.packages:
        lines.append(f"{name:24}{total:8}{inside:14}{never:15}")
    total, inside, never = (sum(row[i] for row in reach.packages)
                            for i in (1, 2, 3))
    lines.append(f"{'src/repro':24}{total:8}{inside:14}{never:15}"
                 f"  ({never / inside:.1%} of the lines inside functions)")
    for title, names in (
            ("modules with no function entered", reach.modules),
            ("classes with no method entered", reach.classes),
            ("public functions never entered", reach.functions)):
        lines.append(f"\n{title} ({len(names)}):")
        lines.extend(f"  {name}  [{keep.get(name, 'NOT ON THE KEEP-LIST')}]"
                     for name in names)
    lines.append(f"\ndrivers ({len(outcomes)}, {wall_s:.0f} s wall), "
                 f"exit status not gated:")
    lines.extend(f"  exit {code:3} {seconds:6.1f} s  {label}"
                 for label, code, seconds in outcomes)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # drivers() reads repro.scenarios
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        entered, outcomes = run_drivers(Path(scratch),
                                        jobs=min(4, os.cpu_count() or 1))
    reach = measure(parse_tree(), entered)
    keep = read_keep()
    report = render(reach, keep, outcomes, time.perf_counter() - started)
    print(report, end="")
    if args.report is not None:
        args.report.write_text(report)
    problems = verdicts(
        set(reach.modules) | set(reach.classes) | set(reach.functions),
        reach.known, keep)
    for problem in problems:
        print(f"check_reach: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_reach: {len(keep)} kept, nothing else unreached")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
