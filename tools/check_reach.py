"""Reach audit: which of ``src/repro`` does anything but a unit test run?

Runs every *driver* the repository has, each in its own process under a
line recorder, and reports what none of them ran:

* ``python -m repro`` bare (the tour); every family's ``all --seed 0``,
  once more per declared ``store_true`` flag and per non-default
  ``choices`` value; every scenario's ``--compare`` run where its toggle
  applies; ``soak day`` and ``soak search``; every ``trace`` preset,
  and one more with ``--canonical``; ``explain`` and ``profile``.  All read from
  ``repro.scenarios.FAMILIES``, so a new scenario, flag or family is
  covered without an edit here;
* ``examples/*.py``, by glob;
* ``pytest benchmarks --benchmark-disable`` (every exhibit, claim,
  ablation bench and bench gate) and ``benchmarks/ledger/run.py
  --smoke`` (the four ledger workloads).

The unit tests under ``tests/`` are deliberately not drivers: code that
only its own test runs is what this audit exists to find.  Tier-1 runs
as one more job under the same recorder, and its records are kept apart,
so that every statement inside a function falls into one of three
classes: run by a driver, run by *tier-1 only*, or run by *nothing*.

The recorder is a generated ``sitecustomize.py`` put first on
``PYTHONPATH``, so grandchildren (the ledger's ``child.py``) are
recorded too.  It hooks ``sys.settrace`` and hands a local tracer only
to function frames under ``src/repro``: each records ``(path, line)``
on ``call`` (the function's ``co_firstlineno``, its entry) and on every
``line`` event.  Unlike a ``sys.setprofile`` hook it is not displaced
when a driver runs ``cProfile`` (``profile``, the ledger's tracing pass).

A statement counts as run when any line it owns was traced.  Its own
lines are its span minus its nested statements, less the lines that
compile to no code (a docstring, ``else:``), so the unit is the AST
statement and not the interpreter's line table.  A statement is a raise
when it is an ``ast.Raise``.

The report lists, per package, lines, lines inside functions, lines
inside functions never entered, and statements inside functions with
how many of them tier-1 only and nothing runs; then every module with no
function entered, every class with no method entered, and every public
function never entered; then every statement nothing runs, as
``file:line function``, and per function the statements that are not
raises and that tier-1 alone runs.  An interface's declarations
(abstract methods, bodies of ``...`` or ``raise NotImplementedError``)
are not functions here: their implementations are what runs.

Modules, classes and public functions are gated: exit status 1 when one
is unreached and not in ``tools/reach_keep.txt`` (a dotted name and a
one-line reason per line), and also when a keep-list line names
something that is reached, or names nothing, so the list cannot rot.
One line may name several members of one class or module in brace
form, ``repro.db.query.Q.{between,like}``; each member is checked on
its own.  Statements are gated by two ceilings below, on the statements
that are not raises and that nothing, or tier-1 only, runs: a count
above its ceiling fails, and one below it is printed as the ceiling to
commit.  A driver's own exit status is printed, not gated (the timing
gates of ``bench_obs_overhead`` fail under any recorder by
construction): a driver that stops running shrinks reach and trips the
gate by that route.

The drivers leave what they always leave: the benches rewrite
``benchmarks/results/*.txt``; everything this tool itself writes goes
to a temporary directory.

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
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KEEP = Path(__file__).with_name("reach_keep.txt")
DRIVER_TIMEOUT_S = 600
TIER1 = "tier-1"

#: Ceilings on the statements inside functions that are not raises and
#: that no driver runs: those nothing runs, and those only tier-1 runs.
#: A count above its ceiling fails the audit; lower a ceiling to the
#: count the report prints when a change drives, pins or deletes some.
NOTHING_CEILING = 110
TIER1_ONLY_CEILING = 855

#: ``sitecustomize.py`` of every recorded process; the two paths are
#: written into it, so the recorder needs no environment of its own.
RECORDER = '''\
import atexit, os, sys, threading

_seen = set()


def _line(frame, event, arg, add=_seen.add):
    add((frame.f_code, frame.f_lineno))
    return _line


def _call(frame, event, arg, add=_seen.add):
    code = frame.f_code
    # co_flags bit 1 (CO_OPTIMIZED): a function, not a module or class body.
    if code.co_flags & 1 and code.co_filename.startswith({src!r}):
        add((code, code.co_firstlineno))
        return _line
    return None


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    lines = sorted({{f"{{code.co_filename}}:{{line}}"
                    for code, line in list(_seen)}})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.lines"), "a") as f:
        f.write("".join(line + "\\n" for line in lines))


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


class Function(NamedTuple):
    module: str             # "repro.db.index"
    owner: Optional[str]    # "repro.db.index.OrderedIndex" for a method
    name: str               # "OrderedIndex.range"
    lines: int              # its own lines, nested functions excluded
    public: bool


class Statement(NamedTuple):
    path: str
    line: int               # its first line
    function: Function      # the innermost function it is inside
    lines: FrozenSet[int]   # its own lines that compile to code
    is_raise: bool


class Tree(NamedTuple):
    """What the source declares, before anything is run."""

    functions: Dict[Tuple[str, int], Function]  # (path, co_firstlineno)
    lines: Dict[str, int]                       # module -> lines in file
    package: Dict[str, str]                     # module -> "repro.db"
    classes: Dict[str, str]                     # dotted class -> module
    statements: List[Statement]                 # inside functions


def _span(node: ast.AST) -> range:
    # co_firstlineno of a decorated function is its first decorator's.
    first = min([d.lineno for d in getattr(node, "decorator_list", ())]
                 + [node.lineno])
    return range(first, node.end_lineno + 1)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_DEFS, ast.ClassDef)


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


def _nested(node: ast.AST) -> Iterator[ast.stmt]:
    """The statements directly inside ``node`` (handlers and cases included)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _nested(child)


def _code_lines(code) -> Set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(node: ast.AST, code: Set[int]
                ) -> Iterator[Tuple[ast.stmt, FrozenSet[int]]]:
    """Each statement of a function's body with its own code lines.

    A nested function or class is one statement here, its header; the
    statements of a nested function are that function's own.
    """
    for stmt in _nested(node):
        own = set(_span(stmt))
        for inner in _nested(stmt):
            own.difference_update(_span(inner))
        own &= code
        if own:
            yield stmt, frozenset(own)
        if not isinstance(stmt, _SCOPES):
            yield from _statements(stmt, code)


def parse_tree(src: Path = SRC) -> Tree:
    tree = Tree({}, {}, {}, {}, [])
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        text = path.read_text()
        tree.lines[module] = len(text.splitlines())
        tree.package[module] = ".".join(
            path.relative_to(src).parent.parts[:2])
        code = _code_lines(compile(text, str(path), "exec"))

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
                    function = tree.functions[str(path), span[0]] = Function(
                        module, owner, ".".join((*scope, child.name)),
                        len(own),
                        public and not child.name.startswith("_"))
                    tree.statements.extend(
                        Statement(str(path), stmt.lineno, function, lines,
                                  isinstance(stmt, ast.Raise))
                        for stmt, lines in _statements(child, code))
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
    yield "pytest benchmarks", [
        python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable",
        *map(str, sorted((ROOT / "benchmarks").glob("bench_*.py")))]
    yield "ledger --smoke", [python, str(ROOT / "benchmarks/ledger/run.py"),
                             "--smoke"]


Lines = Set[Tuple[str, int]]


def run_drivers(scratch: Path, jobs: int
                ) -> Tuple[Lines, Lines, List[Tuple[str, int, float]]]:
    """Run tier-1 and every driver; (driver lines, tier-1 lines, outcomes).

    A line is a traced ``(path, line)`` pair; a function's entry is the
    pair of its ``co_firstlineno``.
    """
    src = str(SRC)
    inherited = os.environ.get("PYTHONPATH")

    def recorder(name: str) -> Tuple[Dict[str, str], Path]:
        site, out = scratch / name / "site", scratch / name / "lines"
        site.mkdir(parents=True)
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            RECORDER.format(src=src + os.sep, out=str(out)))
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(site), src, inherited)))}, out

    driven, driver_out = recorder("drivers")
    tested, tier1_out = recorder(TIER1)
    # Tier-1 first: it is the longest job.
    runs = [(TIER1, [sys.executable, "-m", "pytest", "-q", "-p",
                     "no:cacheprovider", "tests"], ROOT, tested)]
    runs += [(label, argv, scratch, driven)
             for label, argv in drivers(scratch)]

    def run(job) -> Tuple[str, int, float]:
        label, argv, cwd, env = job
        started = time.perf_counter()
        try:
            code = subprocess.run(
                argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=DRIVER_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = -1
        return label, code, time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(run, runs))

    def read(out: Path) -> Lines:
        lines = set()
        for record in out.iterdir():
            for line in record.read_text().splitlines():
                path, _, lineno = line.rpartition(":")
                lines.add((path, int(lineno)))
        return lines

    return read(driver_out), read(tier1_out), outcomes


class Reach(NamedTuple):
    """The tree split by what the drivers entered and ran."""

    packages: List[Tuple[str, int, int, int, int, int, int]]
    # name, lines, in fns, never entered; statements, tier-1 only, nothing
    modules: List[str]      # >= 1 function, none entered
    classes: List[str]      # >= 1 method, none entered, module reached
    functions: List[str]    # public, never entered, module/class reached
    known: Set[str]         # every module, class and function name
    nothing: List[Statement]     # run by no driver and not by tier-1
    tier1_only: List[Statement]  # run by tier-1 and by no driver


def measure(tree: Tree, entered: Lines, tested: Lines) -> Reach:
    """Split ``tree`` by the lines the drivers ran and those tier-1 ran."""
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
    totals = defaultdict(lambda: [0] * 6)
    for module, count in tree.lines.items():
        totals[tree.package[module]][0] += count
    for key, function in functions.items():
        row = totals[tree.package[function.module]]
        row[1] += function.lines
        if key not in live:
            row[2] += function.lines
    nothing, tier1_only = [], []
    for stmt in tree.statements:
        row = totals[tree.package[stmt.function.module]]
        row[3] += 1
        if any((stmt.path, line) in entered for line in stmt.lines):
            continue
        if any((stmt.path, line) in tested for line in stmt.lines):
            tier1_only.append(stmt)
            row[4] += 1
        else:
            nothing.append(stmt)
            row[5] += 1
    packages = [(name, *row) for name, row in sorted(totals.items())]
    return Reach(packages, sorted(modules), sorted(classes), never,
                 set(tree.lines) | set(tree.classes)
                 | {f"{f.module}.{f.name}" for f in functions.values()},
                 nothing, tier1_only)


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


def ceilings(reach: Reach, nothing: int = NOTHING_CEILING,
             tier1_only: int = TIER1_ONLY_CEILING
             ) -> Tuple[List[str], List[str]]:
    """(problems, lower ceilings to commit) for the two statement counts."""
    problems, lower = [], []
    for name, statements, ceiling in (
            ("NOTHING_CEILING", reach.nothing, nothing),
            ("TIER1_ONLY_CEILING", reach.tier1_only, tier1_only)):
        count = sum(not stmt.is_raise for stmt in statements)
        if count > ceiling:
            problems.append(
                f"{count} statements that are not raises counted against "
                f"{name} = {ceiling}; drive, pin or delete what the report "
                f"lists")
        elif count < ceiling:
            lower.append(f"{name} can drop to {count}")
    return problems, lower


def _where(stmt: Statement) -> str:
    path = Path(stmt.path)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{stmt.line}"


def render(reach: Reach, keep: Dict[str, str],
           outcomes: List[Tuple[str, int, float]], wall_s: float) -> str:
    lines = [f"{'package':24}{'lines':>8}{'in functions':>14}"
             f"{'never entered':>15}{'statements':>12}{'tier-1 only':>13}"
             f"{'nothing':>9}"]
    for name, *row in reach.packages:
        lines.append(f"{name:24}{row[0]:8}{row[1]:14}{row[2]:15}{row[3]:12}"
                     f"{row[4]:13}{row[5]:9}")
    total, inside, never, stmts, tier1, nothing = (
        sum(row[i] for row in reach.packages) for i in range(1, 7))
    lines.append(f"{'src/repro':24}{total:8}{inside:14}{never:15}{stmts:12}"
                 f"{tier1:13}{nothing:9}")
    lines.append(f"  ({never / inside:.1%} of the lines inside functions "
                 f"never entered)")
    for title, statements in (("tier-1 only", reach.tier1_only),
                              ("nothing", reach.nothing)):
        raises = sum(stmt.is_raise for stmt in statements)
        lines.append(f"  {title}: {len(statements) - raises} statements "
                     f"that are not raises, {raises} raises")
    for title, names in (
            ("modules with no function entered", reach.modules),
            ("classes with no method entered", reach.classes),
            ("public functions never entered", reach.functions)):
        lines.append(f"\n{title} ({len(names)}):")
        lines.extend(f"  {name}  [{keep.get(name, 'NOT ON THE KEEP-LIST')}]"
                     for name in names)
    lines.append(f"\nstatements nothing runs ({len(reach.nothing)}):")
    lines.extend(f"  {_where(stmt)}  {stmt.function.name}"
                 f"{'  raise' if stmt.is_raise else ''}"
                 for stmt in reach.nothing)
    per_function = Counter(f"{stmt.function.module}.{stmt.function.name}"
                           for stmt in reach.tier1_only if not stmt.is_raise)
    lines.append(f"\nstatements only tier-1 runs, not raises, per function "
                 f"({sum(per_function.values())}):")
    lines.extend(f"  {count:4}  {name}"
                 for name, count in sorted(per_function.items()))
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
        entered, tested, outcomes = run_drivers(
            Path(scratch), jobs=min(4, os.cpu_count() or 1))
    reach = measure(parse_tree(), entered, tested)
    keep = read_keep()
    report = render(reach, keep, outcomes, time.perf_counter() - started)
    print(report, end="")
    if args.report is not None:
        args.report.write_text(report)
    problems = verdicts(
        set(reach.modules) | set(reach.classes) | set(reach.functions),
        reach.known, keep)
    over, lower = ceilings(reach)
    for problem in problems + over:
        print(f"check_reach: {problem}", file=sys.stderr)
    if problems or over:
        return 1
    print(f"check_reach: {len(keep)} kept, nothing else unreached; "
          f"statements within their ceilings")
    for note in lower:
        print(f"check_reach: {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
