"""Fail the lint job when an emission and the observability catalog disagree.

``src/repro/obs/catalog.py`` declares every metric name with its kind,
every decision kind and every trace category.  This checker walks
``src/repro`` and fails on:

1. an emission site naming what the catalog does not declare;
2. a metric site of the wrong kind (``.gauge()`` on a declared counter);
3. a catalog entry that no site emits.

An emission site is the first argument of a registry's (a receiver
named ``metrics``) ``counter``, ``gauge`` or ``histogram``; the kind a
decision log (a receiver named ``*decisions``) is given by
``emit``/``record``, and the kind ``AdmissionController._log`` is
given; the category of a tracer's ``begin``/``instant`` (its second
argument or ``category=``); and the counter and gauge names a subclass
hands ``BandwidthLedger``.  In an
f-string each field reads as ``<name>``; both arms of a conditional
are read.  A site whose name is no literal fails too, except inside
the two pass-throughs, whose callers are read instead.

Pure stdlib (``ast``), so it runs in the lint job before any install.

Usage::

    python tools/check_catalog.py [src-root]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

CATALOG = Path("obs", "catalog.py")
#: a module none of these appear in has no emission site (ruff's E211
#: keeps a call's parenthesis on its name), so it is not parsed.
MAY_EMIT = re.compile(
    r"\.(counter|gauge|histogram|emit|record|begin|instant|_log)\(|BandwidthLedger")
METRIC_KINDS = ("counter", "gauge", "histogram")
#: (class, function) whose emission takes its name from the caller.
PASS_THROUGH = {("BandwidthLedger", "__init__"), ("AdmissionController", "_log")}


def literal_names(node):
    """The names an argument can take, or None if it is no literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant)
                        else "<name>" for part in node.values)]
    if isinstance(node, ast.IfExp):
        body, orelse = literal_names(node.body), literal_names(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def read_catalog(path: Path) -> dict:
    """Table name -> {entry: (line, metric kind or None)}."""
    tables = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            table = node.targets[0].id
            tables[table] = {
                key.value: (key.lineno, value.elts[0].value
                            if table == "METRICS" else None)
                for key, value in zip(node.value.keys, node.value.values)}
    return tables


def _receiver(func: ast.Attribute) -> str:
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    return value.id if isinstance(value, ast.Name) else ""


def _sites_of(call: ast.Call, cls) -> list:
    """(table, metric kind, argument) per name the call emits."""
    func, args = call.func, call.args
    if not isinstance(func, ast.Attribute):
        return []
    receiver = _receiver(func)
    if func.attr in METRIC_KINDS and receiver == "metrics":
        return [("METRICS", func.attr, args[0])]
    if func.attr in ("emit", "record") and receiver.endswith("decisions"):
        return [("DECISIONS", None, args[0])]
    if func.attr in ("begin", "instant") and receiver == "tracer":
        category = args[1] if len(args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "category"),
            ast.Constant(""))
        return [("CATEGORIES", None, category)]
    if cls is None:
        return []
    if (func.attr == "_log" and receiver == "self"
            and cls.name == "AdmissionController"):
        return [("DECISIONS", None, args[0])]
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", "") == "super"
            and any(getattr(base, "id", "") == "BandwidthLedger"
                    for base in cls.bases)):
        return [("METRICS", "counter", args[2]), ("METRICS", "gauge", args[3])]
    return []


def sites(tree: ast.Module) -> list:
    """(line, table, metric kind, names or None, scope) per emission."""
    out = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if isinstance(child, ast.Call):
                scope = (cls.name if cls else None, function)
                out.extend((child.lineno, table, kind,
                            literal_names(argument), scope)
                           for table, kind, argument in _sites_of(child, cls))
            visit(child, cls, function)

    visit(tree, None, None)
    return out


def check(root: Path) -> list:
    """Every disagreement between ``root``'s emissions and its catalog."""
    catalog = root / CATALOG
    tables = read_catalog(catalog)
    used = {table: set() for table in tables}
    problems = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        if not MAY_EMIT.search(text):
            continue
        tree = ast.parse(text, filename=str(path))
        for line, table, kind, names, scope in sites(tree):
            where = f"{path}:{line}"
            if names is None:
                if scope not in PASS_THROUGH:
                    problems.append(f"{where}: a {table} name that is no "
                                    f"literal")
                continue
            for name in names:
                used[table].add(name)
                entry = tables[table].get(name)
                if entry is None:
                    problems.append(f"{where}: {name!r} is not in "
                                    f"{catalog}'s {table}")
                elif kind is not None and entry[1] != kind:
                    problems.append(f"{where}: {name!r} is declared a "
                                    f"{entry[1]}, used as a {kind}")
    for table, entries in tables.items():
        for name, (line, _) in entries.items():
            if name not in used[table]:
                problems.append(f"{catalog}:{line}: {table} entry {name!r} "
                                f"has no emission site")
    return problems


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    problems = check(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_catalog: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    tables = read_catalog(root / CATALOG)
    print("check_catalog: " + ", ".join(
        f"{len(entries)} {table.lower()}" for table, entries in tables.items())
        + " declared, each emitted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
