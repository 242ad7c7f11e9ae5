"""Name the reference cycles a piece of code leaves behind.

A run of this system should free what it made by reference counting
alone (DESIGN.md decision 23).  :func:`leftover_cycles` runs a callable
with the collector off, drops its result, and asks the collector what
only it could free.  Each strongly connected component of that garbage
is reported by the types in it and the attribute that closes it, so a
failing pin says ``HerdCoupler._ticker -> EpochTicker.action -> ...``
instead of a bare object count.

Not a test module: the ``teardown`` pins in ``test_perf_paths.py`` use
it.
"""

from __future__ import annotations

import gc
import types
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def leftover_cycles(run: Callable[[], object]) -> Tuple[int, List[str]]:
    """``(unreachable, report)`` for whatever ``run()`` leaves as cyclic
    garbage once its result is dropped.

    ``run`` is called twice and the second call is measured, so lazy
    imports and first-use caches are not counted against it.

    ``unreachable`` is what ``gc.collect()`` returns; ``report`` holds
    one line per strongly connected component, largest first, and is
    empty when ``unreachable`` is 0.
    """
    was_enabled = gc.isenabled()
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            unreachable = gc.collect()
            garbage = list(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
        report = describe(garbage) if unreachable else []
        del garbage
        gc.collect()
        return unreachable, report
    finally:
        if was_enabled:
            gc.enable()


def describe(garbage: List[object]) -> List[str]:
    """One line per cycle of ``garbage``: its size, its types, and a
    closing loop written as ``Type.attr -> Type.attr -> ...``."""
    ids: Dict[int, object] = {id(obj): obj for obj in garbage}
    edges: Dict[int, List[int]] = {
        key: [id(ref) for ref in gc.get_referents(obj) if id(ref) in ids]
        for key, obj in ids.items()}
    lines: Counter = Counter()
    for component in _components(edges):
        if len(component) == 1 and component[0] not in edges[component[0]]:
            continue  # garbage only because a cycle holds it
        members = set(component)
        loop = _loop(component[0], edges, members)
        kinds = Counter(_kind(ids[key]) for key in component)
        census = ", ".join(f"{count} {kind}" for kind, count
                           in sorted(kinds.items(), key=lambda kv: -kv[1]))
        lines[(len(component), f"{len(component)} objects ({census}): "
               + _path(loop, ids))] += 1
    return [line if times == 1 else f"{times} x {line}"
            for (_, line), times in sorted(lines.items(),
                                           key=lambda kv: -kv[0][0] * kv[1])]


def _components(edges: Dict[int, List[int]]) -> Iterable[List[int]]:
    """Tarjan's strongly connected components, iteratively."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    counter = 0
    for root in edges:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(edges[child])))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component


def _loop(start: int, edges: Dict[int, List[int]], members: set) -> List[int]:
    """The shortest path from ``start`` back to itself inside one
    component (breadth first)."""
    parent: Dict[int, Optional[int]] = {start: None}
    frontier = [start]
    while frontier:
        following = []
        for node in frontier:
            for child in edges[node]:
                if child not in members:
                    continue
                if child == start:
                    path = [node]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1] + [start]
                if child not in parent:
                    parent[child] = node
                    following.append(child)
        frontier = following
    return [start]


def _path(loop: List[int], ids: Dict[int, object]) -> str:
    steps = []
    objs = [ids[key] for key in loop]
    i = 0
    while i < len(objs) - 1:
        obj, there = objs[i], objs[i + 1]
        if (i + 2 < len(objs) and not isinstance(obj, dict)
                and getattr(obj, "__dict__", None) is there):
            # An instance and its attribute dict read as one step.
            steps.append(f"{_kind(obj)}{_attribute(obj, objs[i + 2])}")
            i += 2
            continue
        steps.append(f"{_kind(obj)}{_attribute(obj, there)}")
        i += 1
    return " -> ".join(steps) + f" -> {_kind(objs[-1])}"


def _kind(obj: object) -> str:
    if isinstance(obj, types.FunctionType):
        return f"function {obj.__qualname__}"
    if isinstance(obj, types.MethodType):
        return f"method {obj.__func__.__qualname__}"
    if isinstance(obj, types.FrameType):
        return f"frame {obj.f_code.co_name}"
    if isinstance(obj, types.GeneratorType):
        return f"generator {obj.__qualname__}"
    if isinstance(obj, type):
        return f"class {obj.__qualname__}"
    return type(obj).__qualname__


def _attribute(obj: object, target: object) -> str:
    """How ``obj`` refers to ``target``: ``.name``, ``[key]`` or ``[i]``,
    or empty when no name is found (an internal slot)."""
    if isinstance(obj, types.MethodType):
        return ".__self__" if obj.__self__ is target else ".__func__"
    if isinstance(obj, types.FunctionType):
        for name, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            if cell is target:
                return f".<closure {name}>"
        return ""
    if isinstance(obj, types.CellType):
        return ".cell_contents"
    if isinstance(obj, types.FrameType):
        for name, value in obj.f_locals.items():
            if value is target:
                return f".<local {name}>"
        return ""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if value is target:
                return f"[{key!r}]"
            if key is target:
                return f"[key {_kind(key)}]"
        return ""
    if isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            if value is target:
                return f"[{i}]"
        return ""
    for name in _slots(type(obj)):
        if getattr(obj, name, None) is target:
            return f".{name}"
    namespace = getattr(obj, "__dict__", None)
    if isinstance(namespace, dict):
        if namespace is target:
            return ".__dict__"
        for name, value in namespace.items():
            if value is target:
                return f".{name}"
    return ""


def _slots(cls: type) -> List[str]:
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    return names
