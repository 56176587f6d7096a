"""Span recording around the library's public functions, from outside it.

A `Tracer` wraps functions and methods so that every call appends one span
(name, start, end, parent span, item id, value) to flat in-memory arrays.
Nothing under the library's source tree changes: `install` rebinds each
target in every loaded module that imported it by name, and on its class
for methods, and `restore` puts the originals back.

The calls are synchronous and single-threaded, so spans nest exactly: a
span's direct children never overlap, and its self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

MARK = "_perfbench_span"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.value = array("q")
        self._open: list[int] = []
        self.item_id = -1

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int, parent: int = -1,
               item: int = -1, value: int = 0) -> int:
        """Append one finished span; returns its index."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.item.append(item)
        self.value.append(value)
        return idx

    def wrap(self, name: str, fn: Callable,
             value_of: Optional[Callable[[object], int]] = None) -> Callable:
        """A stand-in for fn that records one span per call.

        value_of maps the result to the span's integer value (an output
        size, a node count, 1 for a rejection); it runs after the span's
        end is taken."""
        nid = self.name_id(name)
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.item.append(self.item_id)
            self.value.append(0)
            open_spans.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_spans.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if value_of is not None:
                self.value[idx] = value_of(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON, one list per column;
        span i is the i-th entry of each, and `name` indexes `names`."""
        doc = {"names": self.names, "name": self.name.tolist(),
               "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
               "parent": self.parent.tolist(), "item": self.item.tolist(),
               "value": self.value.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0  # outermost calls only, so recursion is not double counted
    self_ns: int = 0
    value: int = 0


def aggregate(tracer: Tracer, inside: tuple[str, str] = ("", ""),
              scale: Optional[list[float]] = None) -> tuple[dict[str, Stat], int]:
    """Per-name call count, inclusive time, self time and value sum.

    Also counts the spans named inside[0] that have an ancestor named
    inside[1] (for instance `split` calls made under `is_gvd`).  With
    `scale`, each span's duration is multiplied by scale[its item id]."""
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    if scale is not None:
        dur = [d * scale[tracer.item[i]] for i, d in enumerate(dur)]
    child = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    inner_id = tracer._ids.get(inside[0], -1)
    outer_id = tracer._ids.get(inside[1], -1)
    stats = [Stat() for _ in tracer.names]
    depth = [0] * len(tracer.names)  # open spans per name on the current path
    path: list[int] = []
    nested_count = 0
    for i in range(n):
        p = tracer.parent[i]
        while path and path[-1] != p:
            depth[tracer.name[path.pop()]] -= 1
        nid = tracer.name[i]
        s = stats[nid]
        s.calls += 1
        s.self_ns += dur[i] - child[i]
        s.value += tracer.value[i]
        if depth[nid] == 0:
            s.total_ns += dur[i]
        if nid == inner_id and outer_id >= 0 and depth[outer_id] > 0:
            nested_count += 1
        path.append(i)
        depth[nid] += 1
    return {tracer.names[k]: stats[k] for k in range(len(stats))}, nested_count


@dataclass(frozen=True)
class Target:
    """One library function (`attr`) or method (`cls.attr`) in `module`."""

    module: str
    attr: str
    span: str
    value_of: Optional[Callable[[object], int]] = None
    cls: Optional[str] = None


def _namespaces(prefixes: tuple[str, ...]) -> list[types.ModuleType]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def install(tracer: Tracer, targets: list[Target], prefixes: tuple[str, ...]) -> list[tuple]:
    """Wrap every target; returns the (owner, attr, original) list that
    `restore` needs.  A function is rebound in every module under
    `prefixes` that holds it by any name; a method is rebound on its class
    (classmethods keep their descriptor type).  Targets in modules that
    are not loaded are skipped."""
    spaces = _namespaces(prefixes)
    saved: list[tuple] = []
    for t in targets:
        mod = sys.modules.get(t.module)
        if mod is None:
            continue
        if t.cls is not None:
            owner = getattr(mod, t.cls)
            raw = owner.__dict__[t.attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(t.span, raw.__func__, t.value_of))
            else:
                new = tracer.wrap(t.span, raw, t.value_of)
            saved.append((owner, t.attr, raw))
            setattr(owner, t.attr, new)
            continue
        original = getattr(mod, t.attr)
        wrapper = tracer.wrap(t.span, original, t.value_of)
        for space in spaces:
            for attr, val in list(vars(space).items()):
                if val is original:
                    saved.append((space, attr, original))
                    setattr(space, attr, wrapper)
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def leftover_wrappers(prefixes: tuple[str, ...]) -> list[str]:
    """Names of any span wrappers still bound in the given modules or on
    their classes; empty after a correct `restore`."""
    found = []
    for space in _namespaces(prefixes):
        for attr, val in vars(space).items():
            if hasattr(val, MARK):
                found.append(f"{space.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == space.__name__:
                for meth, raw in vars(val).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if hasattr(fn, MARK):
                        found.append(f"{space.__name__}.{attr}.{meth}")
    return found
