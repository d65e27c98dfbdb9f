"""Spans for the traced benchmark run.

A ``Tracer`` records one span per wrapped call: name, parent span, start and
end in host seconds (``time.perf_counter``). Spans stay in compact arrays in
memory and are written out once the run is over. Calls too frequent to time
one by one are only counted.

``install`` replaces layer entry points with wrappers that feed a tracer and
returns what it replaced; ``restore`` puts the originals back. The wrappers
pass arguments, results and exceptions through unchanged, so a traced run
produces the same trace bytes as an untraced one.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

SPAN = "span"
COUNT = "count"


@dataclass
class NameTotals:
    """Everything the spans of one name add up to, host seconds."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.errors.append(0)
        return self._ids[name]

    def span_wrapper(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def count_wrapper(self, name: str, fn):
        """``fn`` with its calls counted under ``name``; several functions may
        share one name."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def totals(self) -> dict[str, NameTotals]:
        """Calls, inclusive time, self time and errors per span name."""
        self_s = self_times(self.parent, self.start, self.end)
        out = {name: NameTotals(errors=self.errors[i]) for i, name in enumerate(self.names)}
        names = self.names
        for i, nid in enumerate(self.name):
            t = out[names[nid]]
            t.calls += 1
            t.inclusive_s += self.end[i] - self.start[i]
            t.self_s += self_s[i]
        return out

    def top_level_s(self) -> float:
        """Host seconds covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0
        )

    def write(self, path, meta: dict) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "meta": meta,
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Header and arrays of a file written by ``Tracer.write``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            arrays[field] = arr
    return header, arrays


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be indexed in start order, as a ``Tracer`` records them, and
    children must lie inside their parent. Overlapping children are counted
    once: ``reach`` holds the latest end among a span's children so far.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            lo = start[i] if start[i] > reach[p] else reach[p]
            if end[i] > lo:
                covered[p] += end[i] - lo
                reach[p] = end[i]
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def install(tracer: Tracer, targets) -> list:
    """Wrap each ``(owner, attribute, name, kind)`` target; return the originals."""
    saved = []
    try:
        for owner, attr, name, kind in targets:
            original = vars(owner)[attr]
            wrap = tracer.span_wrapper if kind == SPAN else tracer.count_wrapper
            setattr(owner, attr, wrap(name, original))
            saved.append((owner, attr, original))
    except BaseException:
        restore(saved)
        raise
    return saved


def restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, targets):
    saved = install(tracer, targets)
    try:
        yield tracer
    finally:
        restore(saved)
