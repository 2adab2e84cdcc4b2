"""Span recording from outside the program, and self-time arithmetic.

The benchmark never edits ``repro``: it wraps public layer functions
and methods with :class:`SpanRecorder` spans, installing each wrapper
wherever a caller looks the name up (the defining module, every
``repro`` module that imported the function by name, or the class for
a method).  A span records ``(id, parent, name, start, end, op)``; the
parent is the innermost open span on the same thread, and every span
under one root shares the root's operation id.  Spans stay in memory
until :func:`dump` writes them out.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; over a properly nested tree the self
times of all spans sum exactly to the root's wall time.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans and counters; thread-safe, one per process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started: Optional[float] = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[Tuple[int, int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen for ``name``."""
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, op = stack[-1][0], stack[-1][1]
        else:
            parent, op = None, next(self._ops)
        stack.append((span_id, op, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end, op))

    # -- installation ----------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """A wrapper recording a span around ``fn``.  ``after(recorder,
        args, result, outer)`` runs outside the span to update counters;
        ``outer`` names the span that was open when ``fn`` was called."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = recorder.parent_name()
            result = recorder.call(name, fn, *args, **kwargs)
            if after is not None:
                after(recorder, args, result, outer)
            return result

        wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch_function(
        self, module, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        """Wrap a module-level function in its defining module and in
        every loaded ``repro`` module that holds it under any name."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(
        self, cls, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector -----------------------------------------------

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.count("py.gc_s", self.clock() - self._gc_started)
            self._gc_started = None
            if info.get("generation") == 2:
                self.count("py.gc_gen2")



def dump(spans: Iterable[Span], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.__dict__) + "\n")


# -- self-time arithmetic ------------------------------------------------------


def children_of(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def _covered(span: Span, kids: List[Span]) -> float:
    """Length of the union of the children's intervals, clipped to
    ``span``'s interval."""
    total = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, cursor)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time."""
    spans = list(spans)
    children = children_of(spans)
    return {
        span.id: span.duration - _covered(span, children.get(span.id, []))
        for span in spans
    }


def roots(spans: Iterable[Span]) -> List[Span]:
    return [span for span in spans if span.parent is None]


def selftime_gap(spans: Iterable[Span]) -> float:
    """Largest relative gap, over root operations, between the sum of
    the self times in a root's tree and the root's wall time."""
    spans = list(spans)
    selfs = self_times(spans)
    per_op: Dict[int, float] = {}
    for span in spans:
        per_op[span.op] = per_op.get(span.op, 0.0) + selfs[span.id]
    gap = 0.0
    for root in roots(spans):
        if root.duration > 0:
            gap = max(gap, abs(per_op[root.op] - root.duration) / root.duration)
    return gap


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[int, float, float]]:
    """Span name -> (calls, total self seconds, total inclusive seconds).

    Inclusive time counts only outermost spans of a name, so a
    recursive or re-entrant layer is not counted twice."""
    spans = list(spans)
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += selfs[span.id]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.name == span.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if not nested:
            entry[2] += span.duration
    return {name: (int(c), s, i) for name, (c, s, i) in totals.items()}


def self_time_tree(spans: Iterable[Span]) -> str:
    """A text tree aggregated by name path: calls, self and total time."""
    spans = list(spans)
    selfs = self_times(spans)
    children = children_of(spans)
    rows: Dict[Tuple[str, ...], List[float]] = {}

    def visit(span: Span, path: Tuple[str, ...]) -> None:
        path = path + (span.name,)
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[span.id]
        row[2] += span.duration
        for kid in children.get(span.id, []):
            visit(kid, path)

    for root in roots(spans):
        visit(root, ())
    lines = [f"{'span':<48} {'calls':>7} {'self_s':>10} {'total_s':>10}"]
    for path in sorted(rows):
        calls, self_s, total_s = rows[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<48} {int(calls):>7} {self_s:>10.4f} {total_s:>10.4f}")
    return "\n".join(lines)
