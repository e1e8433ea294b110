"""Spans and counts recorded around the calls one bnkit module makes into another.

A `Tracer` patches module attributes while it is installed.  Python resolves
a module-level name at call time in the calling module's namespace, so
patching `bnkit.solver.closure` catches the solver's calls into the cubes
layer without touching the library's source.  Timed functions become spans
(name, start, end, parent); hot functions are only counted, because timing
every call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import json
import time

import bnkit.cubes
import bnkit.dynamics
import bnkit.network
import bnkit.solver

# (module, attribute, span name).  Each entry is a cross-module call site.
TIMED = (
    (bnkit.network, "parse_expression", "expressions.parse_expression"),
    (bnkit.network, "normalize", "network.normalize"),
    (bnkit.network.BooleanNetwork, "image", "network.image"),
    (bnkit.solver, "closure", "cubes.closure"),
    (bnkit.dynamics, "closure", "cubes.closure"),
    (bnkit.dynamics, "mp_successors", "dynamics.mp_successors"),
)
COUNTED = (
    (bnkit.solver, "evaluate", "network.evaluate"),
    (bnkit.cubes, "eval_mask", "cubes.eval_mask"),
    (bnkit.solver, "eval_mask", "cubes.eval_mask"),
    (bnkit.dynamics, "eval_mask", "cubes.eval_mask"),
)
# Generator functions called from another module: each resumption is a span.
STREAMS = (
    (bnkit.solver, "fixed_points", "solver.fixed_points"),
    (bnkit.dynamics, "minimal_trap_spaces", "solver.min"),
)

# Stored spans per traced cycle; later spans still add to totals and self time.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.spans_dropped = 0
        self.total = {}  # name -> summed duration
        self.self_time = {}  # name -> duration minus direct children
        self.calls = {}  # name -> count (spans and counted calls)
        self.hits = {}  # stream name -> calls that yielded at least once
        self._stack = []  # [name, start, child seconds, span index or -1]
        self._saved = []
        self._counters = []  # (name, [count]) of installed counting wrappers

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name):
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([self._id(name), 0.0, 0.0, parent])
        else:
            self.spans_dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def leave(self):
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        if index >= 0:
            self.spans[index][1:3] = start, end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def count(self, name, n=1):
        self.calls[name] = self.calls.get(name, 0) + n

    # -- patching --------------------------------------------------------

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, fn, name):
        counter = [0]
        self._counters.append((name, counter))

        @functools.wraps(fn)
        def wrapper(*args):
            counter[0] += 1
            return fn(*args)

        return wrapper

    def _stream(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".created")
            gen = fn(*args, **kwargs)
            yielded = False
            while True:
                try:
                    item = self.span(name, next, gen)
                except StopIteration:
                    return
                if not yielded:
                    yielded = True
                    self.hits[name] = self.hits.get(name, 0) + 1
                yield item

        return wrapper

    def install(self):
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted), (STREAMS, self._stream)):
            for owner, attr, name in table:
                if not hasattr(owner, attr):
                    continue  # the call site is gone; nothing to trace there
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for name, counter in self._counters:
            self.count(name, counter[0])
        self._counters = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------

    def write(self, path, extra):
        """Write spans and counts as one JSON document."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent"]
        doc["spans"] = [
            [self.names[i], round(s, 9), round(e, 9), p] for i, s, e, p in self.spans
        ]
        doc["spans_dropped"] = self.spans_dropped
        doc["calls"] = dict(sorted(self.calls.items()))
        doc["total_s"] = dict(sorted(self.total.items()))
        doc["self_s"] = dict(sorted(self.self_time.items()))
        doc["hits"] = dict(sorted(self.hits.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh)
