"""Spans around calls into the package's layers, recorded from outside it.

``install`` wraps every public function of the layer modules wherever it is
imported (the defining module, every other ``longmap`` module that imported
it by name, and ``verification.SUITES``), plus ``Quaternion.__mul__`` and
``Quaternion.pow``.  ``uninstall`` puts the originals back.  The benchmark's
untraced runs never call ``install``, so they run the package unpatched.

A span is (pid, id, name, start, end, parent id, op id); ids are unique
within one process, and a span with parent 0 has no parent in its process
(a cli command's outermost spans belong to the op of the same id in the
benchmark's process).  Aggregates (calls, self time, rotate rows) cover
every span; each process keeps its first ``Tracer.keep`` spans in memory
and appends them to the trace file when it is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("quaternions", "quandles", "tangles", "colorings", "longitudes",
          "verification", "cli")
METHODS = (("Quaternion", "__mul__", "quaternions.Quaternion.mul"),
           ("Quaternion", "pow", "quaternions.Quaternion.pow"))
SOLVE = "colorings.solve_colorings"


def span_name(layer, attr):
    """Span name of a public function: cli command handlers are named after
    their subcommand (``cmd_sweep`` -> ``cli.main.sweep``)."""
    if layer == "cli" and attr.startswith("cmd_"):
        return "cli.main." + attr[len("cmd_"):]
    return f"{layer}.{attr}"


class Tracer:
    def __init__(self, path=None, keep=50_000):
        self.path = path  # the trace file, started with ``start_trace``
        self.keep = keep
        self.pid = os.getpid()
        self.op = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.n_spans = 0
        self.root_s = 0.0  # time inside spans that have no parent
        self._stack = []  # [span id, name, start, time in children]

    def enter(self, name):
        self.n_spans += 1
        self._stack.append([self.n_spans, name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            self.root_s += dur
        if len(self.spans) < self.keep:
            self.spans.append((self.pid, sid, name, start, end, parent,
                               self.op))

    def inside(self, name):
        return any(entry[1] == name for entry in self._stack)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def wrap_rotate(self, fn):
        """rotate, split into single-row and batch calls, counting rows."""
        tracer = self

        @functools.wraps(fn)
        def traced(u, angle, v):
            rows = max(_rows(u), _rows(v))
            tracer.counts["quaternions.rotate.rows"] += rows
            if tracer.inside(SOLVE):
                tracer.counts["solve.rotate_rows"] += rows
            tracer.enter("quaternions.rotate."
                         + ("single" if rows == 1 else "batch"))
            try:
                return fn(u, angle, v)
            finally:
                tracer.exit()

        return traced

    def wrap_solve(self, fn):
        """solve_colorings, counting the seeds it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(SOLVE)
            try:
                seeds = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.counts["solve.seeds"] += len(seeds)
            return seeds

        return traced

    def merge(self, stats):
        """Add the aggregates a child process reported, under the span open
        here."""
        if self._stack:
            self._stack[-1][3] += stats["root_s"]
        for name, n in stats["calls"].items():
            self.calls[name] += n
        for name, s in stats["self_s"].items():
            self.self_s[name] += s
        for name, n in stats["counts"].items():
            self.counts[name] += n
        self.n_spans += stats["n_spans"]

    def stats(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "n_spans": self.n_spans,
                "root_s": self.root_s}

    def flush(self):
        """Append the kept spans to the trace file as JSON lines."""
        with open(self.path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def start_trace(path):
    """Start a trace file with a header line naming the span fields."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["pid", "id", "name", "start", "end",
                                        "parent", "op"]}) + "\n")


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape[:-1]:
        n *= d
    return n


def install(tracer):
    """Patch every layer's public functions; return the undo list."""
    import longmap

    modules = {layer: importlib.import_module(f"longmap.{layer}")
               for layer in LAYERS}
    holders = [longmap, *modules.values()]
    undo = []
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = span_name(layer, attr)
            if name == "quaternions.rotate":
                wrapped = tracer.wrap_rotate(fn)
            elif name == SOLVE:
                wrapped = tracer.wrap_solve(fn)
            else:
                wrapped = tracer.wrap(name, fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
    suites = modules["verification"].SUITES
    for key, fn in list(suites.items()):
        undo.append((suites, key, fn))
        suites[key] = tracer.wrap(f"verification.{fn.__name__}", fn)
    for cls_name, attr, name in METHODS:
        cls = getattr(modules["quaternions"], cls_name)
        fn = cls.__dict__[attr]
        undo.append((cls, attr, fn))
        setattr(cls, attr, tracer.wrap(name, fn))
    return undo


def uninstall(undo):
    for holder, key, value in reversed(undo):
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)
