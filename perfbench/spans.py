"""Span recording for the benchmark's traced run.

A ``Tracer`` wraps chosen package functions so that every call records one
span: name, start, end, parent span and job id, plus a one-bit outcome flag
for the functions whose ratios need one (``in_span`` true, ``solve``
consistent, ``mat_det`` zero).  Spans live in flat ``array`` columns, about
27 bytes each, because a traced ``build`` block records nearly half a
million of them, most of them determinants.  They are written out once, when the run ends, and every
self time, count and ratio the benchmark prints is derived from them.

``from .x import y`` copies a function reference into the importing module,
so ``install`` swaps the wrapper into every ``convmds`` module that binds the
original, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
from array import array
from collections import Counter

FIELDS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"),
          ("job", "i"), ("flag", "b"))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {field: array(code) for field, code in FIELDS}
        self.job_id = -1
        self._stack = [-1]
        self._patched = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, outcome=None):
        """Return fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        c = self.cols
        names, starts, ends = c["name"], c["start"], c["end"]
        parents, jobs, flags = c["parent"], c["job"], c["flag"]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            flags.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                flags[sid] = 1
            return result

        return traced

    def job_runner(self, name: str):
        """Return call(fn), which runs fn as the next job: a root span with
        a fresh job id."""
        span = self.wrap(name, lambda fn: fn())

        def call(fn):
            self.job_id += 1
            return span(fn)

        return call

    def install(self, package: str, targets) -> None:
        """Swap each (module, function, outcome) target for its wrapper in
        every loaded module of the package that binds the original."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for modname, attr, outcome in targets:
            orig = getattr(sys.modules[f"{package}.{modname}"], attr)
            wrapped = self.wrap(f"{modname}.{attr}", orig, outcome)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.cols["start"])

    def write(self, path) -> None:
        """One JSON header line, then each column's raw bytes in FIELDS order."""
        header = {"names": self.names, "count": len(self),
                  "fields": [list(f) for f in FIELDS],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in FIELDS:
                self.cols[field].tofile(fh)

    def summary(self) -> "SpanSummary":
        """Aggregate the spans by name.

        A span's self time is its duration minus the time its direct child
        spans cover; children of one span never overlap, because the
        benchmark runs one thread.  No wrapped function calls itself, so
        summing durations by name counts no interval twice.
        """
        c = self.cols
        n = len(self)
        dur = array("d", map(operator.sub, c["end"], c["start"]))
        covered = array("d", bytes(8 * n))
        parents = c["parent"]
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
        k = len(self.names)
        calls, flagged = [0] * k, [0] * k
        total, own = [0.0] * k, [0.0] * k
        pairs = Counter()
        names, flags = c["name"], c["flag"]
        for i in range(n):
            a = names[i]
            calls[a] += 1
            flagged[a] += flags[i]
            total[a] += dur[i]
            own[a] += dur[i] - covered[i]
            p = parents[i]
            if p >= 0:
                pairs[names[p], a] += 1
        return SpanSummary(self.names, calls, flagged, total, own, pairs, n)


class SpanSummary:
    """Per-name calls, flagged calls, total and self seconds, and
    parent -> child call counts.  Names never recorded read as zero."""

    def __init__(self, names, calls, flagged, total, own, pairs, spans):
        ix = {name: i for i, name in enumerate(names)}
        self._calls = {n: calls[i] for n, i in ix.items()}
        self._flagged = {n: flagged[i] for n, i in ix.items()}
        self._total = {n: total[i] for n, i in ix.items()}
        self._own = {n: own[i] for n, i in ix.items()}
        self._pairs = {(names[p], names[c]): v for (p, c), v in pairs.items()}
        self.spans = spans

    def calls(self, name):
        return self._calls.get(name, 0)

    def total_s(self, name):
        return self._total.get(name, 0.0)

    def self_s(self, name):
        return self._own.get(name, 0.0)

    def flag_ratio(self, name):
        calls = self.calls(name)
        return self._flagged.get(name, 0) / calls if calls else 0.0

    def children_per_call(self, parent, child):
        calls = self.calls(parent)
        return self._pairs.get((parent, child), 0) / calls if calls else 0.0
