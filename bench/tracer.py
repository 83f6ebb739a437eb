"""In-memory span tracer for the benchmark's traced runs.

The tracer rebinds the module attributes that callers look up (for example
``mixedbvp.series.assemble_from_spec``) to timing wrappers while an
operation is being recorded, and restores them afterwards, so nothing under
``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent index, op id]`` and written out once at the end
of a run.  Hot methods are counted rather than spanned.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import contextmanager


class Tracer:
    """Wraps ``targets`` in spans and ``counted`` in call counters.

    targets: (owner, attribute, span name, on_result or None); on_result
        receives the tracer and the call's return value, so facts about the
        result (mode counts, accuracies) land in the same op as the span.
    counted: (owner, attribute, counter name), for methods called too often
        for a span each.
    """

    def __init__(self, targets, counted=()):
        self.targets = list(targets)
        self.counted = list(counted)
        self.spans = []
        self.counts = {}
        self.stack = []
        self.op = None
        self._saved = []

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` under ``name`` for the op being recorded."""
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name`` in this op."""
        key = (self.op, name)
        self.counts[key] = max(self.counts.get(key, value), value)

    def _span(self, fn, name, on_result):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _counter(self, fn, name):
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        for name in {self.spans[i][0] for i in self.stack}:
            self.add("warnings@" + name)

    @contextmanager
    def recording(self, op_id):
        """Trace everything called inside the block as operation ``op_id``."""
        self.op = op_id
        for owner, attr, name, on_result in self.targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(fn, name, on_result))
        for owner, attr, name in self.counted:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(fn, name))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._on_warning
                yield
        finally:
            for owner, attr, fn in reversed(self._saved):
                setattr(owner, attr, fn)
            self._saved.clear()
            self.op = None

    def per_op(self):
        """{op: {"total": {name: s}, "self": {name: s}, "calls": {name: n},
        "counts": {name: value}}} from the recorded spans and counters."""
        out = {}

        def slot(op):
            return out.setdefault(op, {"total": {}, "self": {}, "calls": {}, "counts": {}})

        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            rec = slot(op)
            rec["total"][name] = rec["total"].get(name, 0.0) + (end - start)
            rec["self"][name] = rec["self"].get(name, 0.0) + (end - start - child_time[idx])
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
        for (op, name), value in self.counts.items():
            slot(op)["counts"][name] = value
        return out

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        payload["counts"] = [
            {"op": op, "name": name, "value": value}
            for (op, name), value in sorted(self.counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
