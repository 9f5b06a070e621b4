"""In-memory span recorder used by the traced benchmark run.

A span is one call into a layer's public function, recorded from the
outside: ``[name, start, end, parent, op]``.  ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``op`` the id of the
benchmark operation the call belongs to.  Spans stay in memory while the
workload runs and are written once, at the end (:meth:`Tracer.dump`).

The benchmark drives the program from one thread with the serial
executor, so a plain stack gives every span its parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Record spans around wrapped calls; compute self times."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """Return *fn* with every call recorded as a span *name*."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for i, span in enumerate(self.spans):
            out.append(span[2] - span[1] - _covered(children.get(i, ())))
        return out

    def per_op(self) -> dict[int, dict]:
        """Group spans by operation.

        Returns ``{op: {"kind", "duration", "self": {name: s},
        "calls": {name: n}, "max": {name: s}}}``; the root span of an
        operation names its kind and is left out of the layer tables.
        """
        ops: dict[int, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, t0, t1, parent, op = span
            rec = ops.setdefault(op, {"kind": None, "duration": 0.0,
                                      "self": defaultdict(float),
                                      "calls": defaultdict(int),
                                      "max": defaultdict(float)})
            if parent < 0:
                rec["kind"] = name
                rec["duration"] = t1 - t0
                rec["root_self"] = own
                continue
            rec["self"][name] += own
            rec["calls"][name] += 1
            rec["max"][name] = max(rec["max"][name], t1 - t0)
        return ops

    def dump(self, path) -> None:
        """Write every span once, as JSON lines of
        ``name, start, end, parent, op``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
