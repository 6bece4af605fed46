"""Spans and counters for the traced benchmark run.

Only the traced run creates a ``Tracer`` and installs its wrappers; the
untraced run uses ``NullTracer``, whose spans are empty contexts and which
patches nothing.  Spans are opened by the benchmark around its own calls and
by wrappers that replace public functions (module globals or class methods)
of the package for the length of the traced run.

Functions called hundreds of thousands of times per operation (overlap
checks, ``contains``, ``approx``) are wrapped as *leaves*: the tracer keeps a
call count and total time per operation for them instead of one span per
call, which would cost more memory than the run itself.  Leaf time still
counts as child time of the span that was open when it ran.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Optional


class NullTracer:
    """Stand-in for the untraced run: no spans, no wrappers, plain distances."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def operation(self, op: str):
        return contextlib.nullcontext()

    def distance(self, base):
        return base


class DistanceCounts:
    """Calls made through one counting distance, per operation."""

    def __init__(self):
        self.eval_calls = 0
        self.rows_calls = 0
        self.rows_points = 0


class Tracer:
    """In-memory spans (name, start, end, parent, operation) plus leaf totals.

    Self time of a span is its duration minus the time covered by its direct
    children.  Spans here are opened and closed on one thread, so children
    of one span never overlap and that cover is the sum of their durations.
    """

    enabled = True

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}  # (op, name) -> [calls, seconds]
        self.counts: dict[str, DistanceCounts] = {}  # op -> distance counts
        self.missing: list[str] = []
        self.op: Optional[str] = None
        self._stack: list[list] = []  # open spans: [id, name, start, child_seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span_id, _, start, child = frame
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += end - start
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                    "parent": None if parent is None else parent[0],
                    "op": self.op,
                    "self_s": (end - start) - child,
                }
            )

    @contextlib.contextmanager
    def operation(self, op: str):
        """One timed call of the workload; its spans share the operation id."""
        self.op = op
        try:
            with self.span(op):
                yield
        finally:
            self.op = None

    def _leaf(self, name: str, seconds: float) -> None:
        total = self.leaves.setdefault((self.op, name), [0, 0.0])
        total[0] += 1
        total[1] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``unwrap``.

        A name the package no longer has is recorded in ``missing``; the
        metrics built on it are then reported as missing, not as zero.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        if leaf:
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._leaf(name, time.perf_counter() - start)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def distance(self, base):
        """A DistanceFn with the name, kind and kernels of ``base`` that counts calls."""
        from granule.metrics import DistanceFn

        def counts() -> DistanceCounts:
            return self.counts.setdefault(self.op, DistanceCounts())

        def eval_(a, b):
            counts().eval_calls += 1
            return base.eval(a, b)

        rows = None
        if base.rows is not None:
            def rows(m, v):
                c = counts()
                c.rows_calls += 1
                c.rows_points += m.shape[0]
                return base.rows(m, v)

        return DistanceFn(
            name=base.name,
            eval=eval_,
            declared_kind=base.declared_kind,
            declared_k=base.declared_k,
            rows=rows,
        )

    # -- queries ------------------------------------------------------------

    def seconds(self, op: str, name: str) -> float:
        """Total duration of the spans called ``name`` inside operation ``op``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["op"] == op and s["name"] == name)

    def self_seconds(self, op: str, name: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["op"] == op and s["name"] == name)

    def calls(self, op: str, name: str) -> int:
        return sum(1 for s in self.spans if s["op"] == op and s["name"] == name)

    def leaf(self, op: str, name: str) -> tuple[int, float]:
        calls, seconds = self.leaves.get((op, name), (0, 0.0))
        return calls, seconds

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (op, name), (calls, seconds) in sorted(self.leaves.items(), key=str):
                fh.write(json.dumps({"leaf": name, "op": op, "calls": calls, "seconds": seconds}) + "\n")
            for op, c in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"distance_counts": op, **vars(c)}) + "\n")
            if self.missing:
                fh.write(json.dumps({"missing": self.missing}) + "\n")
