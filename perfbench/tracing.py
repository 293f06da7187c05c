"""The benchmark's own spans around the calls into each layer.

A :class:`Tracer` wraps the public functions each layer is entered
through — patched on their classes and modules for the duration of a
traced round, restored afterwards — and records one span per call:
name, start, end, parent span and operation id.  Spans stay in memory
and are written out when the run ends.  Nothing inside the program is
changed; untraced rounds run with no wrapper installed at all.

A layer's *self* time is its span's duration minus the durations of its
direct child spans (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (module or class path, attribute, span name).  ``make_workload`` is
#: patched in both namespaces it is called through.
PATCH_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.apps.dag_workloads", "make_workload", "apps.make_workload"),
    ("repro.campaign.runner", "make_workload", "apps.make_workload"),
    ("repro.apps.dag_workloads", "stream_window", "apps.stream_window"),
    ("repro.core.runtime:Runtime", "submit_all", "deps.submit_all"),
    ("repro.core.runtime:Runtime", "run", "sim.run"),
    ("repro.core.runtime:Runtime", "taskwait", "sim.taskwait"),
    ("repro.core.deps:DependenceTracker", "invalidate_region_caches",
     "deps.invalidate_region_caches"),
    ("repro.core.graph:TaskGraph", "prepare_wake_order", "graph.analysis"),
    ("repro.core.graph:TaskGraph", "compute_bottom_levels", "graph.analysis"),
    ("repro.campaign.store:ResultStore", "append", "campaign.store_append"),
)


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class NullTracer:
    """Untraced rounds: every hook is a no-op."""

    enabled = False

    def start_op(self, op: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def abandon_op(self) -> None:
        pass

    def span(self, name: str) -> Any:
        return nullcontext()


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records spans as ``[name, start, end, parent, op]`` lists."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._op = ""

    def _begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._op])

    def _end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def start_op(self, op: str) -> None:
        self._op = op
        self._begin("op")

    def end_op(self) -> None:
        self._end()

    def abandon_op(self) -> None:
        """Drop an operation span opened for work that never came."""
        self.spans.pop(self._stack.pop())

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :data:`PATCH_TARGETS` entry for the block."""
        saved = []
        try:
            for path, attr, name in PATCH_TARGETS:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, inclusive seconds, self seconds]``."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out: Dict[str, List[float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += t1 - t0
            slot[2] += t1 - t0 - child_s[i]
        return out

    def top_level_s(self, names: Tuple[str, ...]) -> float:
        """Inclusive seconds of spans named in ``names`` whose parent is
        not itself one of them (``run`` nests ``taskwait``)."""
        spans = self.spans
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if name in names and (
                parent is None or spans[parent][0] not in names
            ):
                total += t1 - t0
        return total

    def self_time_table(self) -> List[Tuple[str, int, float, float, float]]:
        """Rows of ``(span, calls, total_ms, self_ms, self % of op time)``."""
        totals = self.totals()
        op_s = totals.get("op", [0, 0.0, 0.0])[1] or 1.0
        return [
            (name, int(calls), total * 1e3, self_s * 1e3,
             100.0 * self_s / op_s)
            for name, (calls, total, self_s) in sorted(
                totals.items(), key=lambda kv: -kv[1][2]
            )
        ]
