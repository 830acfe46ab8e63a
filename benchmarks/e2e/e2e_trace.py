"""Spans recorded from the benchmark's side of each layer boundary.

The traced pass wraps the calls *into* each layer — some made by the
benchmark itself (``parse``, ``plan_query``, ``Runner.submit``,
``QueryHandle.wait``), some made inside ``ParallelRunner.submit``
(``optimize_plan``, ``compile_plan``, ``execute_graph_parallel``), which
:meth:`Tracer.wrapping` reaches by temporarily rebinding the function in every
``repro`` module that holds it.  Spans stay in memory until the run ends, are
flushed as Chrome trace-event JSON, and every per-layer time metric is
computed from them: a span's *self time* is its duration minus the part its
child spans cover.  A later change that records spans inside the program can
replace this producer without touching the metric names.
"""

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "statement", "phase", "args")

    def __init__(self, span_id, name, start, parent, statement, phase, args):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.statement = statement
        self.phase = phase
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; ``phase`` and ``statement`` label what is running."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[Span] = []
        #: Which part of the run the next spans belong to ("setup-0", "pass-3",
        #: "inline", ...); per-layer metrics are grouped by it.
        self.phase = ""
        #: Identifier shared by all spans of one statement execution.
        self.statement = ""

    @contextlib.contextmanager
    def span(self, name: str, **args):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.statement, self.phase, args)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def wrapping(self, targets: Iterable[tuple]):
        """Record a span around every call of the given ``repro`` functions.

        ``targets`` holds ``(function, span name, on_return)`` triples;
        ``on_return(span, result)`` may copy counters the call returned into
        ``span.args``.  Bindings are restored on exit.
        """
        wrappers = {
            id(function): (function, self._wrapper(function, name, on_return))
            for function, name, on_return in targets
        }
        patched = []
        try:
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield
        finally:
            for module, attr, function in patched:
                setattr(module, attr, function)

    def _wrapper(self, function: Callable, name: str, on_return: Optional[Callable]):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if on_return is not None:
                    on_return(span, result)
                return result

        return traced


def maybe_span(tracer: Optional[Tracer], name: str, **args):
    """``tracer.span`` when tracing, a no-op context otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **args)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the time its children cover.

    Spans come from one thread and nest strictly, so sibling spans never
    overlap and the children's durations simply add up.
    """
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


class TraceView:
    """Per-phase sums over a finished span list — what the metrics read."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self._self = self_times(spans)

    def time_by_phase(self, name: str, where: Optional[Callable] = None) -> Dict[str, float]:
        """``{phase: summed self time of spans called name}``."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name and (where is None or where(span)):
                totals[span.phase] += self._self[span.id]
        return dict(totals)

    def count_by_phase(self, name: str, key: str, where: Optional[Callable] = None) -> Dict[str, float]:
        """``{phase: summed span.args[key] of spans called name}``."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name and key in span.args and (where is None or where(span)):
                totals[span.phase] += span.args[key]
        return dict(totals)


def write_chrome_trace(spans: List[Span], path: str) -> None:
    """Flush spans as Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
    if not spans:
        return
    origin = min(span.start for span in spans)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "id": span.id,
                "parent": span.parent,
                "statement": span.statement,
                "phase": span.phase,
                **span.args,
            },
        }
        for span in spans
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
