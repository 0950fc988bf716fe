"""
In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: :class:`Patches`
replaces a module attribute of ``relaydmt`` (a public function, or the
process-pool class) with a wrapper that opens a span around the call,
and puts the original back when the traced pass ends.  The library
calls these functions through module globals, so the wrappers also see
the calls its runners make internally.  No file of the package changes.

Work done in worker processes is not seen: only spans of the process
that installed the patches are kept.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

TAIL_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  On the sorted samples that is the
    value with exactly ten larger-ranked samples after it, at percentile
    ``100 * (n - 10) / n``.  Below 20 samples that percentile would fall
    under the median, so the median is given at percentile 50; with no
    samples the result is ``(0.0, 0.0)``.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    if n < 2 * TAIL_BEYOND:
        return float(statistics.median(samples)), 50.0
    ordered = sorted(samples)
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class _Open:
    name: str
    start: int
    child_ns: int = 0


@dataclass
class Tracer:
    """Nested spans, kept as per-name lists of total and self durations (ns).

    A span's self time is its duration minus the durations of its
    direct children.  Spans nest strictly (one thread), so the children
    cover disjoint parts of the parent's interval.
    """

    total_ns: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> _Open:
        frame = _Open(name, time.perf_counter_ns())
        self._stack.append(frame)
        return frame

    def close(self, frame: _Open) -> None:
        """End the innermost open span, ``frame``, and charge it to its parent."""
        duration = time.perf_counter_ns() - frame.start
        self._stack.pop()
        self.total_ns.setdefault(frame.name, []).append(duration)
        self.self_ns.setdefault(frame.name, []).append(duration - frame.child_ns)
        if self._stack:
            self._stack[-1].child_ns += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def samples(self, name: str, self_time: bool = False) -> list:
        return list((self.self_ns if self_time else self.total_ns).get(name, []))


class Patches:
    """Span-recording wrappers over module attributes, installed for each traced pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._plan = []  # (module, attribute, replacement)
        self._saved = []

    def wrap(self, module, attr: str, span_name: str, on_call=None) -> None:
        """Trace calls of ``module.attr`` as ``span_name``.

        ``on_call(tracer, args, kwargs)`` runs before each call, for
        counters that depend on the arguments.  An absent attribute
        raises ``AttributeError``, so a renamed function stops the
        traced run instead of reading as a span that took no time.
        """
        original = getattr(module, attr)
        tracer = self.tracer

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = tracer.open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        self._plan.append((module, attr, traced))

    def count_instances(self, module, attr: str, counter: str) -> None:
        """Count constructions of the class ``module.attr`` under ``counter``; absent raises."""
        original = getattr(module, attr)
        tracer = self.tracer

        class Counted(original):
            def __init__(self, *args, **kwargs):
                tracer.count(counter)
                super().__init__(*args, **kwargs)

        self._plan.append((module, attr, Counted))

    @contextlib.contextmanager
    def installed(self):
        self._saved = [(m, a, getattr(m, a)) for m, a, _ in self._plan]
        try:
            for module, attr, replacement in self._plan:
                setattr(module, attr, replacement)
            yield self.tracer
        finally:
            for module, attr, original in self._saved:
                setattr(module, attr, original)
            self._saved = []
