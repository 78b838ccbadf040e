"""In-memory spans recorded around calls into leetforge's layers.

A span is [name, start, end, parent, busy]: the layer is the part of the name
before the first dot, parent is the index of the enclosing span (-1 at the
top), and busy is set only for candidate-iterator spans, whose time is the sum
of the calls into the iterator rather than end - start. Untraced runs use
NULL, which adds one plain function call per boundary.
"""

from __future__ import annotations

import json
import resource
from collections import defaultdict
from time import perf_counter

ITER_SPAN = "generator.iter"


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def iterate(self, iterable):
        return iterable


NULL = _NullTracer()


class TimedStream:
    """Proxy for a candidate stream that times every step of its iteration.

    Attribute reads (such as .stats) go to the wrapped stream, so callers see
    the same object they would without tracing.
    """

    def __init__(self, stream, tracer: "Tracer"):
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        return self._tracer.iterate(self._stream)


class Tracer:
    """Records spans; results of the calls named in keep are kept for counting."""

    enabled = True

    def __init__(self, keep=()):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {name: [] for name in keep}
        self.emitted = 0
        self.rss_growth_mib = 0.0
        self.streams: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if name in self.kept:
            self.kept[name].append(result)
        return result

    def iterate(self, iterable):
        """Yield from iterable, charging the time spent producing each item to
        a generator.iter span whose parent is the span that consumes it."""
        span = [ITER_SPAN, 0.0, 0.0, -1, 0.0]
        self.spans.append(span)
        it = iter(iterable)
        clock = perf_counter
        busy = 0.0
        count = 0
        first = True
        while True:
            t0 = clock()
            if first:
                span[1], span[3], first = t0, self._stack[-1] if self._stack else -1, False
                rss0 = _maxrss_mib()
            try:
                item = next(it)
            except StopIteration:
                t1 = clock()
                span[2], span[4] = t1, busy + (t1 - t0)
                self.emitted += count
                self.rss_growth_mib += _maxrss_mib() - rss0
                return
            busy += clock() - t0
            count += 1
            yield item

    def wrap(self, module, attr: str, name: str, stream: bool = False) -> None:
        """Replace module.attr with a version that records a span per call;
        with stream, the returned candidate stream is timed as well."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if stream:
                self.streams.append(result)
                return TimedStream(result, self)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, busy in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "busy": busy}) + "\n")


def duration(span) -> float:
    return span[4] if span[4] is not None else span[2] - span[1]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= duration(s)
    return own


def summarize(spans) -> dict:
    """Per-name call counts and total durations, and self time per layer."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        total[span[0]] += duration(span)
        layer_self[span[0].split(".", 1)[0]] += own
    return {"calls": dict(calls), "total": dict(total), "layer_self": dict(layer_self)}


def missing_spans(names, spans) -> list[str]:
    """The names in names that no span in spans carries."""
    seen = {s[0] for s in spans}
    return [name for name in names if name not in seen]
