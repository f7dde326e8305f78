"""Outside-in tracing: spans around calls into the package's public functions,
and a Tape subclass that counts and times every primitive it records.

Spans live in memory and are written out once, when the run ends.  Nothing
here changes what the package computes: the traced training replay is
checked to give bit-identical losses to ``train.fit``.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from imageqa.autodiff import Tape

# every Tape primitive the models can record; names missing from Tape are
# skipped, so the tracer keeps working when primitives are removed
PRIMITIVES = (
    "matmul", "vecmat", "embedding_lookup", "take_row", "stack_rows", "pick_rows",
    "add", "sub", "mul", "concat", "bias_add", "scale", "sum", "sigmoid", "tanh",
    "softmax", "safe_log", "masked_temporal_average", "dropout",
)


class Tracer:
    """Spans as (id, parent id, name, start, end), parents by nesting."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1], name, perf_counter(), 0.0))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, parent, _, start, _ = self.spans[sid]
            self.spans[sid] = (sid, parent, name, start, perf_counter())

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]


class NullTracer:
    """Used for the end-to-end run: spans cost one no-op context manager."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield


class OpStats:
    """Per-primitive node counts and forward/backward seconds, summed over
    every TracingTape that shares this object."""

    def __init__(self):
        self.count: dict[str, int] = defaultdict(int)
        self.fwd: dict[str, float] = defaultdict(float)
        self.bwd: dict[str, float] = defaultdict(float)
        self.bwd_total = 0.0
        self.rows_looked_up = 0
        self.rows_allocated = 0


def _timed_rule(stats: OpStats, name: str, rule):
    def timed(g):
        start = perf_counter()
        pieces = rule(g)
        spent = perf_counter() - start
        stats.bwd[name] += spent
        stats.bwd_total += spent
        if name == "embedding_lookup":
            stats.rows_allocated += pieces[0].shape[0]
        return pieces

    return timed


def _traced(name: str):
    primitive = getattr(Tape, name)

    def method(self, *args, **kwargs):
        first = len(self.nodes)
        start = perf_counter()
        out = primitive(self, *args, **kwargs)
        self.stats.fwd[name] += perf_counter() - start
        for node in self.nodes[first:]:
            node.backward_rule = _timed_rule(self.stats, name, node.backward_rule)
            self.stats.count[name] += 1
            if name == "embedding_lookup":
                self.stats.rows_looked_up += node.output.shape[0]
        return out

    method.__name__ = name
    return method


class TracingTape(Tape):
    """A Tape that times each primitive's forward call and backward rule."""

    def __init__(self, stats: OpStats):
        super().__init__()
        self.stats = stats


for _name in PRIMITIVES:
    if hasattr(Tape, _name):
        setattr(TracingTape, _name, _traced(_name))


class GcMeter:
    """Collector pauses and their count, through ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
