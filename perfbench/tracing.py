"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files: around each call
it makes into a layer of the simulator, and inside the two objects it
hands to the streaming engine (a timing arrival process and a timing
telemetry sink).  Each span keeps its name, start, end and parent; a
layer's self time is its spans' durations minus the time their child
spans cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List

from repro.obs.telemetry import Telemetry
from repro.workloads.arrivals import ArrivalProcess


class Tracer:
    """Nested spans plus named counts, all kept in memory."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Summed wall time of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> Dict[str, float]:
        """Per-name span time not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)

    def to_records(self) -> List[dict]:
        """Spans as plain dicts, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


class TimedProcess(ArrivalProcess):
    """Arrival process that times each chunk its inner process draws."""

    def __init__(self, inner: ArrivalProcess, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.kind = inner.kind
        self.names = inner.names
        self.seed = inner.seed
        self.chunk = inner.chunk

    def next_chunk(self):
        with self.tracer.span("workloads.arrivals.gen"):
            chunk = self.inner.next_chunk()
        self.tracer.count("workloads.arrivals.chunks")
        return chunk

    def params(self):
        return self.inner.params()

    def state_dict(self):
        return self.inner.state_dict()

    def load_state(self, state):
        self.inner.load_state(state)


class TimedTelemetry(Telemetry):
    """Telemetry sink that times each sample the engine hands it."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def sample(self, *, final: bool = False, **fields) -> None:
        with self.tracer.span("obs.telemetry.sample"):
            super().sample(final=final, **fields)
