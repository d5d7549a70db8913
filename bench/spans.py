"""In-memory span recorder for the traced benchmark run.

Spans are recorded only around calls the benchmark makes into the library
(and, for the CLI replay, around the CLI's calls into the layers), so a
span's self time is time spent in that layer below the benchmark.
"""

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# Solvers whose span name carries the grid size, because N = 512 and
# N = 2048 stress different things (Python overhead vs dense LU).
_SIZED = ("delaunay.solve_delaunay", "delaunay.continue_branch")
# Calls whose return values the per-layer metrics read.
_KEPT = ("euclidean.commutator_check",)


class Tracer:
    """Records [name, start, end, parent index, run id] for every span."""

    def __init__(self):
        self.spans = []
        self.kept = defaultdict(list)
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, fn):
        """fn recording a span named <layer>.<function>[.n<size>]."""
        base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn) if base in _SIZED else None

        def traced(*args, **kwargs):
            name = base
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{base}.n{bound.arguments['size']}"
            with self.span(name):
                result = fn(*args, **kwargs)
            if base in _KEPT:
                self.kept[base].append(result)
            return result

        return traced

    def self_times(self):
        """Per span name: summed self time (span minus children) and count."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, children):
            busy[name] += end - start - inner
            calls[name] += 1
        return busy, calls

    def as_json(self):
        return [
            {"name": n, "start": a, "end": b, "parent": p, "run_id": r}
            for n, a, b, p, r in self.spans
        ]
