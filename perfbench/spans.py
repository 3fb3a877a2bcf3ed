"""In-memory spans around calls into the program's layers.

The traced run patches public functions and methods of the program —
in the namespace each caller looks them up in — with wrappers that
record one span per call: name, start, end, parent span and run id.
Nothing inside ``src/`` changes; the patches are removed when the
traced pass ends, and the spans stay in memory until the run reports.

A span's *self time* is its duration minus the time covered by its
direct child spans, so nested layers are never double-counted and the
self times of one run sum to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, attribute path) of every traced layer boundary.
#: Functions imported by name are patched in the importing module's
#: namespace; methods are patched on their class.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("engine.fitness", "repro.engine.core", "SimulationEngine.evaluate_batch"),
    ("engine.maps", "repro.engine.core", "SimulationEngine.burned_maps"),
    ("core.novelty", "repro.ea.nsga", "novelty_scores"),
    ("core.archive", "repro.core.archive", "NoveltyArchive.update"),
    ("core.archive", "repro.core.archive", "ThresholdArchive.update"),
    ("core.bestset", "repro.core.archive", "BestSet.update"),
    ("ea.offspring", "repro.ea.nsga", "generate_offspring"),
    ("ea.offspring", "repro.ea.ga", "generate_offspring"),
    ("stages.statistical", "repro.systems.base", "aggregate_scenarios"),
    ("stages.calibration", "repro.systems.base", "search_kign"),
    ("stages.prediction", "repro.systems.base", "predict"),
    ("systems.run", "repro.systems.base", "PredictionSystem.run"),
    ("experiments.store_append", "repro.experiments.store", "ResultsStore.append"),
    ("experiments.runner", "repro.experiments.runner", "ExperimentRunner.run"),
)


class SpanRecorder:
    """Collects spans of one run; thread-safe, one parent stack per
    thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "parent": parent,
                        "start": start,
                        "end": end,
                        "run": self.run_id,
                        "thread": threading.get_ident(),
                    }
                )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, layers=LAYERS):
        """Install a span wrapper on every layer boundary; restore the
        originals on exit."""
        undo = []
        try:
            for name, module, attr in layers:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self.wrap(name, original))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # ------------------------------------------------------------------
    def _with_self_time(self):
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            yield s, s["end"] - s["start"] - child_time[s["id"]]

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        out: dict[str, dict] = {}
        for s, self_time in self._with_self_time():
            row = out.setdefault(
                s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_time
        return out

    def total_s(self, name: str) -> float:
        return self.totals().get(name, {}).get("total_s", 0.0)

    def summary(self, traced_wall: float) -> dict:
        """The traced run's report block. ``max_thread_self_s`` is the
        largest per-thread sum of self times: one thread's spans only
        overlap by nesting, so it can never exceed the traced wall."""
        per_thread: dict[int, float] = defaultdict(float)
        for s, self_time in self._with_self_time():
            per_thread[s["thread"]] += self_time
        return {
            "spans": self.totals(),
            "span_count": len(self.spans),
            "traced_wall_s": traced_wall,
            "max_thread_self_s": max(per_thread.values(), default=0.0),
        }
