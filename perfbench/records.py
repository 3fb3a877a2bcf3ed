"""Output checks and record-derived counters shared by the workloads."""

from __future__ import annotations

import json
import math
import time

from harness import median


def canonical(records) -> list[str]:
    """Records in the program's parity view, as sorted JSON lines."""
    from repro.experiments.store import parity_view

    return sorted(json.dumps(parity_view(r), sort_keys=True) for r in records)


def result_view(record: dict) -> dict:
    """Parity view minus where the cell ran (backend, worker count,
    configuration digest): what must be bitwise-equal between the pool
    and the serial run of one search."""
    from repro.experiments.store import parity_view

    view = parity_view(record)
    for key in ("backend", "config"):
        view.pop(key, None)
    for step in view["run"]["steps"]:
        engine = step.get("engine")
        if isinstance(engine, dict):
            engine.pop("backend", None)
            engine.pop("n_workers", None)
    return view


def check_cells(records, expected_keys) -> int:
    """Failed cells: missing, duplicated, unexpected or without a
    finite quality. Returns the count (0 when all are good)."""
    from repro.experiments.store import record_key

    seen: dict[tuple, int] = {}
    for r in records:
        key = record_key(r)
        seen[key] = seen.get(key, 0) + 1
    expected = set(expected_keys)
    failed = len(expected - set(seen))
    failed += sum(n - 1 for n in seen.values())
    failed += len(set(seen) - expected)
    for r in records:
        q = r.get("quality")
        if q is None or not math.isfinite(float(q)) or not 0.0 <= q <= 1.0:
            failed += 1
    return failed


def mismatches(records_a, records_b) -> int:
    """Cells whose parity views differ between two executions."""
    a, b = canonical(records_a), canonical(records_b)
    if len(a) != len(b):
        return max(len(a), len(b))
    return sum(1 for x, y in zip(a, b) if x != y)


def mean_quality(records) -> float:
    return sum(float(r["quality"]) for r in records) / len(records)


def engine_counts(records) -> dict:
    """Deterministic engine work from the records' ``engine`` blocks
    plus the cache counters behind the hit ratio."""
    sims = hits = misses = 0
    for r in records:
        run = r["run"]
        for step in run["steps"]:
            engine = step.get("engine") or {}
            sims += int(engine.get("simulations", 0))
            sims += int(engine.get("map_simulations", 0))
            cache = engine.get("cache") or {}
            hits += int(cache.get("hits", 0))
            misses += int(cache.get("misses", 0))
    return {"simulations": sims, "cache_hits": hits, "cache_lookups": hits + misses}


def timed_cycles(seconds: float, run_pass, inputs: int) -> list[list]:
    """Run whole cycles of ``inputs`` passes until the run has used its
    time. ``run_pass(i)`` gets the pass's index in the run (input
    ``i % inputs``) and returns a dict with ``wall``.

    A run stops only between cycles, so every input is measured equally
    often whatever the machine's speed; another cycle starts only while
    at least half a median cycle is left.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        first = len(cycles) * inputs
        cycles.append([run_pass(first + k) for k in range(inputs)])
        left = seconds - (time.perf_counter() - start)
        if left < 0.5 * median(cycle_wall(c) for c in cycles):
            return cycles


def cycle_wall(cycle) -> float:
    return sum(p["wall"] for p in cycle)
