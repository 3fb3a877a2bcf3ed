"""Shared reporting for the benchmark harness.

Each bench regenerates one exhibit of the paper (Table I, Figs. 1–3,
Algorithm 1) or one hypothesis experiment (E1–E5). pytest captures
stdout, so every bench also writes its table to
``benchmarks/reports/<id>.txt`` (directory :data:`_REPORT_DIR`, which
tests point at a temporary directory).
"""

from __future__ import annotations

import json
import os

_REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def report(experiment_id: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/reports/."""
    os.makedirs(_REPORT_DIR, exist_ok=True)
    path = os.path.join(_REPORT_DIR, f"{experiment_id}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    print(f"\n=== {experiment_id} ===\n{text}\n")


def bench_json(bench_id: str, section: str, payload: dict) -> str:
    """Merge one section into ``benchmarks/reports/BENCH_<id>.json``.

    The machine-readable companion of :func:`report`: each bench body
    (smoke or full) contributes its own ``section`` — workload
    parameters plus raw result rows with wall-times/speedups — without
    clobbering sections written by other bodies of the same bench. The
    file is rewritten atomically (temp + rename) so a crash mid-dump
    never leaves a truncated document; an unreadable existing file is
    replaced rather than crashing the bench that only reports on it.
    Returns the file path.
    """
    os.makedirs(_REPORT_DIR, exist_ok=True)
    path = os.path.join(_REPORT_DIR, f"BENCH_{bench_id}.json")
    doc: dict = {"bench": bench_id, "sections": {}}
    try:
        with open(path) as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and isinstance(
            existing.get("sections"), dict
        ):
            doc["sections"] = existing["sections"]
    except (OSError, ValueError):
        pass
    doc["sections"][section] = payload
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def run_once(benchmark, fn):
    """Execute a report body exactly once under the benchmark fixture.

    Report tests time an entire experiment (minutes of pipeline work),
    so they run a single round; using the fixture keeps them alive under
    ``--benchmark-only``, which skips fixture-less tests.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
