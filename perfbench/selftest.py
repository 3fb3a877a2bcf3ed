"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at tiny input sizes, untraced
and traced, and checks that each run

* reports correct outputs;
* emits every metric the spec names for its mode, with the spec's unit
  and a finite value;
* (traced) has per-thread span self times summing to no more than the
  traced wall time.

Exits non-zero and names every problem found.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            try:
                report, result = _run(workload, trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"{where}: {exc}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs incorrect: {result}")
            metrics = result["metrics"]
            for entry in spec[section]:
                got = metrics.get(entry["name"])
                if got is None:
                    problems.append(f"{where}: {entry['name']} missing")
                elif got["unit"] != entry["unit"]:
                    problems.append(f"{where}: {entry['name']} unit {got['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{where}: {entry['name']} = {got['value']}")
            extra = set(metrics) - {e["name"] for e in spec[section]}
            if extra:
                problems.append(f"{where}: metrics not in the spec: {sorted(extra)}")
            if trace and report["max_thread_self_s"] > report["traced_wall_s"]:
                problems.append(
                    f"{where}: span self times {report['max_thread_self_s']:.4f}s "
                    f"exceed the traced wall {report['traced_wall_s']:.4f}s"
                )
            print(f"ok  {where}" if not problems else f"..  {where}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
