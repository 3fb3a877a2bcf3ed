"""Diff freshly measured bench rows against a committed baseline.

CI copies the repository's BENCH report (``BENCH_executors.json``,
``BENCH_engine.json``) aside *before* the smoke benchmarks run (they
merge sections into the committed path in place), reruns the smoke
bodies, and then calls this script to print how the metrics moved
against what the repository claims:

    python benchmarks/check_bench_baseline.py \
        --baseline baseline.json \
        --fresh benchmarks/reports/BENCH_executors.json \
        --section few_big_groups_smoke

Rows are matched by the ``--key`` label: ``mode`` by default
(``group leases`` / ``cost-aware units``), or e.g.
``backend`` for the engine report's ``backends_smoke`` section.
Wall-clock metrics (``seconds``, ``idle_seconds``, ``evals_per_sec``,
``speedup``) vary with machine load, so the script is a trajectory
printer, not a gate: it always exits 0 unless the files are unreadable
or the section/rows are missing entirely — *structural* drift (a row
disappearing from the committed report) is the one thing it fails on.
Counter metrics (``round_trips``, ``lease_requests``, ``piggybacked``,
``steals``) are deterministic enough that a reviewer can read a
regression straight off the deltas.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Metrics worth diffing, in print order: (key, format, is_timing).
#: Rows missing a key simply skip it, so executor and engine reports
#: share one table.
METRICS = (
    ("seconds", "{:.2f}", True),
    ("busy_seconds", "{:.2f}", True),
    ("idle_seconds", "{:.2f}", True),
    ("evals_per_sec", "{:.0f}", True),
    ("speedup", "{:.2f}", True),
    ("round_trips", "{:d}", False),
    ("lease_requests", "{:d}", False),
    ("piggybacked", "{:d}", False),
    ("steals", "{:d}", False),
)


def load_rows(path: str, section: str, key: str = "mode") -> dict[str, dict]:
    """``row[key] -> row`` for one section of a BENCH report file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from exc
    payload = doc.get("sections", {}).get(section)
    if not isinstance(payload, dict) or not payload.get("rows"):
        raise SystemExit(
            f"{path} has no rows under section {section!r} "
            f"(sections: {sorted(doc.get('sections', {}))})"
        )
    rows = {row[key]: row for row in payload["rows"] if key in row}
    if not rows:
        raise SystemExit(
            f"{path} section {section!r} has no rows labelled by "
            f"{key!r} (row keys: {sorted(payload['rows'][0])})"
        )
    return rows


def diff_rows(baseline: dict[str, dict], fresh: dict[str, dict]) -> list[str]:
    lines: list[str] = []
    missing = sorted(set(baseline) - set(fresh))
    added = sorted(set(fresh) - set(baseline))
    if missing:
        lines.append(f"modes missing from fresh run: {missing}")
    if added:
        lines.append(f"modes not in baseline: {added}")
    for mode in (m for m in baseline if m in fresh):
        lines.append(f"{mode}:")
        for key, fmt, timing in METRICS:
            if key not in baseline[mode] and key not in fresh[mode]:
                continue
            old = baseline[mode].get(key)
            new = fresh[mode].get(key)
            if old is None or new is None:
                lines.append(
                    f"  {key:<16} baseline={old!r} fresh={new!r} "
                    "(metric added/removed)"
                )
                continue
            if fmt == "{:d}":
                old, new = int(old), int(new)
            shown_old, shown_new = fmt.format(old), fmt.format(new)
            delta = new - old
            sign = "+" if delta >= 0 else ""
            note = " (timing: machine-dependent)" if timing else ""
            lines.append(
                f"  {key:<16} {shown_old:>9} -> {shown_new:>9} "
                f"({sign}{fmt.format(delta) if fmt != '{:d}' else delta})"
                f"{note}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline", required=True, help="committed BENCH report copy"
    )
    ap.add_argument(
        "--fresh", required=True, help="freshly regenerated BENCH report"
    )
    ap.add_argument(
        "--section",
        default="few_big_groups_smoke",
        help="section to diff (default: few_big_groups_smoke)",
    )
    ap.add_argument(
        "--key",
        default="mode",
        help="row-identity label within the section (default: mode; "
        "use 'backend' for the engine report)",
    )
    args = ap.parse_args(argv)
    baseline = load_rows(args.baseline, args.section, args.key)
    fresh = load_rows(args.fresh, args.section, args.key)
    print(
        f"bench baseline diff — section {args.section!r} by {args.key!r}"
    )
    for line in diff_rows(baseline, fresh):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
