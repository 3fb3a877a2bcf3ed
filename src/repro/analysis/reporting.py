"""Plain-text / markdown tables for the CLI, examples and benchmark reports."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.analysis.metrics import QualityComparison
from repro.systems.results import RunResult

__all__ = [
    "format_table",
    "format_run",
    "format_comparison",
    "format_engine_totals",
    "format_session_totals",
    "format_experiment",
    "format_sweep",
]


def _cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        if np.isnan(value):
            return "—"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    markdown: bool = False,
) -> str:
    """Render an aligned text table (optionally GitHub-markdown)."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = " | " if markdown else "  "
    edge = "| " if markdown else ""
    lines = [edge + sep.join(h.ljust(w) for h, w in zip(headers, widths)) + (" |" if markdown else "")]
    if markdown:
        lines.append("| " + " | ".join("-" * w for w in widths) + " |")
    else:
        lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            edge + sep.join(v.ljust(w) for v, w in zip(row, widths)) + (" |" if markdown else "")
        )
    return "\n".join(lines)


def format_engine_totals(run: RunResult) -> str:
    """One-line engine summary: backend, simulations saved, cache rate.

    Empty string when the run carries no engine accounting (results
    recorded before the engine subsystem landed).
    """
    totals = run.engine_totals()
    if not totals:
        return ""
    cache = totals["cache"]
    lookups = cache["hits"] + cache["misses"]
    line = (
        f"engine: backend={totals['backend']} workers={totals['n_workers']} "
        f"evaluations={totals['evaluations']} simulations={totals['simulations']}"
    )
    if totals.get("map_simulations"):
        line += f" map-sims={totals['map_simulations']}"
    if lookups:
        rate = cache["hits"] / lookups
        line += (
            f" cache-hits={cache['hits']}/{lookups} ({rate:.1%})"
            f" evictions={cache['evictions']}"
        )
    return line


def format_session_totals(run: RunResult) -> str:
    """One-line run-scoped session summary: pool reuse, cross-step cache.

    Empty string when the run carries no session accounting (results
    recorded before the engine-session subsystem landed).
    """
    session = run.session
    if not session:
        return ""
    line = (
        f"session: steps={session.get('steps', 0)} "
        f"pool-reuses={session.get('pool_reuses', 0)}"
    )
    cache = session.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    if lookups:
        rate = cache.get("hits", 0) / lookups
        line += (
            f" contexts={session.get('contexts', 0)}"
            f" cache-hits={cache.get('hits', 0)}/{lookups} ({rate:.1%})"
            f" cross-step-hits={session.get('cross_step_hits', 0)}"
            f" evictions={cache.get('evictions', 0)}"
        )
        if session.get("cross_system_hits"):
            line += f" cross-system-hits={session['cross_system_hits']}"
    return line


def format_experiment(result, markdown: bool = False) -> str:
    """Experiment-level report: per-system cache-reuse totals.

    ``result`` is an
    :class:`~repro.experiments.runner.ExperimentResult` (duck-typed:
    ``plan_name``, ``records``, ``n_resumed``, ``per_system_totals()``).
    One row per system aggregates that system's scope deltas over the
    shared group sessions: evaluations requested vs. simulations paid,
    session-cache hits and the cross-step / cross-system subsets — the
    reuse the shared-session experiment layer provides.
    """
    totals = result.per_system_totals()
    headers = [
        "system",
        "runs",
        "steps",
        "evals",
        "sims",
        "cache hits",
        "cross-step",
        "cross-system",
        "sec",
    ]
    rows = [
        [
            system,
            t["runs"],
            t["steps"],
            t["evaluations"],
            t["simulations"],
            t["cache_hits"],
            t["cross_step_hits"],
            t["cross_system_hits"],
            round(t["seconds"], 2),
        ]
        for system, t in totals.items()
    ]
    n_records = len(result.records)
    saved = sum(
        t["evaluations"] - t["simulations"] for t in totals.values()
    )
    cross_system = sum(t["cross_system_hits"] for t in totals.values())
    head = (
        f"experiment: plan={result.plan_name} runs={n_records} "
        f"(resumed {result.n_resumed}) simulations-saved={saved} "
        f"cross-system-hits={cross_system}"
    )
    return head + "\n" + format_table(headers, rows, markdown=markdown)


def format_sweep(sweep, markdown: bool = False) -> str:
    """The sweep table (mean ± std per cell) plus per-case winners.

    ``sweep`` is a :class:`~repro.analysis.sweeps.SweepResult`
    (duck-typed: ``table_rows()``, ``cases()``, ``winner()``).
    """
    headers = ["system", "case", "quality", "evals", "sec"]
    out = format_table(headers, sweep.table_rows(), markdown=markdown)

    def winner_of(case: str) -> str:
        from repro.errors import ReproError

        try:
            return sweep.winner(case)
        except ReproError:  # no cell with a valid mean: no winner
            return "—"

    winners = ", ".join(
        f"{case}: {winner_of(case)}" for case in sweep.cases()
    )
    return out + ("\nwinners — " + winners if winners else "")


def format_run(run: RunResult, markdown: bool = False) -> str:
    """Per-step table of one system run (the Fig. 1/3 pipeline log)."""
    headers = ["step", "Kign", "cal. fitness", "quality", "best fitness", "evals", "sec"]
    rows = [
        [
            r["step"],
            r["kign"],
            r["cal_fitness"],
            r["quality"],
            r["best_fitness"],
            r["evaluations"],
            r["seconds"],
        ]
        for r in run.summary_rows()
    ]
    title = f"{run.system}: mean quality {run.mean_quality():.4f}, " \
            f"{run.total_evaluations()} simulations, {run.total_time():.2f}s"
    out = title + "\n" + format_table(headers, rows, markdown=markdown)
    for line in (format_engine_totals(run), format_session_totals(run)):
        if line:
            out += "\n" + line
    return out


def format_comparison(cmp: QualityComparison, markdown: bool = False) -> str:
    """The E1 table: systems × prediction steps + summary columns."""
    headers = ["system"] + [f"step {s}" for s in cmp.steps] + [
        "mean",
        "evals",
        "sec",
    ]
    rows = []
    for i, name in enumerate(cmp.systems):
        rows.append(
            [name]
            + [float(q) for q in cmp.quality[i]]
            + [
                float(cmp.mean_quality[i]),
                int(cmp.evaluations[i]),
                float(cmp.seconds[i]),
            ]
        )
    table = format_table(headers, rows, markdown=markdown)
    return table + f"\nwinner: {cmp.winner()}"
