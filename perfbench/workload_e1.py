"""``e1-paper``: the paper's E1 comparison as one inline plan.

All five systems × {heterogeneous, dynamic_wind} at 48², 3 steps,
population 32, 8 generations on the ``vectorized`` backend, run through
:class:`ExperimentRunner` with one shared engine session per case (the
session cache on) and a fresh temporary :class:`ResultsStore` per pass.
The engine's heap kernels dominate; the session cache serves
cross-system repeats. Search cost differs from seed to seed, so one
cycle of a run is :data:`PLAN_SEEDS` plans drawn from the workload
seed, one per pass, and a run measures whole cycles only.
"""

from __future__ import annotations

import time

from harness import Context, median, percentile, probe_setup
from records import (
    check_cells,
    cycle_wall,
    engine_counts,
    mean_quality,
    mismatches,
    timed_cycles,
)
from spans import SpanRecorder

FULL = {"size": 48, "steps": 3, "population": 32, "generations": 8}
TINY = {"size": 16, "steps": 2, "population": 8, "generations": 2}
SESSION_CACHE = 4096
PLAN_SEEDS = 2


def build_plans(seed: int, tiny: bool) -> list:
    import numpy as np

    return [
        build_plan(int(np.random.default_rng([seed, k]).integers(2**31)), tiny)
        for k in range(PLAN_SEEDS)
    ]


def build_plan(seed: int, tiny: bool):
    from repro.experiments.plan import BudgetSpec, CaseSpec, ExperimentPlan
    from repro.systems.factory import SYSTEM_NAMES

    shape = TINY if tiny else FULL
    return ExperimentPlan(
        name=f"e1-paper-{seed}",
        systems=SYSTEM_NAMES,
        cases=tuple(
            CaseSpec(name, size=shape["size"], steps=shape["steps"])
            for name in ("heterogeneous", "dynamic_wind")
        ),
        seeds=(seed,),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=shape["population"],
            generations=shape["generations"],
            session_cache_size=SESSION_CACHE,
        ),
    )


def setup_probe(seed: int, tiny: bool) -> None:
    for plan in build_plans(seed, tiny):
        for case in plan.cases:
            case.build()


def _timed_store(path):
    """A results store that notes when each record lands."""
    from repro.experiments.store import ResultsStore

    class TimedStore(ResultsStore):
        def __init__(self, path) -> None:
            super().__init__(path)
            self.appended_at: list[float] = []

        def append(self, record: dict) -> None:
            super().append(record)
            self.appended_at.append(time.perf_counter())

    return TimedStore(path)


def _one_pass(ctx: Context, plan) -> dict:
    from repro.experiments.runner import ExperimentRunner

    store = _timed_store(ctx.scratch.mkdtemp("e1-") / "results.jsonl")
    runner = ExperimentRunner(store=store)
    start = time.perf_counter()
    records = runner.run(plan).records
    wall = time.perf_counter() - start
    landed = [start, *store.appended_at]
    failed = check_cells(records, [k.as_tuple() for k in plan.runs()])
    # what the store persisted is what the runner returned
    failed += mismatches(store.records(), records)
    return {
        "wall": wall,
        # the wait for each record: since submit for the first, since
        # the previous record for the others
        "record_waits": [b - a for a, b in zip(landed, landed[1:])],
        "records": records,
        "failed": failed,
    }


def run(ctx: Context) -> tuple[dict, dict, int, int]:
    setup = probe_setup(ctx, repeats=5)
    plans = build_plans(ctx.seed, ctx.tiny)
    plan = plans[0]  # the traced run's plan
    n_cells = plan.n_runs

    if not ctx.trace:
        cycles = timed_cycles(
            ctx.seconds, lambda i: _one_pass(ctx, plans[i % PLAN_SEEDS]), PLAN_SEEDS
        )
        passes = [p for cycle in cycles for p in cycle]
        attempted = n_cells * len(passes)
        failed = sum(p["failed"] for p in passes)
        cycle_walls = [cycle_wall(c) for c in cycles]
        plan_walls = [p["wall"] for p in passes]
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(cycle_walls),
            "cells_per_s": n_cells * PLAN_SEEDS / median(cycle_walls),
            "plan_latency_s.p50": median(plan_walls),
            "plan_latency_s.p90": percentile(plan_walls, 0.9),
            # a run has only one first record per plan; every cell's wait
            # for its record is what a plan resumed at that cell waits for
            # its first, and the cells of a cycle make a steady median
            "first_record_s.p50": median(
                w for p in passes for w in p["record_waits"]
            ),
            "quality": mean_quality([r for p in cycles[0] for r in p["records"]]),
        }
        report = {
            "samples": {
                "cycles": len(cycles),
                "plans": len(passes),
                "record_waits": sum(len(p["record_waits"]) for p in passes),
                "setup": len(setup),
            },
            "cycle_walls_s": cycle_walls,
            "plan_walls_s": plan_walls,
            "first_records_s": [p["record_waits"][0] for p in passes],
            "setup_samples_s": setup,
            "cells_per_plan": n_cells,
        }
        return metrics, report, attempted, failed

    untraced = _one_pass(ctx, plan)
    recorder = SpanRecorder(run_id=f"{ctx.workload}-{ctx.seed}")
    with recorder.patched():
        traced = _one_pass(ctx, plan)
    attempted = 2 * n_cells
    failed = untraced["failed"] + traced["failed"]
    failed += mismatches(traced["records"], untraced["records"])
    metrics = layer_metrics(recorder, traced, untraced["wall"])
    report = recorder.summary(traced["wall"])
    report["walls_s"] = {"untraced": untraced["wall"], "traced": traced["wall"]}
    return metrics, report, attempted, failed


def layer_metrics(recorder: SpanRecorder, traced: dict, untraced_wall: float) -> dict:
    """Per-layer split of one traced pass (engine workloads)."""
    totals = recorder.totals()

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return totals.get(name, {}).get("total_s", 0.0)

    counts = engine_counts(traced["records"])
    engine_s = self_s("engine.fitness") + self_s("engine.maps")
    return {
        "engine.fitness_s": self_s("engine.fitness"),
        "engine.maps_s": self_s("engine.maps"),
        "engine.simulations": counts["simulations"],
        "engine.sims_per_s": counts["simulations"] / engine_s if engine_s else 0.0,
        "engine.cache_hit_ratio": (
            counts["cache_hits"] / counts["cache_lookups"]
            if counts["cache_lookups"]
            else 0.0
        ),
        "engine.cache_lookups": counts["cache_lookups"],
        "core.novelty_s": self_s("core.novelty"),
        "core.archive_s": self_s("core.archive"),
        "core.bestset_s": self_s("core.bestset"),
        "ea.offspring_s": self_s("ea.offspring"),
        "stages.statistical_s": self_s("stages.statistical"),
        "stages.calibration_s": self_s("stages.calibration"),
        "stages.prediction_s": self_s("stages.prediction"),
        "experiments.store_append_s": self_s("experiments.store_append"),
        "experiments.runner_overhead_s": max(
            total_s("experiments.runner") - total_s("systems.run"), 0.0
        ),
        "obs.trace_overhead_frac": (traced["wall"] - untraced_wall) / untraced_wall,
    }
