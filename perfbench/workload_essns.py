"""``essns-pool``: one ESS-NS search on the parallel Master/Worker pool.

ESS-NS (Algorithm 1) at population 256, 8 generations, 3 steps over
24² hilly random fuel mosaics drawn from the workload seed, on the
``process`` backend with 2 workers and no cache. Search cost differs
from terrain to terrain, so one cycle of a run is a search on each of
:data:`TERRAINS` mosaics, and a run measures whole cycles only. The raster kernels
(``run_table``/``run_raster`` under the ``KernelCostModel`` chooser)
run in the pool workers; novelty scoring, archive and bestSet updates
stay serial on the master. The pool outlives the passes of one run, as
a long-running master's would.
"""

from __future__ import annotations

import time

from harness import BenchError, Context, median, percentile, probe_setup
from records import (
    check_cells,
    cycle_wall,
    mean_quality,
    mismatches,
    result_view,
    timed_cycles,
)
from spans import SpanRecorder
from workload_e1 import layer_metrics

FULL = {"size": 24, "steps": 3, "population": 256, "generations": 8}
TINY = {"size": 16, "steps": 2, "population": 16, "generations": 2}
WORKERS = 2
TERRAINS = 4
STEP_MINUTES = 15.0
#: accepted share of the grid burned by the reference fire's last step
#: — keeps every seed's search of comparable size and far from
#: saturation (which ``make_reference_fire`` refuses)
BURNED_RANGE = (0.10, 0.50)


def build_fires(seed: int, tiny: bool) -> list:
    """The seed's :data:`TERRAINS` reference fires."""
    return [build_fire((seed, k), tiny) for k in range(TERRAINS)]


def build_fire(stream: tuple[int, int], tiny: bool):
    """The stream's reference fire: the first mosaic drawn from it
    whose fire grows every step and ends inside :data:`BURNED_RANGE`."""
    import numpy as np

    from repro.core.scenario import Scenario
    from repro.errors import WorkloadError
    from repro.workloads.mosaic import random_fuel_mosaic
    from repro.workloads.synthetic import make_reference_fire

    shape = TINY if tiny else FULL
    size = shape["size"]
    scenario = Scenario(
        model=1, wind_speed=8.0, wind_dir=90.0, m1=6.0, m10=8.0,
        m100=10.0, mherb=60.0, slope=5.0, aspect=270.0,
    )
    for attempt in range(256):
        terrain = random_fuel_mosaic(
            size, size, hilly=True, rng=np.random.default_rng([*stream, attempt])
        )
        try:
            fire = make_reference_fire(
                terrain,
                scenario,
                ignition=[(size // 2, size // 4)],
                n_steps=shape["steps"],
                step_minutes=STEP_MINUTES,
                description=f"mosaic {size}x{size} stream {stream}/{attempt}",
            )
        except WorkloadError:
            continue
        if BURNED_RANGE[0] <= fire.burned_masks[-1].mean() <= BURNED_RANGE[1]:
            return fire
    raise BenchError(f"no usable mosaic in stream {stream}")


def _system(backend: str, n_workers: int, tiny: bool):
    from repro.systems.factory import build_system

    shape = TINY if tiny else FULL
    return build_system(
        "ess-ns",
        population=shape["population"],
        generations=shape["generations"],
        n_workers=n_workers,
        backend=backend,
    )


def _session(system, fire):
    """An engine session for ``system`` with its worker pool (if any)
    already started."""
    from repro.engine import EngineSession
    from repro.systems.problem import PredictionStepProblem

    session = EngineSession(backend=system.backend, n_workers=system.n_workers)
    problem = PredictionStepProblem(
        terrain=fire.terrain,
        start_burned=fire.start_mask(1),
        real_burned=fire.real_mask(1),
        horizon=fire.step_horizon(1),
        space=system.space,
        backend=system.backend,
        session=session,
    )
    problem.engine.close()  # forks the pool; releases only the step view
    return session


def setup_probe(seed: int, tiny: bool) -> None:
    fires = build_fires(seed, tiny)
    _session(_system("process", WORKERS, tiny), fires[0]).close()


def _one_pass(system, fire, seed: int, session, terrain: int = 0) -> dict:
    start = time.perf_counter()
    run = system.run(fire, rng=seed, session=session)
    wall = time.perf_counter() - start
    record = {
        "system": "ess-ns",
        "case": f"mosaic-{terrain}",
        "seed": seed,
        "backend": session.backend,
        "quality": run.mean_quality(),
        "evaluations": run.total_evaluations(),
        "run": run.to_dict(),
    }
    return {
        "wall": wall,
        "records": [record],
        "failed": check_cells(
            [record], [("ess-ns", f"mosaic-{terrain}", seed, session.backend)]
        ),
    }


def run(ctx: Context) -> tuple[dict, dict, int, int]:
    t0 = time.perf_counter()
    setup = probe_setup(ctx, repeats=5)
    fires = build_fires(ctx.seed, ctx.tiny)
    fire = fires[0]  # the traced run's terrain
    system = _system("process", WORKERS, ctx.tiny)
    session = _session(system, fire)
    in_process_setup = time.perf_counter() - t0 - sum(setup)
    try:
        if not ctx.trace:
            cycles = timed_cycles(
                ctx.seconds,
                lambda i: _one_pass(
                    system, fires[i % TERRAINS], ctx.seed, session, i % TERRAINS
                ),
                TERRAINS,
            )
        else:
            untraced = _one_pass(system, fire, ctx.seed, session)
            recorder = SpanRecorder(run_id=f"{ctx.workload}-{ctx.seed}")
            with recorder.patched():
                traced = _one_pass(system, fire, ctx.seed, session)
    finally:
        session.close()

    if not ctx.trace:
        passes = [p for cycle in cycles for p in cycle]
        attempted = len(passes)
        failed = sum(p["failed"] for p in passes)
        cycle_walls = [cycle_wall(c) for c in cycles]
        search_walls = [p["wall"] for p in passes]
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(cycle_walls),
            "cells_per_s": TERRAINS / median(cycle_walls),
            "plan_latency_s.p50": median(search_walls),
            "plan_latency_s.p90": percentile(search_walls, 0.9),
            # one cell per search: its only record is also its first
            "first_record_s.p50": median(search_walls),
            "quality": mean_quality([r for p in cycles[0] for r in p["records"]]),
        }
        report = {
            "samples": {
                "cycles": len(cycles),
                "searches": len(passes),
                "setup": len(setup),
            },
            "cycle_walls_s": cycle_walls,
            "search_walls_s": search_walls,
            "setup_samples_s": setup,
            "in_process_setup_s": in_process_setup,
            "burned_fraction": [float(f.burned_masks[-1].mean()) for f in fires],
        }
        return metrics, report, attempted, failed

    # the serial Master: same search on the vectorized backend, 1 worker
    serial_system = _system("vectorized", 1, ctx.tiny)
    with _session(serial_system, fire) as serial_session:
        serial = _one_pass(serial_system, fire, ctx.seed, serial_session)
    attempted = 4  # untraced, traced, serial cells + the pool/serial equality
    failed = untraced["failed"] + traced["failed"] + serial["failed"]
    failed += mismatches(traced["records"], untraced["records"])
    if result_view(serial["records"][0]) != result_view(untraced["records"][0]):
        failed += 1
    metrics = layer_metrics(recorder, traced, untraced["wall"])
    engine_total = recorder.total_s("engine.fitness") + recorder.total_s("engine.maps")
    metrics["parallel.speedup"] = serial["wall"] / untraced["wall"]
    metrics["parallel.master_s"] = max(traced["wall"] - engine_total, 0.0)
    report = recorder.summary(traced["wall"])
    report.update({
        "walls_s": {
            "untraced_pool": untraced["wall"],
            "traced_pool": traced["wall"],
            "serial_vectorized": serial["wall"],
        },
        "speedup_base": {"serial_s": serial["wall"], "pool_s": untraced["wall"]},
        "burned_fraction": float(fire.burned_masks[-1].mean()),
    })
    return metrics, report, attempted, failed
