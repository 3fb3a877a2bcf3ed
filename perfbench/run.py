"""Repository benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the root of a checkout, checks its outputs and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` for ``--trace 0``, the
per-layer split of a separate traced run for ``--trace 1``. The line
before it is the full report (run metadata, sample counts, raw pass
timings and, when traced, per-span totals). See ``README.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

import harness

WORKLOADS = {
    "e1-paper": "workload_e1",
    "essns-pool": "workload_essns",
    "service-2tenant": "workload_service",
}

#: Per-layer metrics a workload does not exercise; reported as 0 and
#: listed under ``not_exercised`` in the report.
ENGINE_LAYERS = (
    "engine.fitness_s",
    "engine.maps_s",
    "engine.simulations",
    "engine.sims_per_s",
    "engine.cache_hit_ratio",
    "engine.cache_lookups",
    "core.novelty_s",
    "core.archive_s",
    "core.bestset_s",
    "ea.offspring_s",
    "stages.statistical_s",
    "stages.calibration_s",
    "stages.prediction_s",
    "experiments.store_append_s",
    "experiments.runner_overhead_s",
)
PARALLEL_LAYERS = ("parallel.speedup", "parallel.master_s")
SERVICE_LAYERS = (
    "service.submit_s.p50",
    "service.queue_wait_s.p50",
    "service.schedule_s.p50",
    "service.makespan_over_lb",
    "service.makespan_s",
    "service.makespan_lb_s",
    "distributed.lease_s.p50",
    "distributed.worker_idle_frac",
    "distributed.units_per_cell",
    "distributed.requeues",
)
NOT_EXERCISED = {
    "e1-paper": PARALLEL_LAYERS + SERVICE_LAYERS,
    "essns-pool": SERVICE_LAYERS,
    "service-2tenant": ENGINE_LAYERS + PARALLEL_LAYERS,
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny input sizes (self-test only; not comparable numbers)",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: import, build inputs and start the engine once, "
        "then exit (timed by the parent as setup_s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    try:
        harness.require_program()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.install_signal_exit()
    module = __import__(WORKLOADS[args.workload])
    if args.setup_probe:
        module.setup_probe(args.seed, args.tiny)
        return 0

    started = time.perf_counter()
    scratch = harness.Scratch()
    children = harness.Children(scratch.path)
    try:
        ctx = harness.Context(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            args.tiny,
            scratch,
            children,
        )
        metrics, report, attempted, failed = module.run(ctx)
    except Exception:  # report and fail the run, never a half result
        traceback.print_exc()
        return 1
    finally:
        children.close()
        scratch.close()

    if args.trace:
        skipped = NOT_EXERCISED[args.workload]
        for name in skipped:
            metrics.setdefault(name, 0.0)
        report["not_exercised"] = list(skipped)
    else:
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    report["meta"] = harness.metadata(
        args.workload, args.seed, bool(args.trace), args.seconds
    )
    report["meta"]["tiny"] = args.tiny
    report["meta"]["elapsed_s"] = time.perf_counter() - started
    try:
        harness.emit(report, metrics, attempted, failed)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
