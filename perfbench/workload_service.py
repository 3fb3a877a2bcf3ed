"""``service-2tenant``: two tenants in a closed loop through ``repro serve``.

The driver starts ``repro serve --port 0`` and two ``repro experiments
worker`` processes, then drives two tenants from two client threads.
Each tenant submits its next small plan (ESS and ESS-NS on a 20²
heterogeneous case, population 8, 3 generations — tens of
milliseconds of engine work per cell) only after the previous one is
``done`` and its records are streamed back, so the gateway, the
fair-share ``PlanQueue``, leases and store merges dominate. One pass
is a fixed number of plans per tenant; a run makes at least 100 plans.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext

from harness import BenchError, Context, median, percentile
from records import check_cells, mean_quality, mismatches, timed_cycles
from spans import SpanRecorder

FULL = {"size": 20, "steps": 2, "population": 8, "generations": 3, "plans": 25}
TINY = {"size": 16, "steps": 2, "population": 4, "generations": 1, "plans": 3}
TENANTS = ("tenant-a", "tenant-b")
WORKERS = 2
MIN_PLANS = 100
POLL_S = 0.02
HTTP_TIMEOUT_S = 30.0
PLAN_TIMEOUT_S = 120.0


def tenant_plan(seed: int, tenant: int, index: int, tiny: bool):
    import numpy as np

    from repro.experiments.plan import BudgetSpec, CaseSpec, ExperimentPlan

    shape = TINY if tiny else FULL
    plan_seed = int(np.random.default_rng([seed, tenant, index]).integers(2**31))
    return ExperimentPlan(
        name=f"{TENANTS[tenant]}-{index}",
        systems=("ess", "ess-ns"),
        cases=(CaseSpec("heterogeneous", size=shape["size"], steps=shape["steps"]),),
        seeds=(plan_seed,),
        backends=("vectorized",),
        budget=BudgetSpec(
            population=shape["population"], generations=shape["generations"]
        ),
    )


# ----------------------------------------------------------------------
# HTTP
def _request(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _json(method: str, url: str, body: dict | None = None):
    status, raw = _request(method, url, body)
    return status, json.loads(raw or b"null")


class Service:
    """One ``repro serve`` process plus its worker processes."""

    def __init__(self, ctx: Context) -> None:
        import sys

        self.ctx = ctx
        spool = ctx.scratch.mkdtemp("spool-")
        self.out_path = spool / "serve.out"
        start = time.perf_counter()
        with open(self.out_path, "wb") as out:
            self.serve = ctx.children.spawn(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--spool", str(spool / "spool"),
                    "--port", "0",
                    "--fleet-port", "0",
                    "--poll-interval", "0.05",
                ],
                stdout=out,
                stderr=out,
            )
        http, fleet = self._addresses()
        self.base = f"http://{http}"
        self.workers = []
        for i in range(WORKERS):
            with open(spool / f"worker{i}.out", "wb") as out:
                self.workers.append(
                    ctx.children.spawn(
                        [
                            sys.executable, "-m", "repro", "experiments", "worker",
                            "--connect", fleet,
                            "--store", str(spool / f"worker{i}"),
                            "--id", f"bench-w{i}",
                        ],
                        stdout=out,
                        stderr=out,
                    )
                )
        self._wait_workers()
        self.setup_s = time.perf_counter() - start

    def _addresses(self) -> tuple[str, str]:
        deadline = time.perf_counter() + 60
        found: dict[str, str] = {}
        while time.perf_counter() < deadline:
            if self.serve.poll() is not None:
                raise BenchError(f"repro serve exited: {self.out_path.read_text()}")
            for line in self.out_path.read_text().splitlines():
                for kind in ("http", "fleet"):
                    prefix = f"service {kind} on "
                    if line.startswith(prefix):
                        found[kind] = line[len(prefix):].strip()
            if len(found) == 2:
                return found["http"], found["fleet"]
            time.sleep(0.01)
        raise BenchError("repro serve did not report its addresses")

    def _wait_workers(self) -> None:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            _, status = _json("GET", self.base + "/status")
            if len(status.get("workers") or {}) >= WORKERS:
                return
            self.check_alive()
            time.sleep(0.01)
        raise BenchError("service workers did not register")

    def check_alive(self) -> None:
        for proc in (self.serve, *self.workers):
            if proc.poll() is not None:
                raise BenchError(
                    f"service process {proc.args[3:5]} exited with {proc.returncode}"
                )

    def close(self) -> None:
        for proc in (*self.workers, self.serve):
            self.ctx.children.stop(proc)


# ----------------------------------------------------------------------
def _drive_plan(service: Service, tenant: int, plan, recorder) -> dict:
    """Submit one plan, wait for ``done``, stream its records."""
    base = service.base
    span = recorder.span if recorder else (lambda _name: nullcontext())
    out = {"plan": plan, "tenant": tenant, "failed": 0}
    t0 = time.perf_counter()
    with span("service.submit"):
        status, job = _json(
            "POST", base + "/plans", {"plan": plan.to_dict(), "tenant": TENANTS[tenant]}
        )
    out["submit_s"] = time.perf_counter() - t0
    if status != 201:
        raise BenchError(f"submission refused ({status}): {job}")
    first = None
    with span("service.wait"):
        while True:
            _, snap = _json("GET", f"{base}/plans/{job['id']}")
            now = time.perf_counter()
            if first is None and snap["recorded_cells"] > 0:
                first = now
            if snap["status"] == "done":
                break
            if snap["status"] not in ("queued", "running"):
                raise BenchError(f"plan {job['id']} ended {snap['status']}")
            service.check_alive()
            if now - t0 > PLAN_TIMEOUT_S:
                raise BenchError(f"plan {job['id']} not done in {PLAN_TIMEOUT_S}s")
            time.sleep(POLL_S)
    out["latency_s"] = now - t0
    out["first_record_s"] = first - t0
    with span("service.records"):
        status, raw = _request("GET", f"{base}/plans/{job['id']}/records")
    records = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
    out["records"] = records
    out["snapshot"] = snap
    out["t0"], out["t_end"] = t0, time.perf_counter()
    out["failed"] = check_cells(records, [k.as_tuple() for k in plan.runs()])
    if status != 200:
        out["failed"] += 1
    return out


def _one_pass(ctx: Context, service: Service, index: int, recorder=None) -> dict:
    shape = TINY if ctx.tiny else FULL
    results: list[list[dict]] = [[] for _ in TENANTS]
    errors: list[BaseException] = []

    def tenant_loop(tenant: int) -> None:
        try:
            for k in range(shape["plans"]):
                plan = tenant_plan(ctx.seed, tenant, index * shape["plans"] + k, ctx.tiny)
                results[tenant].append(_drive_plan(service, tenant, plan, recorder))
        except BaseException as exc:  # surfaced to the driver thread below
            errors.append(exc)

    threads = [threading.Thread(target=tenant_loop, args=(t,)) for t in range(len(TENANTS))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=PLAN_TIMEOUT_S * shape["plans"])
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise BenchError("a tenant loop did not finish")
    plans = [p for per_tenant in results for p in per_tenant]
    wall = max(p["t_end"] for p in plans) - min(p["t0"] for p in plans)
    cells = sum(len(p["records"]) for p in plans)
    # scheduler oracle: observed queue makespan (service clock) against
    # max(total cell seconds / workers, longest cell)
    seconds = [float(r["seconds"]) for p in plans for r in p["records"]]
    makespan = max(p["snapshot"]["finished"] for p in plans) - min(
        p["snapshot"]["submitted"] for p in plans
    )
    lower_bound = max(sum(seconds) / WORKERS, max(seconds))
    return {
        "wall": wall,
        "cells": cells,
        "plans": plans,
        "by_tenant": results,
        "makespan_s": makespan,
        "makespan_lb_s": lower_bound,
    }


def _inline_mismatches(ctx: Context, passes) -> int:
    """The first and last plan of each tenant against the same plan
    run inline."""
    from repro.experiments.runner import ExperimentRunner

    failed = 0
    for tenant in range(len(TENANTS)):
        served = [p for run in passes for p in run["by_tenant"][tenant]]
        for plan_result in (served[0], served[-1]):
            inline = ExperimentRunner().run(plan_result["plan"]).records
            failed += mismatches(plan_result["records"], inline)
    return failed


def _scrape(service: Service) -> dict:
    from repro.obs.metrics import histogram_quantile, parse_prometheus_text

    status, raw = _request("GET", service.base + "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    entries = parse_prometheus_text(raw.decode())

    def histogram(name: str) -> dict:
        merged = {"buckets": {}, "count": 0, "sum": 0.0, "max": 0.0}
        for e in entries:
            if e["name"] == name and e["type"] == "histogram":
                for bound, cum in e["buckets"].items():
                    merged["buckets"][bound] = merged["buckets"].get(bound, 0) + cum
                merged["count"] += e["count"]
                merged["sum"] += e["sum"]
                merged["max"] = max(merged["max"], e["max"])
        return merged

    schedule = histogram("repro_service_schedule_seconds")
    units = histogram("repro_fleet_unit_seconds")
    busy = sum(
        e["value"] for e in entries if e["name"] == "repro_fleet_worker_busy_seconds"
    )
    return {
        "schedule_p50": histogram_quantile(schedule, 0.5),
        "schedule_count": schedule["count"],
        "lease_p50": histogram_quantile(units, 0.5),
        "units": units["count"],
        "busy_s": busy,
    }


def run(ctx: Context) -> tuple[dict, dict, int, int]:
    shape = TINY if ctx.tiny else FULL
    per_pass = shape["plans"] * len(TENANTS)
    cycle = 1 if ctx.tiny else -(-MIN_PLANS // per_pass)
    setups = []
    service = None
    try:
        for _ in range(3):
            if service is not None:
                service.close()
            service = Service(ctx)
            setups.append(service.setup_s)
        if not ctx.trace:
            cycles = timed_cycles(
                ctx.seconds, lambda i: _one_pass(ctx, service, i), cycle
            )
            passes = [p for c in cycles for p in c]
        else:
            untraced = _one_pass(ctx, service, 0)
            recorder = SpanRecorder(run_id=f"{ctx.workload}-{ctx.seed}")
            traced = _one_pass(ctx, service, 1, recorder)
            passes = [untraced, traced]
        scrape = _scrape(service)
    finally:
        if service is not None:
            service.close()

    plans = [p for run in passes for p in run["plans"]]
    records = [r for p in plans for r in p["records"]]
    attempted = len(plans) + 2 * len(TENANTS)
    failed = sum(p["failed"] for p in plans) + _inline_mismatches(ctx, passes)
    latencies = [p["latency_s"] for p in plans]
    report = {
        "samples": {"plans": len(plans), "passes": len(passes), "setup": len(setups)},
        "walls_s": [p["wall"] for p in passes],
        "setup_samples_s": setups,
        "cells": len(records),
    }
    if not ctx.trace:
        walls = [p["wall"] for p in passes]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "cells_per_s": median(p["cells"] / p["wall"] for p in passes),
            "plan_latency_s.p50": median(latencies),
            "plan_latency_s.p90": percentile(latencies, 0.9),
            "first_record_s.p50": median(p["first_record_s"] for p in plans),
            "quality": mean_quality(records),
        }
        return metrics, report, attempted, failed

    makespan = sum(p["makespan_s"] for p in passes)
    lower_bound = sum(p["makespan_lb_s"] for p in passes)
    busy_capacity = WORKERS * sum(p["wall"] for p in passes)
    requeues = sum(int(p["snapshot"]["progress"]["requeues"]) for p in plans)
    metrics = {
        "service.submit_s.p50": median(p["submit_s"] for p in plans),
        "service.queue_wait_s.p50": median(
            p["snapshot"]["started"] - p["snapshot"]["submitted"] for p in plans
        ),
        "service.schedule_s.p50": scrape["schedule_p50"],
        "service.makespan_over_lb": makespan / lower_bound,
        "service.makespan_s": makespan,
        "service.makespan_lb_s": lower_bound,
        "distributed.lease_s.p50": scrape["lease_p50"],
        "distributed.worker_idle_frac": max(1.0 - scrape["busy_s"] / busy_capacity, 0.0),
        "distributed.units_per_cell": scrape["units"] / len(records),
        "distributed.requeues": requeues,
        "obs.trace_overhead_frac": (traced["wall"] - untraced["wall"]) / untraced["wall"],
    }
    report.update(recorder.summary(traced["wall"]), scrape=scrape)
    return metrics, report, attempted, failed
