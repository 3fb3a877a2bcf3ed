"""Plan scheduling: a fair-share queue of independent ledgers.

A :class:`~repro.distributed.coordinator.UnitLedger` answers one
question — *which cells of this plan does this worker run next?* — for
one plan. The :class:`PlanQueue` owns everything above that: every
submitted plan becomes a :class:`PlanJob` with its own ledger, its own
per-plan :class:`~repro.experiments.store.ResultsStore` (the
resume/idempotency contract is per plan), and a keyed job id — the
digest of ``(tenant, plan payload)``, so a client retrying a submission
lands on the job it already created instead of a duplicate. The queue
makes every decision that spans plans or workers: collect owed
records, honour drains, answer ``bye``, pick the plan to grant from,
and account each worker's wire exchanges. It is the one coordinator
brain of the repository — the always-on service feeds it many tenants'
plans, and a one-plan fleet run
(:class:`~repro.distributed.coordinator.FleetExecutor`) submits a
single plan and then :meth:`~PlanQueue.retire`\\ s the fleet.

**Fair share.** Grants are arbitrated by cost-model-weighted deficit
round-robin. Every job carries a deficit counter (predicted seconds it
is owed). When a grant of predicted cost ``c`` is issued, ``c`` is
first distributed as credit across the active jobs proportionally to
their ``priority``, then charged in full to the granted job:

* deficits sum to ~zero over time, so a job's deficit *is* its
  deviation from weighted fair share;
* the next grant goes to the job with the highest deficit (ties break
  toward earlier submission), so one huge bulk plan cannot starve an
  interactive tenant: each grant it takes pushes its deficit further
  negative while everyone else's rises;
* a late submission starts at deficit zero — already ahead of
  whatever has been monopolising the pool — and a higher ``priority``
  makes it accrue credit faster, so it overtakes a queued bulk plan
  rather than waiting behind it.

The costs come from one service-wide
:class:`~repro.experiments.costs.UnitCostModel` shared by every job's
ledger (and persisted to a spool sidecar across restarts), so a unit's
price — and therefore each tenant's measured share — is consistent
across plans.

Scheduling moves only *where and when* cells run. Every record is
reproducible from ``(plan, seed)`` alone, so a plan run through the
service is bitwise-identical (in the
:func:`~repro.experiments.store.parity_view`) to the same plan run
inline, whatever the interleaving.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.distributed.coordinator import UnitLedger
from repro.distributed.protocol import FleetError
from repro.errors import ReproError
from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    load_cost_model,
    save_cost_model,
    seed_plan_priors,
)
from repro.experiments.plan import ExperimentPlan
from repro.experiments.store import ResultsStore, record_key
from repro.experiments.work import WorkSet
from repro.obs import telemetry

__all__ = [
    "AdmissionError",
    "PlanJob",
    "PlanQueue",
    "ServiceError",
    "UnknownPlanError",
    "plan_job_id",
]

log = logging.getLogger("repro.service.queue")


class ServiceError(ReproError):
    """A service-layer failure (bad submission, unknown plan, ...)."""


class UnknownPlanError(ServiceError):
    """No job under that id (never submitted, or cancelled+restarted)."""


class AdmissionError(ServiceError):
    """Queue full: admission refused with a predicted retry time.

    ``retry_after`` is the cost model's predicted drain time of the
    currently admitted work divided over the live workers — the
    gateway turns it into a 429 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


def plan_job_id(plan_payload: dict, tenant: str) -> str:
    """The keyed job id: a digest of ``(tenant, plan payload)``.

    Deterministic, so resubmitting the same plan is idempotent — the
    client gets its existing job back (and the per-plan store makes
    the re-run a no-op resume even across service restarts).
    """
    blob = json.dumps(
        {"tenant": tenant, "plan": plan_payload}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class PlanJob:
    """One admitted plan: ledger + store + fair-share accounting."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        priority: float,
        plan: ExperimentPlan,
        store: ResultsStore,
        ledger: UnitLedger,
        index: int,
        trace: dict | None = None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.priority = float(priority)
        self.plan = plan
        self.plan_payload = plan.to_dict()
        self.plan_cells = {k.as_tuple() for k in plan.runs()}
        # a unit is priced by its group's (case, backend) kernel —
        # the same mapping the ledger uses, duplicated here because
        # the fair-share charge happens at queue level
        self.kernel_of = {
            idx: UnitCostModel.kernel_key(case.name, backend)
            for idx, ((case, backend), _keys) in enumerate(plan.groups())
        }
        self.store = store
        self.store_lock = threading.Lock()
        self.ledger = ledger
        self.index = index  # submission order, the fair-share tiebreak
        self.trace = dict(trace) if trace else None
        self.state = "active"  # active | done | cancelled
        self.deficit = 0.0
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None

    def status(self) -> str:
        if self.state == "active":
            return "running" if self.started is not None else "queued"
        return self.state

    def recorded_cells(self) -> int:
        with self.store_lock:
            return len(self.store.completed() & self.plan_cells)

    def snapshot(self) -> dict:
        """The job as the gateway reports it (JSON-safe)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "plan": self.plan.name,
            "status": self.status(),
            "expected_cells": len(self.plan_cells),
            "recorded_cells": self.recorded_cells(),
            "progress": self.ledger.progress(),
            "deficit_seconds": self.deficit,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "store": str(self.store.path),
            "trace": dict(self.trace) if self.trace else None,
        }


class PlanQueue:
    """The coordinator state: jobs, workers, fair share.

    Parameters
    ----------
    spool:
        Service state directory: ``plans/<id>.json`` (admitted
        submissions, reloaded on restart), ``stores/<id>.jsonl``
        (per-plan results stores, unless :meth:`submit` names another)
        and ``costs.json`` (the persisted cost-model snapshot) live
        here.
    lease_timeout, min_unit_cells, target_unit_seconds,
    slow_unit_factor:
        Per-plan ledger knobs, identical in meaning to
        :class:`~repro.distributed.coordinator.UnitLedger`.
    max_active:
        Admission bound: at most this many jobs queued or running at
        once; beyond it :meth:`submit` raises :class:`AdmissionError`
        with the predicted drain time (resubmissions of an existing
        job are always admitted — idempotency must not bounce).
    clock:
        Monotonic time source (tests inject a fake).
    cost_snapshot:
        Where the shared cost model is restored from and persisted to
        (default ``<spool>/costs.json``).

    Every public method takes the queue lock; per-job ledgers and
    stores have their own locks nested strictly inside it, so the
    shared cost model is only ever mutated under the queue lock.
    """

    def __init__(
        self,
        spool: str | os.PathLike,
        lease_timeout: float = 30.0,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
        max_active: int = 8,
        clock=time.monotonic,
        cost_snapshot: str | os.PathLike | None = None,
    ) -> None:
        if max_active < 1:
            raise ServiceError(
                f"max_active must be >= 1, got {max_active}"
            )
        self.spool = Path(spool)
        (self.spool / "plans").mkdir(parents=True, exist_ok=True)
        (self.spool / "stores").mkdir(parents=True, exist_ok=True)
        self.cost_snapshot_path = Path(
            cost_snapshot
            if cost_snapshot is not None
            else self.spool / "costs.json"
        )
        self.lease_timeout = float(lease_timeout)
        self.min_unit_cells = int(min_unit_cells)
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
        self.max_active = int(max_active)
        self.clock = clock
        # one cost model for the whole service: rates measured while
        # serving one tenant's plan inform the next tenant's grants,
        # and the snapshot survives restarts (ROADMAP item 3)
        self.cost_model = (
            load_cost_model(self.cost_snapshot_path) or UnitCostModel()
        )
        self._jobs: dict[str, PlanJob] = {}
        self._order: list[str] = []
        self._draining: set[str] = set()
        # workers answered `bye`, and whether every worker is to be
        # retired once the admitted plans are done (see retire())
        self._retired: set[str] = set()
        self._retiring = False
        # per-worker wire accounting: first/last contact, every request
        # (the cost piggybacked granting exists to cut), lease asks and
        # next-decisions piggybacked on complete replies
        self._contacts: dict[str, dict] = {}
        self._lock = threading.RLock()
        self._restore_spool()

    # -- admission -----------------------------------------------------
    def _restore_spool(self) -> None:
        """Re-admit the plans a previous service process left behind.

        Their per-plan stores resume by the usual cell contract:
        whatever was recorded stays recorded, only missing cells are
        served. Fully recorded jobs flip to done on first
        housekeeping.
        """
        for path in sorted((self.spool / "plans").glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                self._admit_locked(
                    data["plan"],
                    str(data.get("tenant", "default")),
                    float(data.get("priority", 1.0)),
                    trace=None,
                    store=(
                        ResultsStore(data["store"])
                        if data.get("store")
                        else None
                    ),
                    persist=False,
                )
            except (OSError, ValueError, KeyError, ReproError) as exc:
                log.warning(
                    "ignoring unreadable spooled plan %s: %s", path, exc
                )

    def submit(
        self,
        plan_payload: dict,
        tenant: str = "default",
        priority: float = 1.0,
        trace: dict | None = None,
        store: ResultsStore | None = None,
    ) -> tuple[PlanJob, bool]:
        """Admit a plan; returns ``(job, created)``.

        Resubmitting an identical ``(tenant, plan)`` returns the
        existing job (``created=False``) whatever its state — the
        keyed id makes client retries free. A full queue raises
        :class:`AdmissionError` carrying the predicted drain time.
        ``store`` is the results store the job records into (default
        ``<spool>/stores/<id>.jsonl``); cells it already holds are
        resumed, not re-run.
        """
        if priority <= 0:
            raise ServiceError(
                f"priority must be positive, got {priority}"
            )
        with self._lock:
            self._housekeep_locked()
            job_id = plan_job_id(plan_payload, tenant)
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing, False
            active = [
                j for j in self._jobs.values() if j.state == "active"
            ]
            if len(active) >= self.max_active:
                retry_after = max(self.predicted_drain_seconds(), 1.0)
                telemetry().counter(
                    "repro_service_rejected_total"
                ).inc()
                raise AdmissionError(
                    f"queue full ({len(active)} active plans, "
                    f"max {self.max_active})",
                    retry_after=retry_after,
                )
            job = self._admit_locked(
                plan_payload, tenant, priority, trace, store, persist=True
            )
            telemetry().counter("repro_service_submissions_total").inc()
            return job, True

    def _admit_locked(
        self,
        plan_payload: dict,
        tenant: str,
        priority: float,
        trace: dict | None,
        store: ResultsStore | None,
        persist: bool,
    ) -> PlanJob:
        try:
            plan = ExperimentPlan.from_dict(plan_payload)
        except ServiceError:
            raise
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            # a malformed plan is the submitter's error (HTTP 400),
            # not a service fault
            raise ServiceError(f"invalid plan payload: {exc}") from exc
        job_id = plan_job_id(plan_payload, tenant)
        if store is None:
            store = ResultsStore(self.spool / "stores" / f"{job_id}.jsonl")
        store_lock = threading.Lock()

        def completed_cells() -> set[tuple[str, str, int, str]]:
            with store_lock:
                return store.completed()

        workset = WorkSet.compile(plan, store.completed())
        # new kernels get this plan's budget priors; kernels the
        # service has already measured (or restored) keep their rates
        seed_plan_priors(self.cost_model, plan, overwrite=False)
        ledger = UnitLedger(
            workset,
            self.lease_timeout,
            completed_cells,
            self.cost_model,
            clock=self.clock,
            min_unit_cells=self.min_unit_cells,
            target_unit_seconds=self.target_unit_seconds,
            slow_unit_factor=self.slow_unit_factor,
        )
        job = PlanJob(
            job_id,
            tenant,
            priority,
            plan,
            store,
            ledger,
            index=len(self._order),
            trace=trace,
        )
        job.store_lock = store_lock  # the lock the ledger closure holds
        self._jobs[job_id] = job
        self._order.append(job_id)
        if persist:
            path = self.spool / "plans" / f"{job_id}.json"
            path.write_text(
                json.dumps(
                    {
                        "tenant": tenant,
                        "priority": priority,
                        "plan": plan.to_dict(),
                        "store": str(store.path),
                    },
                    sort_keys=True,
                    indent=2,
                )
                + "\n",
                encoding="utf-8",
            )
        log.info(
            "admitted plan %s (job %s, tenant %s, priority %g, "
            "%d cells pending)",
            plan.name,
            job_id,
            tenant,
            priority,
            workset.total_cells,
            extra={"plan": plan.name, "job": job_id, "tenant": tenant},
        )
        self._export_gauges_locked()
        return job

    def cancel(self, job_id: str) -> PlanJob:
        """Cancel a job: no further grants; in-flight units finish and
        their records land harmlessly in the job's store. Idempotent;
        cancelling a finished job leaves it ``done``. The spooled
        submission is removed so a restart does not resurrect it."""
        with self._lock:
            job = self.job(job_id)
            if job.state == "active":
                job.state = "cancelled"
                job.finished = time.time()
                log.info(
                    "cancelled job %s (%s)",
                    job.id,
                    job.plan.name,
                    extra={"job": job.id, "plan": job.plan.name},
                )
            try:
                (self.spool / "plans" / f"{job_id}.json").unlink()
            except OSError:
                pass
            self._export_gauges_locked()
            return job

    # -- worker protocol -----------------------------------------------
    def _contact(self, worker: str, now: float) -> dict:
        """Count one request from ``worker``; its wire-accounting row."""
        row = self._contacts.get(worker)
        if row is None:
            row = self._contacts[worker] = {
                "first_seen": now,
                "round_trips": 0,
                "lease_requests": 0,
                "piggybacked": 0,
            }
        row["last_seen"] = now
        row["round_trips"] += 1
        return row

    def touch(self, worker: str) -> None:
        """Record contact from ``worker`` (a ``hello``)."""
        with self._lock:
            self._contact(worker, self.clock())

    def drain_worker(self, worker: str) -> None:
        """Gracefully retire ``worker``: it finishes leased units and
        is answered ``bye`` once nothing outstanding remains."""
        with self._lock:
            self._draining.add(worker)
            telemetry().counter("repro_fleet_drains_total").inc()
            log.info(
                "worker %s draining from service", worker,
                extra={"worker": worker},
            )

    def retire(self) -> None:
        """Retire the whole fleet once the admitted work is done.

        From now on, whenever no admitted plan is still active, every
        worker — already known or joining later — that owes nothing is
        answered ``bye`` instead of ``wait``. Plans still active keep
        being served first; this is the drain lifecycle applied to
        everyone at once, so it requeues nothing.
        """
        with self._lock:
            self._retiring = True

    def all_retired(self) -> bool:
        """Whether every live worker has been answered ``bye``."""
        with self._lock:
            now = self.clock()
            return all(
                worker in self._retired
                or now - row["last_seen"] > self.lease_timeout
                for worker, row in self._contacts.items()
            )

    def lease(self, worker: str) -> dict:
        """Answer one work request across all plans (the DRR pick)."""
        with self._lock:
            now = self.clock()
            self._contact(worker, now)["lease_requests"] += 1
            return self._decide_locked(worker, now)

    def heartbeat(
        self, worker: str, plan_id, lease_id, info: dict | None = None
    ) -> dict:
        with self._lock:
            self._contact(worker, self.clock())
            job = self._jobs.get(plan_id)
            if job is None:
                return {"type": "expired"}
            return job.ledger.heartbeat(worker, lease_id, info)

    def complete(
        self,
        worker: str,
        plan_id,
        lease_id,
        info: dict | None = None,
        records: list | None = None,
    ) -> dict:
        """Handle a unit completion; the reply always piggybacks the
        worker's next decision (``next``) — across *all* plans, which
        is what keeps a steady-state worker at one round-trip per unit
        even when its next unit belongs to another tenant."""
        with self._lock:
            now = self.clock()
            self._contact(worker, now)["piggybacked"] += 1
            job = self._jobs.get(plan_id)
            drained = False
            if job is not None and isinstance(records, list):
                # merge BEFORE the ledger sees the completion so the
                # coverage check already counts these records
                wanted = [
                    r
                    for r in records
                    if record_key(r) in job.plan_cells
                ]
                with job.store_lock:
                    job.store.merge(wanted)
                drained = True
            if job is None:
                reply = {"type": "stale"}
            else:
                reply = job.ledger.complete(
                    worker, lease_id, info, drained=drained
                )
            reply["next"] = self._decide_locked(worker, now)
            return reply

    def merge_records(
        self, worker: str, plan_id, records: list
    ) -> dict:
        """A ``records`` upload routed to one plan's store."""
        if not isinstance(records, list):
            raise FleetError("records message without a record list")
        with self._lock:
            self._contact(worker, self.clock())
            job = self._jobs.get(plan_id)
            if job is None:
                # e.g. a drain for a plan cancelled out from under the
                # worker; its records have nowhere to go, which is fine
                # — a cancelled plan's store is already best-effort
                return {
                    "type": "ok",
                    "merged": 0,
                    "ignored": len(records),
                    "total": 0,
                }
            wanted = [
                r for r in records if record_key(r) in job.plan_cells
            ]
            with job.store_lock:
                merged = job.store.merge(wanted)
            job.ledger.drained(worker)
            return {
                "type": "ok",
                "merged": len(wanted),
                "ignored": len(records) - len(wanted),
                "total": merged["records"],
            }

    # -- the scheduling core -------------------------------------------
    def _decide_locked(self, worker: str, now: float) -> dict:
        """The lease decision (queue lock held).

        Order of business: collect owed records first, honour drains
        and retirement, then the fair-share grant.
        """
        self._housekeep_locked()
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != "cancelled" and job.ledger.worker_dirty(
                worker
            ):
                return {"type": "drain", "plan_id": job.id}
        if worker in self._draining or (
            self._retiring
            and not any(j.state == "active" for j in self._jobs.values())
        ):
            if any(
                self._jobs[j].ledger.holds_lease(worker)
                for j in self._order
            ):
                # only reachable when a retried ask races its own
                # lease; the safe answer is always "come back"
                return {"type": "wait"}
            self._retired.add(worker)
            return {"type": "bye"}
        candidates = [
            self._jobs[j]
            for j in self._order
            if self._jobs[j].state == "active"
            and self._jobs[j].ledger.grantable()
        ]
        if not candidates:
            # new plans may arrive any moment (and leased units may
            # still requeue), so idle workers just poll
            return {"type": "wait"}
        job = max(candidates, key=lambda j: (j.deficit, -j.index))
        reply = job.ledger.lease(worker)
        if reply.get("type") != "unit":
            return {"type": "wait"}
        cells = len((reply.get("unit") or {}).get("cells", ()))
        group = (reply.get("unit") or {}).get("group", -1)
        cost = self.cost_model.estimate(
            job.kernel_of.get(group, ""), cells
        )
        self._charge_locked(job, cost)
        if job.started is None:
            self._first_grant_locked(job, worker)
        reply["plan_id"] = job.id
        reply["plan"] = job.plan_payload
        if job.trace is not None:
            reply["trace"] = dict(job.trace)
        return reply

    def _charge_locked(self, chosen: PlanJob, cost: float) -> None:
        """Surplus-style DRR bookkeeping: the grant's predicted cost is
        credited across active jobs by priority weight, then debited
        from the grantee — deficits track deviation from weighted fair
        share and sum to ~zero."""
        active = [
            j for j in self._jobs.values() if j.state == "active"
        ]
        weight = sum(j.priority for j in active)
        if weight > 0:
            for j in active:
                j.deficit += cost * (j.priority / weight)
        chosen.deficit -= cost

    def _first_grant_locked(self, job: PlanJob, worker: str) -> None:
        """The submit→schedule transition: record the queueing latency
        and close the job's ``schedule`` span (hand-emitted — it
        started at submission, on the gateway's thread, and ends here
        on a coordinator handler thread)."""
        job.started = time.time()
        latency = max(job.started - job.submitted, 0.0)
        registry = telemetry()
        registry.histogram("repro_service_schedule_seconds").observe(
            latency
        )
        if job.trace is not None:
            registry.emit(
                {
                    "event": "span",
                    "span": "schedule",
                    "id": f"svc-{job.id}-schedule",
                    "parent": job.trace.get("parent_span"),
                    "trace_id": job.trace.get("trace_id"),
                    "depth": 1,
                    "start": job.submitted,
                    "seconds": latency,
                    "thread": threading.get_ident(),
                    "status": "ok",
                    "attrs": {
                        "plan_id": job.id,
                        "tenant": job.tenant,
                        "first_worker": worker,
                    },
                }
            )

    # -- housekeeping and introspection --------------------------------
    def housekeep(self) -> None:
        """Advance job states without worker traffic (timer-driven):
        lease expiry, coverage checks, done transitions."""
        with self._lock:
            self._housekeep_locked()

    def _housekeep_locked(self) -> None:
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != "active":
                continue
            if job.ledger.poll_completion():
                job.state = "done"
                job.finished = time.time()
                log.info(
                    "job %s (%s) complete: %d cells",
                    job.id,
                    job.plan.name,
                    len(job.plan_cells),
                    extra={"job": job.id, "plan": job.plan.name},
                )
                # each finish refines the shared model; snapshot it so
                # even a crash-stopped service keeps what it learned
                self.save_costs()
                self._export_gauges_locked()

    def _export_gauges_locked(self) -> None:
        counts = {"queued": 0, "running": 0, "done": 0, "cancelled": 0}
        for job in self._jobs.values():
            counts[job.status()] += 1
        registry = telemetry()
        for state, n in counts.items():
            registry.gauge("repro_service_plans", state=state).set(n)
        registry.gauge("repro_service_queue_depth").set(
            counts["queued"] + counts["running"]
        )
        registry.gauge("repro_service_pending_cells").set(
            sum(
                j.ledger.progress()["pending_cells"]
                for j in self._jobs.values()
                if j.state == "active"
            )
        )

    def predicted_drain_seconds(self) -> float:
        """Cost-model prediction of when the admitted work drains,
        spread over the live (non-draining) workers — the Retry-After
        the gateway attaches to a 429."""
        with self._lock:
            total = sum(
                j.ledger.predicted_remaining_seconds()
                for j in self._jobs.values()
                if j.state == "active"
            )
            now = self.clock()
            live = [
                w
                for w, row in self._contacts.items()
                if now - row["last_seen"] <= self.lease_timeout
                and w not in self._draining
            ]
            return total / max(len(live), 1)

    def job(self, job_id: str) -> PlanJob:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownPlanError(f"unknown plan {job_id!r}")
            return job

    def jobs(self) -> list[PlanJob]:
        with self._lock:
            return [self._jobs[j] for j in self._order]

    def workers(self) -> dict[str, dict]:
        """Per-worker view across every plan: busy/idle split over the
        worker's membership span (first to last contact), the plans'
        unit/cell/lease accounting summed, the wire accounting, and
        liveness + drain state.

        ``busy_seconds`` is the worker's own cumulative report, so it
        is the max over plans; ``throughput`` is cells per second over
        all the plans it ran.
        """
        with self._lock:
            now = self.clock()
            per_plan = [
                self._jobs[j].ledger.worker_stats() for j in self._order
            ]
            out: dict[str, dict] = {}
            for worker in sorted(self._contacts):
                contact = self._contacts[worker]
                rows = [s[worker] for s in per_plan if worker in s]
                busy_seconds = max(
                    (r["busy_seconds"] for r in rows), default=0.0
                )
                span = max(contact["last_seen"] - contact["first_seen"], 0.0)
                busy = min(busy_seconds, span) if span > 0 else 0.0
                measured = [r for r in rows if r["throughput"]]
                cells = sum(r["cells"] for r in measured)
                seconds = sum(r["cells"] / r["throughput"] for r in measured)
                out[worker] = {
                    **{
                        key: sum(r[key] for r in rows)
                        for key in (
                            "leases",
                            "units",
                            "cells",
                            "records",
                            "lease_seconds",
                            "completes",
                            "drains",
                        )
                    },
                    "busy_seconds": busy_seconds,
                    "idle_seconds": max(span - busy, 0.0),
                    "span_seconds": span,
                    "utilization": (busy / span) if span > 0 else None,
                    "throughput": cells / seconds if seconds > 0 else None,
                    "round_trips": contact["round_trips"],
                    "lease_requests": contact["lease_requests"],
                    "piggybacked": contact["piggybacked"],
                    "live": now - contact["last_seen"] <= self.lease_timeout,
                    "draining": worker in self._draining,
                }
            return out

    def status(self) -> dict:
        """The coordinator snapshot (``status`` message, ``/status``):
        one entry per plan, the per-worker view, admission state and
        the shared cost model."""
        with self._lock:
            self._housekeep_locked()
            active = [
                j for j in self._jobs.values() if j.state == "active"
            ]
            return {
                "type": "status",
                "plans": [
                    self._jobs[j].snapshot() for j in self._order
                ],
                "workers": self.workers(),
                "queue": {
                    "active": len(active),
                    "max_active": self.max_active,
                    "predicted_drain_seconds": (
                        self.predicted_drain_seconds()
                    ),
                },
                "costs": self.cost_model.to_dict(),
            }

    def save_costs(self) -> None:
        """Persist the shared cost model to the spool sidecar."""
        try:
            save_cost_model(self.cost_model, self.cost_snapshot_path)
        except OSError as exc:  # a hint, never worth failing serving
            log.warning(
                "could not persist cost snapshot %s: %s",
                self.cost_snapshot_path,
                exc,
            )
