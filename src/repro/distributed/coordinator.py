"""Fleet coordinator: the unit ledger and the one-plan fleet executor.

The :class:`FleetExecutor` is the distributed arm of the executor seam
(:mod:`repro.distributed.executors`): it serves a plan's pending
:class:`~repro.experiments.work.WorkUnit`\\ s — cell subsets of
``(case, backend)`` groups — to any number of
``repro experiments worker`` processes, on this machine or others. It
does so through the same machinery as the always-on service: the plan
is submitted once to a one-plan :class:`~repro.service.PlanQueue`, and
a :class:`~repro.service.ServiceCoordinator` speaks the one fleet wire
of :mod:`repro.distributed.protocol`. A fleet run and the service share
one lease/heartbeat/requeue/drain/piggyback implementation.

Scheduling is **cell-level with work stealing** under one policy. A
:class:`~repro.experiments.costs.UnitCostModel` (seeded from plan
priors, updated online from the cost reports workers attach to
``complete``/heartbeat messages) prices every pending unit; grants
carve a near-target-cost piece off the costliest unit, sized
**capacity-aware** — proportional to the asking worker's measured
throughput (cells/second) among the live fleet, so a slow machine gets
proportionally fewer cells. A worker with no throughput sample yet
receives a small probe lease first. Same-group requeued fragments
re-merge before re-lease, the ``min_unit_cells`` constant is the
*floor* under an adaptive minimum (the cells amounting to
``target_unit_seconds`` of predicted work; ``0`` keeps whole-unit
leases), and the next lease piggybacks on every ``complete`` reply
(with the worker's records inline), so a steady-state worker pays one
round-trip per unit. A one-case/many-seeds plan (one big group) spreads
across every worker that asks. Splitting moves only *where* cells
execute: every cell is reproducible from ``(plan, seed)`` alone, so the
store's bytes are identical at any granularity.

Correctness rests on three rules, all enforced by the
:class:`UnitLedger` (one per plan):

* **Leases expire.** A worker holds a unit only while it heartbeats; a
  worker that dies (or loses the network) stops renewing and its unit
  — the exact cell subset — is re-leased to the next worker that asks.
  Requeued units re-run from the new worker's own store, so cells a
  worker had *partially* recorded before a stale lease resume rather
  than recompute.
* **Records live on the worker until the coordinator has them.**
  Workers stream every completed run into their own crash-safe local
  :class:`~repro.experiments.store.ResultsStore` and ship it with each
  ``complete`` report; the coordinator folds uploads into the plan's
  store through :meth:`ResultsStore.merge` — first writer wins, so a
  cell that was executed twice (stale lease, re-run after a death)
  never duplicates a ``(system, case, seed, backend)`` record.
* **Completion is verified, not assumed.** A unit reported complete
  counts only tentatively; the plan finishes when its *store* records
  every expected cell. Cells stranded on a dead worker are detected by
  this coverage check and requeued as fresh units covering exactly the
  missing cells.

Once the plan is recorded, the fleet executor retires every worker
through the ``bye`` reply of the drain lifecycle. The coordinator never
simulates anything itself: it is bookkeeping plus a store, which is
what lets one process oversee a fleet of heavyweight workers.
"""

from __future__ import annotations

import itertools
import logging
import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.experiments.costs import (
    DEFAULT_SLOW_UNIT_FACTOR,
    UnitCostModel,
    record_residual,
)
from repro.experiments.work import WorkSet, WorkUnit, merge_group_units
from repro.obs import telemetry
from repro.obs.http import clear_status_provider, set_status_provider

from repro.distributed.executors import _check_process_portable
from repro.distributed.protocol import FleetError, check_auth_token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import ExperimentRunner

__all__ = ["FleetExecutor", "UnitLedger"]

log = logging.getLogger("repro.distributed.coordinator")


class UnitLedger:
    """Thread-safe lease/steal/requeue bookkeeping for one plan.

    The :class:`~repro.service.PlanQueue` owns one ledger per admitted
    plan and makes the decisions that span plans and workers (collect
    owed records, honour drains, retire with ``bye``, fair share); a
    ledger answers only *which cells of this plan* a worker runs next.

    Parameters
    ----------
    workset:
        The pending work, compiled from the plan and the plan's store
        (unit cells refer to :meth:`ExperimentPlan.groups` order;
        workers rebuild the same plan from the payload every ``unit``
        grant carries, so group indices agree — the cells themselves
        travel explicitly).
    lease_timeout:
        Seconds without a heartbeat (or any other contact) after which
        a lease is revoked and its unit re-leased; also the staleness
        bound after which a silent worker is presumed dead.
    completed_cells:
        Callable returning the coordinator store's recorded run keys —
        the ground truth of the end-of-run coverage check.
    cost_model:
        The :class:`~repro.experiments.costs.UnitCostModel` pricing
        every grant (see the module docstring); the service shares one
        across all plans.
    min_unit_cells:
        Work-stealing floor: a grant carves a piece off a pending unit
        only while both parts keep at least this many cells — the
        *floor* under the adaptive minimum derived from measured
        per-cell cost. ``0`` disables splitting (whole-unit leases).
    target_unit_seconds:
        Lease-size target: grants aim for at least this much predicted
        work per unit once per-cell cost is measured, so tiny sliver
        leases (one session each, all overhead) stop at a wall-clock
        bound instead of a guessed cell count.
    slow_unit_factor:
        Residual monitoring: every completed unit's
        observed/predicted ratio lands in the
        ``repro_cost_residual_ratio`` histogram, and a unit slower
        than ``factor × predicted`` emits a ``slow_unit`` trace event
        naming the worker.
    """

    def __init__(
        self,
        workset: WorkSet,
        lease_timeout: float,
        completed_cells: Callable[[], set[tuple[str, str, int, str]]],
        cost_model: UnitCostModel,
        clock: Callable[[], float] = time.monotonic,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
    ) -> None:
        if lease_timeout <= 0:
            raise FleetError(
                f"lease timeout must be positive, got {lease_timeout}"
            )
        if min_unit_cells < 0:
            raise FleetError(
                f"min_unit_cells must be >= 0, got {min_unit_cells}"
            )
        if target_unit_seconds <= 0:
            raise FleetError(
                f"target_unit_seconds must be positive, got "
                f"{target_unit_seconds}"
            )
        units = workset.pending()
        self._group_of = {
            cell: unit.group for unit in units for cell in unit.cells
        }
        self._expected = set(self._group_of)
        self._pending: list[WorkUnit] = list(units)
        self._leases: dict[int, dict] = {}
        self._lease_ids = itertools.count(1)
        # cells reported complete whose records have not yet been
        # verified in the coordinator store (a set: re-completion after
        # a requeue never double-counts)
        self._tentative: set[tuple[str, str, int, str]] = set()
        self._dirty: set[str] = set()
        self._last_seen: dict[str, float] = {}
        # per-worker accounting fed by lease grants plus the telemetry
        # payloads workers attach to heartbeats and complete reports
        self._worker_stats: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.lease_timeout = float(lease_timeout)
        self.min_unit_cells = int(min_unit_cells)
        self.completed_cells = completed_cells
        self.clock = clock
        self.cost_model = cost_model
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
        # group index -> cost-model kernel key (a unit is priced by
        # its group's (case, backend) kernel)
        self._kernel_of: dict[int, str] = {
            index: UnitCostModel.kernel_key(case.name, backend)
            for index, ((case, backend), _keys) in enumerate(
                workset.plan.groups()
            )
        }
        self.finished = threading.Event()
        self.requeues = 0
        self.steals = 0

    # ------------------------------------------------------------------
    def _stats(self, worker: str, now: float) -> dict:
        """This worker's accounting row (created on first contact)."""
        st = self._worker_stats.get(worker)
        if st is None:
            st = self._worker_stats[worker] = {
                "first_seen": now,
                "leases": 0,
                "units": 0,
                "cells": 0,
                "records": 0,
                "busy_seconds": 0.0,
                "lease_seconds": 0.0,
                "completes": 0,
                "drains": 0,
                # measured capacity, EMA cells/second from unit timings
                "throughput": None,
            }
        return st

    def _fold_telemetry(self, worker: str, st: dict, info) -> None:
        """Fold a worker-reported telemetry payload into its stats row.

        ``busy_seconds`` arrives as the worker's *cumulative* busy time,
        so the fold is a max — late or duplicate reports never inflate
        utilization. The per-worker busy gauge updates live here (not
        only at fleet finish), so a ``/metrics`` scrape mid-run already
        shows ``repro_fleet_worker_busy_seconds{worker=...}``.
        """
        if not isinstance(info, dict):
            return
        try:
            busy = float(info.get("busy_seconds", 0.0))
        except (TypeError, ValueError):
            return
        st["busy_seconds"] = max(st["busy_seconds"], busy)
        telemetry().gauge(
            "repro_fleet_worker_busy_seconds", worker=worker
        ).set(st["busy_seconds"])

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker view of this plan: busy/idle split and utilization.

        ``utilization`` is busy time over the worker's span with this
        plan (first to last contact); ``None`` until the span is
        non-zero. ``lease_seconds`` is coordinator-measured
        grant-to-complete latency, summed over this worker's completed
        leases. The wire accounting (round trips, piggybacked grants)
        lives one level up, in :meth:`repro.service.PlanQueue.workers`.
        """
        with self._lock:
            now = self.clock()
            out: dict[str, dict] = {}
            for worker in sorted(self._worker_stats):
                st = self._worker_stats[worker]
                last = self._last_seen.get(worker, st["first_seen"])
                span = max(last - st["first_seen"], 0.0)
                busy = min(st["busy_seconds"], span) if span > 0 else 0.0
                out[worker] = {
                    "leases": st["leases"],
                    "units": st["units"],
                    "cells": st["cells"],
                    "records": st["records"],
                    "busy_seconds": st["busy_seconds"],
                    "idle_seconds": max(span - busy, 0.0),
                    "span_seconds": span,
                    "lease_seconds": st["lease_seconds"],
                    "completes": st["completes"],
                    "drains": st["drains"],
                    "throughput": st["throughput"],
                    "utilization": (busy / span) if span > 0 else None,
                    "live": now - self._last_seen.get(worker, 0.0)
                    <= self.lease_timeout,
                }
            return out

    def lease(self, worker: str) -> dict:
        """Grant ``worker`` a unit of this plan (``wait`` if none is
        pending — the end-of-plan coverage check is
        :meth:`poll_completion`'s job)."""
        with self._lock:
            now = self.clock()
            self._last_seen[worker] = now
            self._stats(worker, now)
            self._expire(now)
            if self.finished.is_set() or not self._pending:
                return {"type": "wait"}
            return self._grant(worker, now)

    def heartbeat(self, worker: str, lease_id, info: dict | None = None) -> dict:
        """Renew a lease; ``expired`` once the unit was re-leased.

        ``info`` is the worker's optional telemetry payload (cumulative
        busy seconds), folded into the fleet utilization view so
        in-flight work counts, not just completed units.
        """
        with self._lock:
            now = self.clock()
            self._last_seen[worker] = now
            self._fold_telemetry(worker, self._stats(worker, now), info)
            self._expire(now)
            lease = self._leases.get(_lease_key(lease_id))
            if lease is None or lease["worker"] != worker:
                return {"type": "expired"}
            lease["deadline"] = now + self.lease_timeout
            if isinstance(info, dict):
                # an in-flight unit's elapsed time bounds its cost from
                # below — a unit running long teaches the model before
                # it completes
                unit = lease["unit"]
                kernel = self._kernel_of.get(unit.group, "")
                try:
                    elapsed = float(info.get("unit_seconds", 0.0))
                except (TypeError, ValueError):
                    elapsed = 0.0
                self.cost_model.observe_lower_bound(
                    kernel, unit.n_cells, elapsed
                )
            return {"type": "ok"}

    def complete(
        self,
        worker: str,
        lease_id,
        info: dict | None = None,
        drained: bool = False,
    ) -> dict:
        """Mark a leased unit tentatively complete (``ok``, or
        ``stale`` when the lease was already re-leased).

        ``drained=True`` means the worker's records arrived inline with
        this report and were already merged into the plan's store —
        the worker owes nothing, so it is not marked dirty.
        """
        with self._lock:
            now = self.clock()
            self._last_seen[worker] = now
            st = self._stats(worker, now)
            st["completes"] += 1
            self._fold_telemetry(worker, st, info)
            self._expire(now)
            if drained:
                self._dirty.discard(worker)
            key = _lease_key(lease_id)
            lease = self._leases.get(key)
            if lease is None or lease["worker"] != worker:
                return {"type": "stale"}
            del self._leases[key]
            unit = lease["unit"]
            self._tentative.update(unit.cells)
            if not drained:
                self._dirty.add(worker)
            lease_seconds = max(now - lease["granted"], 0.0)
            st["units"] += 1
            st["cells"] += unit.n_cells
            st["lease_seconds"] += lease_seconds
            unit_seconds = lease_seconds
            if isinstance(info, dict):
                try:
                    st["records"] += int(info.get("records", 0))
                except (TypeError, ValueError):
                    pass
                try:
                    reported = float(info.get("unit_seconds", 0.0))
                    if reported > 0.0:
                        # the worker's own measurement excludes network
                        # and queueing — the honest per-unit cost
                        unit_seconds = reported
                except (TypeError, ValueError):
                    pass
            if unit_seconds > 0.0:
                # measured capacity: EMA of cells/second, the input to
                # proportional lease sizing
                throughput = unit.n_cells / unit_seconds
                prev = st["throughput"]
                st["throughput"] = (
                    throughput
                    if prev is None
                    else prev + 0.5 * (throughput - prev)
                )
            kernel = self._kernel_of.get(unit.group, "")
            # residual first: the ratio must judge the prediction the
            # scheduler actually used, before this unit's own timing
            # teaches the model
            record_residual(
                self.cost_model,
                kernel,
                unit.n_cells,
                unit_seconds,
                slow_factor=self.slow_unit_factor,
                worker=worker,
                group=unit.group,
            )
            self.cost_model.observe(kernel, unit.n_cells, unit_seconds)
            telemetry().histogram("repro_fleet_unit_seconds").observe(
                lease_seconds
            )
            log.info(
                "unit complete (lease %s, worker %s, group %d, "
                "%d cells, %.3fs)",
                key,
                worker,
                unit.group,
                unit.n_cells,
                lease_seconds,
                extra={
                    "worker": worker,
                    "lease": key,
                    "group": unit.group,
                    "cells": unit.n_cells,
                    "lease_seconds": lease_seconds,
                },
            )
            return {"type": "ok"}

    def drained(self, worker: str) -> None:
        """The worker's local records reached the coordinator store."""
        with self._lock:
            now = self.clock()
            self._last_seen[worker] = now
            self._stats(worker, now)["drains"] += 1
            self._dirty.discard(worker)

    def worker_dirty(self, worker: str) -> bool:
        """Whether ``worker`` still owes records (an un-drained store)."""
        with self._lock:
            return worker in self._dirty

    def holds_lease(self, worker: str) -> bool:
        """Whether ``worker`` currently holds an active lease."""
        with self._lock:
            self._expire(self.clock())
            return any(
                lease["worker"] == worker
                for lease in self._leases.values()
            )

    def grantable(self) -> bool:
        """Whether a lease request right now would receive a unit.

        The :class:`~repro.service.PlanQueue` calls this to shortlist
        plans before its fair-share pick; the end-of-plan
        coverage/requeue path is handled by the
        :meth:`poll_completion` housekeeping it runs first.
        """
        with self._lock:
            self._expire(self.clock())
            return not self.finished.is_set() and bool(self._pending)

    def predicted_remaining_seconds(self) -> float:
        """Cost-model prediction of the work not yet verified complete.

        Pending plus currently-leased units, priced by the ledger's
        cost model. Admission backpressure derives Retry-After from
        this; it is a prediction, not a promise.
        """
        with self._lock:
            if self.finished.is_set():
                return 0.0
            units = list(self._pending) + [
                lease["unit"] for lease in self._leases.values()
            ]
            return sum(
                self.cost_model.estimate(
                    self._kernel_of.get(unit.group, ""), unit.n_cells
                )
                for unit in units
            )

    def poll_completion(self) -> bool:
        """The end-of-plan coverage check (needs no worker request).

        Once nothing is pending or leased and no live worker owes
        records, the plan's store — the only ground truth — decides:
        every expected cell recorded sets ``finished``; cells found
        missing (their records died with a worker) requeue as units for
        whichever worker asks next. The queue runs this on every
        decision and on its housekeeping timer, so a plan whose last
        worker died right after delivering still terminates.
        """
        with self._lock:
            now = self.clock()
            self._expire(now)
            if self.finished.is_set():
                return True
            if self._pending or self._leases:
                return False
            if any(
                now - self._last_seen.get(w, 0.0) <= self.lease_timeout
                for w in self._dirty
            ):
                return False
            missing = self._expected - self.completed_cells()
            if not missing:
                self.finished.set()
                return True
            self._requeue_missing(missing)
            return False

    # ------------------------------------------------------------------
    def _grant(self, worker: str, now: float) -> dict:
        """Carve a capacity-sized piece off the costliest pending unit.

        Same-group requeued fragments re-merge first (one carve, one
        engine session, instead of re-leasing slivers); the carve size
        comes from :meth:`_target_cells` — proportional to the asking
        worker's measured share of fleet throughput, floored by the
        adaptive minimum. Each carve is a steal: work a single worker
        would otherwise own mid-group moves to the asker.
        ``min_unit_cells=0`` keeps whole-unit grants (the operator
        asked for whole-group leases).
        """
        self._pending = merge_group_units(self._pending)

        def cost(unit: WorkUnit) -> float:
            return self.cost_model.estimate(
                self._kernel_of.get(unit.group, ""), unit.n_cells
            )

        i = max(
            range(len(self._pending)),
            key=lambda j: (cost(self._pending[j]), -j),
        )
        pending_cells = sum(u.n_cells for u in self._pending)
        unit = self._pending.pop(i)
        if self.min_unit_cells > 0:
            target = self._target_cells(worker, unit, pending_cells, now)
            floor = max(self.min_unit_cells, 1)
            if target >= floor and unit.n_cells - target >= floor:
                unit, kept = unit.split_at(target)
                self._pending.append(kept)
                self._count_steal(worker, unit, kept)
        return self._issue(worker, unit, now)

    def _target_cells(
        self, worker: str, unit: WorkUnit, pending_cells: int, now: float
    ) -> int:
        """How many cells this worker's next lease should carry.

        Proportional capacity sizing: the worker's EMA throughput over
        the summed throughput of the live fleet, applied to the
        remaining pending cells. A worker with no sample yet gets a
        small probe (capacity-aware sizing needs a capacity
        measurement); no asker ever receives more than half of what
        remains, and sizing deliberately does not gate on how many
        workers exist — fleets grow at any moment and hellos race
        leases, so late joiners must still find work. The floor is the adaptive minimum: the cells
        amounting to ``target_unit_seconds`` of predicted work, capped
        by a fair share so small workloads still spread, and never
        below the configured ``min_unit_cells``.
        """
        floor = max(self.min_unit_cells, 1)
        live = [
            w
            for w, seen in self._last_seen.items()
            if now - seen <= self.lease_timeout
        ]
        n_live = max(len(live), 1)
        fair = max(pending_cells // n_live, 1)
        st = self._worker_stats.get(worker) or {}
        throughput = st.get("throughput")
        if throughput is None:
            probe = max(floor, fair // 4)
            return min(probe, unit.n_cells)
        known = [
            self._worker_stats[w]["throughput"]
            for w in live
            if self._worker_stats.get(w, {}).get("throughput")
        ]
        mean = sum(known) / len(known) if known else throughput
        total = sum(
            self._worker_stats.get(w, {}).get("throughput") or mean
            for w in live
        )
        share = throughput / total if total > 0 else 1.0 / n_live
        kernel = self._kernel_of.get(unit.group, "")
        adaptive = self.cost_model.min_cells_for(
            kernel, self.target_unit_seconds, floor
        )
        adaptive = max(min(adaptive, fair), floor)
        half = max(pending_cells // 2, 1)
        target = max(min(round(pending_cells * share), half), adaptive)
        return min(target, unit.n_cells)

    def _count_steal(
        self, worker: str, granted: WorkUnit, kept: WorkUnit
    ) -> None:
        """Account one split-for-an-asker (mid-group work movement)."""
        self.steals += 1
        telemetry().counter("repro_fleet_steals_total").inc()
        log.info(
            "steal: split group %d for %s (%d cells granted, "
            "%d kept pending)",
            granted.group,
            worker,
            granted.n_cells,
            kept.n_cells,
            extra={
                "worker": worker,
                "group": granted.group,
                "cells": granted.n_cells,
                "kept_cells": kept.n_cells,
            },
        )

    def _issue(self, worker: str, unit: WorkUnit, now: float) -> dict:
        """Record and serialize one granted lease."""
        lease_id = next(self._lease_ids)
        self._leases[lease_id] = {
            "unit": unit,
            "worker": worker,
            "deadline": now + self.lease_timeout,
            "granted": now,
        }
        self._stats(worker, now)["leases"] += 1
        log.info(
            "lease %d granted to %s (group %d, %d cells)",
            lease_id,
            worker,
            unit.group,
            unit.n_cells,
            extra={
                "worker": worker,
                "lease": lease_id,
                "group": unit.group,
                "cells": unit.n_cells,
            },
        )
        return {"type": "unit", "unit": unit.to_dict(), "lease": lease_id}

    def _expire(self, now: float) -> None:
        """Requeue every lease whose worker stopped heartbeating."""
        for lease_id, lease in list(self._leases.items()):
            if lease["deadline"] < now:
                del self._leases[lease_id]
                self._pending.append(lease["unit"])
                self.requeues += 1
                telemetry().counter("repro_fleet_requeues_total").inc()
                log.warning(
                    "lease %d expired (worker %s silent, group %d, "
                    "%d cells requeued)",
                    lease_id,
                    lease["worker"],
                    lease["unit"].group,
                    lease["unit"].n_cells,
                    extra={
                        "worker": lease["worker"],
                        "lease": lease_id,
                        "group": lease["unit"].group,
                        "cells": lease["unit"].n_cells,
                    },
                )

    def _requeue_missing(
        self, missing: set[tuple[str, str, int, str]]
    ) -> None:
        """Requeue cells whose records died with their worker, as one
        fresh unit per affected group."""
        self._tentative -= missing  # their completion was never real
        by_group: dict[int, list] = {}
        for cell in sorted(missing & self._expected):
            by_group.setdefault(self._group_of[cell], []).append(cell)
        for index in sorted(by_group):
            self._pending.append(WorkUnit(index, tuple(by_group[index])))
            self.requeues += 1
            telemetry().counter("repro_fleet_requeues_total").inc()
            log.warning(
                "requeued %d unrecorded cells of group %d (records "
                "died with their worker)",
                len(by_group[index]),
                index,
                extra={"group": index, "cells": len(by_group[index])},
            )

    def progress(self) -> dict:
        """Snapshot for logs and timeout diagnostics."""
        with self._lock:
            return {
                "pending_units": len(self._pending),
                "pending_cells": sum(u.n_cells for u in self._pending),
                "leased": len(self._leases),
                "tentative_cells": len(self._tentative),
                "workers": len(self._last_seen),
                "requeues": self.requeues,
                "steals": self.steals,
            }




def _lease_key(lease_id) -> int:
    try:
        return int(lease_id)
    except (TypeError, ValueError):
        return -1


class FleetExecutor:
    """Serve a plan's work units to TCP workers; the distributed executor.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` lets the OS pick (read it back from
        :attr:`address`, or via ``on_bound``).
    lease_timeout:
        Seconds of worker silence after which its unit is re-leased.
        Workers heartbeat at a quarter of this, so it bounds both the
        cost of a worker death and the end-of-run linger.
    poll_interval:
        Advertised to workers as their idle re-ask cadence.
    timeout:
        Optional overall wall-clock bound; :class:`FleetError` when the
        plan is still incomplete after this many seconds (``None``
        waits forever — workers may join at any time).
    min_unit_cells:
        Work-stealing floor (see :class:`UnitLedger`); ``0`` restores
        whole-group leases.
    target_unit_seconds:
        Per-lease wall-clock target (see :class:`UnitLedger`).
    slow_unit_factor:
        Residual-monitoring threshold (see :class:`UnitLedger`): a
        completed unit slower than ``factor × predicted`` emits a
        ``slow_unit`` trace event naming the worker.
    auth_token:
        Shared secret for the challenge–response handshake (see
        :mod:`repro.distributed.protocol`); defaults to
        ``REPRO_FLEET_TOKEN`` from the environment, and ``None``
        disables authentication.
    cost_snapshot:
        Optional sidecar path for the fleet cost model: a snapshot
        found there is restored on start — measured rates survive
        coordinator restarts, so the first grants of the next run are
        already capacity-informed — and the refined model is written
        back on finish. Missing or unreadable files mean a cold start,
        never an error.
    on_bound:
        Callback invoked with the bound ``(host, port)`` once the
        coordinator accepts connections (tests and the CLI use it to
        launch/announce workers).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.5,
        timeout: float | None = None,
        min_unit_cells: int = 1,
        target_unit_seconds: float = 1.0,
        slow_unit_factor: float = DEFAULT_SLOW_UNIT_FACTOR,
        auth_token: str | None = None,
        cost_snapshot: str | os.PathLike | None = None,
        on_bound: Callable[[tuple[str, int]], None] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self.min_unit_cells = int(min_unit_cells)
        self.target_unit_seconds = float(target_unit_seconds)
        self.slow_unit_factor = float(slow_unit_factor)
        self.auth_token = check_auth_token(
            auth_token
            if auth_token is not None
            else os.environ.get("REPRO_FLEET_TOKEN")
        )
        self.cost_snapshot = cost_snapshot
        self.on_bound = on_bound
        self.address: tuple[str, int] | None = None
        self.requeues = 0
        self.steals = 0
        # per-worker utilization view of the last execute() (see
        # PlanQueue.workers); also dumped as gauges and a
        # fleet_summary trace event on finish
        self.worker_stats: dict[str, dict] = {}
        # the fleet-wide cost model of the last execute()
        self.cost_model: UnitCostModel | None = None

    # ------------------------------------------------------------------
    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        _check_process_portable(runner, "fleet execution")
        if not workset.pending():
            return []
        # imported here: repro.service builds on this module's ledger
        from repro.service import PlanQueue, ServiceCoordinator

        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as spool:
            queue = PlanQueue(
                spool,
                lease_timeout=self.lease_timeout,
                min_unit_cells=self.min_unit_cells,
                target_unit_seconds=self.target_unit_seconds,
                slow_unit_factor=self.slow_unit_factor,
                cost_snapshot=self.cost_snapshot,
            )
            # the runner's `plan` root span adopted this context just
            # before calling us; every unit grant carries it, hanging
            # each worker's spans under that root
            job, _ = queue.submit(
                workset.plan.to_dict(),
                trace=telemetry().trace_context(),
                store=runner.store,
            )
            # one plan, then home: once it is recorded every worker —
            # including late joiners — is answered `bye`
            queue.retire()
            self.cost_model = queue.cost_model
            coordinator = ServiceCoordinator(
                queue,
                host=self.host,
                port=self.port,
                share_sessions=runner.share_sessions,
                poll_interval=self.poll_interval,
                auth_token=self.auth_token,
            )
            self.address = coordinator.start()
            # while serving, the observability HTTP endpoint (if any)
            # mirrors the read-only status message for this run
            status_provider = queue.status
            set_status_provider(status_provider)
            try:
                self._serve(queue, job)
            finally:
                clear_status_provider(status_provider)
                self.requeues = job.ledger.requeues
                self.steals = job.ledger.steals
                self.worker_stats = queue.workers()
                self._export_fleet_telemetry()
                coordinator.close()
                if self.cost_snapshot is not None:
                    queue.save_costs()
        return None

    def _serve(self, queue, job) -> None:
        """Wait for the plan to be recorded, then for the fleet to
        hear ``bye``."""
        if self.on_bound is not None:
            self.on_bound(self.address)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while not job.ledger.finished.wait(0.25):
            # completion is also visible from this side: a run whose
            # last worker died after delivering still terminates
            queue.housekeep()
            if deadline is not None and time.monotonic() >= deadline:
                raise FleetError(
                    f"fleet run timed out after {self.timeout}s: "
                    f"{job.ledger.progress()}"
                )
        queue.housekeep()
        # linger so idle workers polling for work hear `bye` instead of
        # a connection error, bounded by the same staleness rule that
        # presumes silent workers dead
        linger = time.monotonic() + self.lease_timeout
        while not queue.all_retired() and time.monotonic() < linger:
            time.sleep(0.05)

    def _export_fleet_telemetry(self) -> None:
        """Dump the fleet-wide view into the metric registry and sinks."""
        obs = telemetry()
        for worker, st in self.worker_stats.items():
            obs.gauge("repro_fleet_worker_busy_seconds", worker=worker).set(
                st["busy_seconds"]
            )
            obs.gauge("repro_fleet_worker_idle_seconds", worker=worker).set(
                st["idle_seconds"]
            )
            obs.counter("repro_fleet_worker_units_total", worker=worker).inc(
                st["units"]
            )
        obs.emit(
            {
                "event": "fleet_summary",
                "time": time.time(),
                "requeues": self.requeues,
                "steals": self.steals,
                "workers": self.worker_stats,
            }
        )
        log.info(
            "fleet finished: %d workers, %d requeues, %d steals",
            len(self.worker_stats),
            self.requeues,
            self.steals,
            extra={
                "workers": len(self.worker_stats),
                "requeues": self.requeues,
                "steals": self.steals,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FleetExecutor(host={self.host!r}, port={self.port}, "
            f"lease_timeout={self.lease_timeout}, "
            f"min_unit_cells={self.min_unit_cells})"
        )
