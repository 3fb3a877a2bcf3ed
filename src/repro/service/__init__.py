"""Always-on prediction service: many plans, one worker fleet.

Everything below :mod:`repro.experiments` answers "run *this plan* to
completion". This package answers the serving question instead: keep a
worker fleet warm and feed it plans as tenants submit them —

* :class:`PlanQueue` — the coordinator state: one
  :class:`~repro.distributed.coordinator.UnitLedger` and one
  :class:`~repro.experiments.store.ResultsStore` per submitted plan,
  arbitrated by cost-model-weighted deficit-round-robin fair share
  (per-tenant ``priority``), with keyed idempotent job ids, admission
  backpressure, and a spool directory that survives restarts;
* :class:`ServiceCoordinator` — the worker-facing TCP endpoint
  speaking the fleet wire protocol (``unit`` grants name their plan
  and ship its payload inline);
* :class:`ServiceGateway` — the client-facing asyncio HTTP API
  (submit, poll, stream records with resume-by-offset, cancel, drain
  workers, ``/metrics``);
* :class:`PredictionService` — the assembled service behind
  ``repro serve``.

The service schedules; it never simulates. Every record a plan
produces through the service is bitwise-identical (in the
:func:`~repro.experiments.store.parity_view`) to the record the same
plan produces inline — whichever tenants it shared the fleet with.

The same two pieces also run every one-plan fleet
(:class:`~repro.distributed.coordinator.FleetExecutor`, ``repro
experiments serve-coordinator``): a queue holding that single plan,
served until it is recorded and then retired.
"""

from repro.service.app import PredictionService
from repro.service.coordinator import ServiceCoordinator
from repro.service.gateway import ServiceGateway
from repro.service.queue import (
    AdmissionError,
    PlanJob,
    PlanQueue,
    ServiceError,
    UnknownPlanError,
    plan_job_id,
)

__all__ = [
    "AdmissionError",
    "PlanJob",
    "PlanQueue",
    "PredictionService",
    "ServiceCoordinator",
    "ServiceError",
    "ServiceGateway",
    "UnknownPlanError",
    "plan_job_id",
]
