"""Distributed experiment execution: executors, fleet, aggregation.

Makes "who executes a pending :class:`~repro.experiments.work.WorkUnit`"
a pluggable policy behind the :class:`WorkExecutor` protocol — the seam
at the :class:`~repro.experiments.runner.ExperimentRunner`:

* :class:`InlineExecutor` — in-process, sequential (the default).
* :class:`ProcessShardExecutor` — local ``multiprocessing`` fan-out of
  units over a shared JSONL store (``shards=N``), splitting big units
  and packing them by predicted cost so every shard gets work.
* :class:`FleetExecutor` — a TCP coordinator
  (``repro experiments serve-coordinator``) leasing units to remote
  ``repro experiments worker`` processes, with cell-level work stealing
  (pending units split for an asking worker, sized by its measured
  throughput), heartbeat/lease-timeout requeue, optional shared-secret
  HMAC authentication, worker-local stores and first-writer-wins
  merging. It runs the service's coordinator
  (:mod:`repro.service`) over a one-plan queue: one wire, one policy.

Whatever the executor, resume stays the store's ``(system, case, seed,
backend)`` contract: a run interrupted anywhere resumes under any
executor *and any unit granularity*, and all executors produce
identical store contents (modulo wall-clock timings) for the same plan
and seeds — unit boundaries never change a cell's bytes.
"""

from repro.distributed.coordinator import FleetExecutor, UnitLedger
from repro.distributed.executors import (
    InlineExecutor,
    ProcessShardExecutor,
    WorkExecutor,
)
from repro.distributed.protocol import FleetAuthError, FleetError
from repro.distributed.worker import backoff_delay, parse_address, run_worker

__all__ = [
    "FleetAuthError",
    "FleetError",
    "FleetExecutor",
    "InlineExecutor",
    "ProcessShardExecutor",
    "UnitLedger",
    "WorkExecutor",
    "backoff_delay",
    "parse_address",
    "run_worker",
]
