"""Pluggable work executors: who runs a plan's pending work units.

The :class:`~repro.experiments.runner.ExperimentRunner` decides *what*
is pending (resume bookkeeping, config-digest checks, record ordering)
and compiles it into a :class:`~repro.experiments.work.WorkSet` of
:class:`~repro.experiments.work.WorkUnit`\\ s — a ``(case, backend)``
group index plus an explicit cell subset. An executor decides *where*
those units run, and is free to reshape them (split big units across
idle workers, hand out single cells) because unit boundaries never
change any cell's result. The three built-in policies cover the
scaling ladder:

* :class:`InlineExecutor` — every unit in the calling process, one
  after another (the default, and the only executor that works without
  a results store).
* :class:`ProcessShardExecutor` — units fanned out to local
  ``multiprocessing`` processes that meet only through the shared
  JSONL store; units are pre-split (down to ``min_unit_cells``) and
  packed into near-equal-**cost** shard assignments under a
  plan-seeded :class:`~repro.experiments.costs.UnitCostModel`, so a
  plan with fewer groups than shards still occupies every shard and
  shards finish together.
* :class:`~repro.distributed.coordinator.FleetExecutor` — units leased
  to remote worker processes over TCP with cell-level work stealing,
  lease-timeout requeue and store merging (see
  :mod:`repro.distributed.coordinator`).

Executors receive the runner itself: they call back into
:meth:`ExperimentRunner.run_units` (directly, or from a shard/worker
process that rebuilt an equivalent runner) so resume semantics are the
store's ``(system, case, seed, backend)`` contract under every policy.
An executor returns the freshly produced records, or ``None`` when its
work reached the store through other processes and the runner should
re-read it.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError
from repro.experiments.costs import UnitCostModel, plan_cost_model
from repro.experiments.work import (
    WorkSet,
    WorkUnit,
    assign_units_by_cost,
    split_units_by_cost,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import ExperimentRunner

__all__ = [
    "InlineExecutor",
    "ProcessShardExecutor",
    "WorkExecutor",
    "shard_assignments",
]


@runtime_checkable
class WorkExecutor(Protocol):
    """Execution policy for a plan's pending work units."""

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        """Run every pending unit; record through the runner.

        Returns the fresh records, or ``None`` when they were appended
        to the runner's store by other processes (the runner re-reads
        the store in that case).
        """


def shard_assignments(
    pending: Sequence[int], shards: int
) -> list[list[int]]:
    """Round-robin split of pending group indices into shard work lists.

    Kept for group-index callers; unit-level shard planning (the shard
    executor's path) is
    :func:`repro.experiments.work.assign_units_by_cost` over
    :meth:`WorkSet.pending`. Never yields an empty assignment:
    asking for more shards than there are pending groups simply
    produces fewer shards, instead of spawning worker processes with
    nothing to do.
    """
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    assignments = [list(pending[s::shards]) for s in range(shards)]
    return [a for a in assignments if a]


def _check_process_portable(runner: "ExperimentRunner", what: str) -> None:
    """Refuse runner features that cannot cross process boundaries."""
    from repro.engine import EngineSession

    if runner.store is None:
        raise ReproError(
            f"{what} needs a ResultsStore — the executing processes "
            "meet only through the store file"
        )
    if (
        runner.progress is not None
        or runner.session_factory is not EngineSession
    ):
        raise ReproError(
            "progress callbacks and custom session factories do not "
            f"cross process boundaries; use the inline executor for {what}"
        )


class InlineExecutor:
    """Run every pending unit in the calling process (the default)."""

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        # compile already excluded recorded cells, so nothing is done
        return runner.run_units(workset.plan, workset.pending(), set())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "InlineExecutor()"


class ProcessShardExecutor:
    """Fan pending units out to local shard processes.

    Parameters
    ----------
    shards:
        Upper bound on the number of worker processes; the actual count
        never exceeds the number of schedulable units (empty shards are
        skipped, not spawned).
    min_unit_cells:
        Split floor when dividing big units so every shard gets work:
        a unit splits only while both parts keep at least this many
        cells. ``0`` disables splitting (whole-group shards, the
        pre-WorkUnit behaviour). Splitting moves only *where* cells
        run, never what they record.
    cost_model:
        Explicit :class:`~repro.experiments.costs.UnitCostModel`
        (tests, or a model saved from a previous run); defaults to one
        seeded from the plan's budgets at execute time.

    Units are pre-split and packed by *predicted cost* — near-equal-cost
    chunks, LPT assignment plus local swap/shift refinement
    (:func:`repro.experiments.work.split_units_by_cost` /
    :func:`~repro.experiments.work.assign_units_by_cost`) — so shards
    finish together even when groups differ wildly in cost.
    """

    def __init__(
        self,
        shards: int,
        min_unit_cells: int = 1,
        cost_model: UnitCostModel | None = None,
    ) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if min_unit_cells < 0:
            raise ReproError(
                f"min_unit_cells must be >= 0, got {min_unit_cells}"
            )
        self.shards = shards
        self.min_unit_cells = min_unit_cells
        self.cost_model = cost_model

    def execute(
        self,
        runner: "ExperimentRunner",
        workset: WorkSet,
    ) -> list[dict] | None:
        _check_process_portable(runner, "sharded execution")
        from repro.experiments.store import HAS_APPEND_LOCK

        if not HAS_APPEND_LOCK:
            raise ReproError(
                "sharded execution needs lock-serialised store appends, "
                "unavailable on this platform; use the inline executor"
            )
        model = self.cost_model or plan_cost_model(workset.plan)
        kernels = {
            index: UnitCostModel.kernel_key(case.name, backend)
            for index, ((case, backend), _keys) in enumerate(
                workset.plan.groups()
            )
        }

        def rate_of(group: int) -> float:
            return model.rate(kernels.get(group, ""))

        pending = workset.pending()
        if self.min_unit_cells > 0:
            units = split_units_by_cost(
                pending, self.shards, rate_of, self.min_unit_cells
            )
        else:
            units = list(pending)  # whole-group shards, as asked
        assignments = assign_units_by_cost(units, self.shards, rate_of)
        if not units:
            return []
        from repro.obs import telemetry

        trace = telemetry().trace_context()
        workers = [
            multiprocessing.Process(
                target=_run_shard,
                args=(
                    workset.plan.to_dict(),
                    [unit.to_dict() for unit in assignment],
                    str(runner.store.path),
                    runner.share_sessions,
                    trace,
                ),
            )
            for assignment in assignments
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        failed = [w.exitcode for w in workers if w.exitcode != 0]
        if failed:
            raise ReproError(
                f"{len(failed)} of {len(workers)} experiment shards failed "
                f"(exit codes {failed}); re-run to resume the missing cells"
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProcessShardExecutor(shards={self.shards}, "
            f"min_unit_cells={self.min_unit_cells})"
        )


def _run_shard(
    plan_payload: dict,
    unit_payloads: Sequence[dict],
    store_path: str,
    share_sessions: bool,
    trace: dict | None = None,
) -> None:
    """Shard-process entry point: execute a subset of a plan's units.

    ``trace`` is the parent process's trace context (trace id + the
    ``plan`` root span id); adopting it keeps every shard's spans on
    the same cross-process trace tree. Explicit adoption matters under
    the ``spawn`` start method, where nothing is inherited; under
    ``fork`` it also refreshes the span-id prefix so shard span ids
    never collide with the parent's.
    """
    from repro.experiments.plan import ExperimentPlan
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultsStore
    from repro.obs import telemetry

    if isinstance(trace, dict) and trace.get("trace_id"):
        telemetry().adopt_trace(
            trace.get("trace_id"), trace.get("parent_span")
        )
    plan = ExperimentPlan.from_dict(plan_payload)
    units = [WorkUnit.from_dict(payload) for payload in unit_payloads]
    store = ResultsStore(store_path)
    runner = ExperimentRunner(store=store, share_sessions=share_sessions)
    runner.run_units(plan, units, store.completed())
