"""Tests for the unit-of-work layer (`repro.experiments.work`).

WorkUnit/WorkSet are the currency of execution: these tests pin the
algebra (split/merge round-trips, validation), the stable JSON wire
form, compile-from-store semantics (the one source of truth for "what
remains"), the scheduling helpers shared by the shard executor and the
fleet ledger, and the runner-facing invariant that a cell's record is
independent of which unit delivered it.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments import (
    BudgetSpec,
    CaseSpec,
    ExperimentPlan,
    ExperimentRunner,
    ResultsStore,
    WorkSet,
    WorkUnit,
    record_key,
)
from repro.experiments.store import parity_view
from repro.experiments.work import assign_units_by_cost, split_units


def _plan(**overrides) -> ExperimentPlan:
    values = dict(
        name="work-test",
        systems=("ess", "ess-ns"),
        cases=(
            CaseSpec("grassland", size=20, steps=2),
            CaseSpec("river_gap", size=20, steps=2),
        ),
        seeds=(0, 1),
        backends=("vectorized",),
        budget=BudgetSpec(population=8, generations=2),
    )
    values.update(overrides)
    return ExperimentPlan(**values)


def _unit(n: int, group: int = 0) -> WorkUnit:
    return WorkUnit(
        group, tuple(("ess", "grassland", seed, "reference") for seed in range(n))
    )


class TestWorkUnit:
    def test_validation(self):
        with pytest.raises(ReproError, match="at least one cell"):
            WorkUnit(0, ())
        with pytest.raises(ReproError, match=">= 0"):
            WorkUnit(-1, (("ess", "grassland", 0, "reference"),))
        with pytest.raises(ReproError, match="duplicate"):
            WorkUnit(
                0,
                (
                    ("ess", "grassland", 0, "reference"),
                    ("ess", "grassland", 0, "reference"),
                ),
            )
        with pytest.raises(ReproError, match="malformed"):
            WorkUnit(0, (("ess", "grassland"),))  # truncated cell

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_split_merge_round_trip(self, n):
        unit = _unit(n)
        first, second = unit.split()
        # halves: disjoint, ordered, first no smaller, cover everything
        assert first.n_cells == (n + 1) // 2
        assert first.cells + second.cells == unit.cells
        assert not set(first.cells) & set(second.cells)
        assert first.merge(second) == unit

    def test_single_cell_unit_cannot_split(self):
        with pytest.raises(ReproError, match="single-cell"):
            _unit(1).split()

    def test_merge_rejects_cross_group_and_overlap(self):
        with pytest.raises(ReproError, match="different groups"):
            _unit(2, group=0).merge(_unit(2, group=1))
        with pytest.raises(ReproError, match="overlapping"):
            _unit(3).merge(_unit(2))

    def test_wire_round_trip(self):
        unit = _unit(3, group=2)
        payload = unit.to_dict()
        assert payload == {
            "group": 2,
            "cells": [["ess", "grassland", s, "reference"] for s in range(3)],
        }
        assert WorkUnit.from_dict(payload) == unit
        with pytest.raises(ReproError, match="malformed work unit"):
            WorkUnit.from_dict({"group": 0})


class TestWorkSet:
    def test_compile_covers_grid_in_group_order(self):
        plan = _plan()
        workset = WorkSet.compile(plan)
        assert [u.group for u in workset.units] == [0, 1]
        assert workset.total_cells == plan.n_runs
        cells = [c for u in workset.units for c in u.cells]
        assert cells == [k.as_tuple() for k in plan.runs()]

    def test_compile_excludes_done_and_drops_empty_groups(self):
        plan = _plan()
        (_, keys0), (_, keys1) = plan.groups()
        done = {k.as_tuple() for k in keys0} | {keys1[0].as_tuple()}
        workset = WorkSet.compile(plan, done)
        assert len(workset) == 1
        (unit,) = workset.pending()
        assert unit.group == 1
        assert unit.cells == tuple(
            k.as_tuple() for k in keys1[1:]
        )

    def test_validation_rejects_foreign_and_overlapping_cells(self):
        plan = _plan()
        with pytest.raises(ReproError, match="has 2 groups"):
            WorkSet(plan, (WorkUnit(7, (("ess", "grassland", 0, "vectorized"),)),))
        with pytest.raises(ReproError, match="outside that group"):
            # river_gap cell filed under the grassland group
            WorkSet(plan, (WorkUnit(0, (("ess", "river_gap", 0, "vectorized"),)),))
        cell = ("ess", "grassland", 0, "vectorized")
        with pytest.raises(ReproError, match="more than one work unit"):
            WorkSet(plan, (WorkUnit(0, (cell,)), WorkUnit(0, (cell,))))

    def test_wire_round_trip(self):
        plan = _plan()
        workset = WorkSet(plan, tuple(split_units(WorkSet.compile(plan).units, 4)))
        clone = WorkSet.from_dict(workset.to_dict())
        assert clone == workset
        assert clone.plan == plan


class TestScheduling:
    def test_split_units_reaches_target_and_respects_floor(self):
        units = [_unit(8)]
        assert [u.n_cells for u in split_units(units, 1)] == [8]
        split = split_units(units, 4)
        assert sorted(u.n_cells for u in split) == [2, 2, 2, 2]
        # floor: with min_unit_cells=2 an 8-cell unit yields 4 at most
        assert len(split_units(units, 16, min_unit_cells=2)) == 4
        # 0 disables splitting entirely (whole-group behaviour)
        assert split_units(units, 16, min_unit_cells=0) == units
        # unsplittable singles stop the loop instead of spinning
        assert len(split_units(units, 100)) == 8

    def test_split_units_preserves_cells_exactly(self):
        units = [_unit(7, group=0), _unit(3, group=1)]
        split = split_units(units, 6)
        assert sorted(c for u in split for c in u.cells) == sorted(
            c for u in units for c in u.cells
        )

    def test_assign_units_balances_and_never_leaves_empty(self):
        """At one rate for every group the cost assignment balances
        cells."""

        def assign(units, parts):
            return assign_units_by_cost(units, parts, lambda group: 1.0)

        units = split_units([_unit(8)], 4) + [_unit(2, group=1)]
        buckets = assign(units, 3)
        assert len(buckets) == 3
        assert all(buckets)
        loads = sorted(sum(u.n_cells for u in b) for b in buckets)
        assert loads == [2, 4, 4]
        # fewer units than buckets: no empties
        assert len(assign([_unit(4)], 5)) == 1
        assert assign([], 3) == []
        with pytest.raises(ReproError):
            assign(units, 0)


class TestRunUnits:
    def test_unit_boundaries_do_not_change_records(self, tmp_path):
        """The redesign's core invariant: the same plan executed as
        whole groups and as single-cell units records identical bytes
        in the parity view, and resume dedupes across granularities."""
        plan = _plan(cases=(CaseSpec("grassland", size=20, steps=2),))
        whole = ResultsStore(tmp_path / "whole.jsonl")
        ExperimentRunner(store=whole).run(plan)

        sliced = ResultsStore(tmp_path / "sliced.jsonl")
        runner = ExperimentRunner(store=sliced)
        workset = WorkSet.compile(plan)
        singles = split_units(workset.pending(), plan.n_runs)
        assert all(u.n_cells == 1 for u in singles)
        # deliver the cells one unit at a time, in shuffled order
        for unit in reversed(singles):
            runner.run_units(plan, [unit], sliced.completed())
        norm = lambda store: [
            parity_view(r) for r in sorted(store.records(), key=record_key)
        ]
        assert norm(sliced) == norm(whole)

    def test_run_units_rejects_foreign_cells_and_bad_groups(self, tmp_path):
        plan = _plan()
        runner = ExperimentRunner()
        with pytest.raises(ReproError, match="has 2 groups"):
            runner.run_units(
                plan,
                [WorkUnit(9, (("ess", "grassland", 0, "vectorized"),))],
                set(),
            )
        with pytest.raises(ReproError, match="outside that group"):
            runner.run_units(
                plan,
                [WorkUnit(0, (("ess", "grassland", 99, "vectorized"),))],
                set(),
            )
