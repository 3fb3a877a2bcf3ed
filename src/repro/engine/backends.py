"""Pluggable execution backends for the batched simulation engine.

A backend turns a genome batch into Eq. 3 fitness values (and burned
maps) for one prediction step. Three implementations ship:

* ``reference`` — wraps today's per-scenario
  :class:`~repro.firelib.simulator.FireSimulator`; the semantics every
  other backend must reproduce bit-for-bit.
* ``vectorized`` — batches the Rothermel/ellipse math across the whole
  genome batch (one NumPy pass for the directional travel times of
  every spatially-uniform scenario), deduplicates bitwise-equal
  genomes, and runs the propagation through the flat-index Dijkstra
  kernels of :mod:`repro.engine.fastprop`.
* ``process`` — fans the batch out to a multiprocess pool layered on
  :class:`~repro.parallel.executor.ProcessPoolEvaluator`; each worker
  receives the step spec once (copy-on-write shared rasters under the
  ``fork`` start method) and evaluates its chunk with the vectorized
  kernel.

Backends register themselves in a name → class registry so new
execution strategies (GPU kernels, remote workers) plug in without
touching the engine facade.
"""

from __future__ import annotations

import math
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.fitness import batch_jaccard, jaccard_fitness
from repro.core.scenario import ParameterSpace
from repro.engine import native
from repro.engine.fastprop import FlatGrid
from repro.errors import ReproError, SimulationError
from repro.firelib.ellipse import eccentricity_from_effective_wind, ros_at_azimuth
from repro.firelib.moisture import Moisture
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.firelib.rothermel import ROS_EPSILON, FuelBed, spread
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.obs import telemetry
from repro.units import METERS_TO_FEET, MPH_TO_FTMIN

#: Element budget for the three batched ``(chunk, n_classes)`` field
#: arrays of the heterogeneous-raster path (float64: ~32 MB per chunk);
#: the per-genome ``(D, bh, bw)`` travel block is not chunked.
_RASTER_BLOCK_ELEMENTS = 4_000_000

__all__ = [
    "StepSpec",
    "EngineBackend",
    "KernelCostModel",
    "ReferenceBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "register_backend",
    "backend_names",
    "create_backend",
    "kernel_costs",
    "reset_kernel_costs",
]

#: Environment escape hatch pinning the heterogeneous-raster propagation
#: kernel: ``table`` forces ``run_table``, ``raster`` forces
#: ``run_raster``, anything else (or unset) leaves the adaptive model in
#: charge. Both kernels are bitwise-equivalent, so forcing is safe — the
#: hatch exists for tests and for debugging cost-model regressions.
FORCE_KERNEL_ENV = "repro_engine_force_kernel"


class KernelCostModel:
    """Measured per-unit kernel costs, EMA-smoothed over prior calls.

    The heterogeneous-raster path can propagate one genome through
    either ``run_table`` (edge lists over the ``u`` terrain classes:
    setup ~ ``u·D`` plus the Dijkstra sweep) or ``run_raster``
    (flattened per-cell planes: setup ~ ``box·D``). Which is faster
    depends on the machine, the box size and the class count — a fixed
    class/box ratio guesses it, this model *measures* it: every call
    updates an exponential moving average of that kernel's seconds per
    work unit, and the next choice takes the cheaper prediction.

    Until a kernel has a sample the model first defers to the static
    ratio rule, then measures the still-unsampled kernel once. Every
    ``probe_interval``-th adaptive choice deliberately takes the
    *other* kernel, so one outlier measurement (a GC pause inflating
    an EMA) cannot exclude a kernel for the rest of the process — its
    rate keeps refreshing at a bounded ~1/``probe_interval`` cost.
    Both kernels produce bitwise-identical times, so exploration never
    changes results.
    """

    def __init__(self, alpha: float = 0.2, probe_interval: int = 64) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError(f"EMA alpha must be in (0, 1], got {alpha}")
        if probe_interval < 0:
            raise ReproError(
                f"probe_interval must be >= 0, got {probe_interval}"
            )
        self.alpha = alpha
        self.probe_interval = probe_interval
        self.rates: dict[str, float] = {}
        self._choices = 0

    @staticmethod
    def work(kernel: str, n_classes: int, box_cells: int, n_dirs: int) -> int:
        """The cost-driving unit count of one kernel invocation."""
        if kernel == "table":
            return n_classes * n_dirs + box_cells
        return box_cells * n_dirs

    def observe(
        self,
        kernel: str,
        n_classes: int,
        box_cells: int,
        n_dirs: int,
        seconds: float,
    ) -> None:
        """Fold one measured invocation into the kernel's EMA rate."""
        work = self.work(kernel, n_classes, box_cells, n_dirs)
        if work <= 0 or seconds <= 0.0:
            return
        obs = telemetry()
        impl = native.impl()
        obs.histogram(
            "repro_engine_kernel_seconds", kernel=kernel, impl=impl
        ).observe(seconds)
        obs.counter(
            "repro_engine_kernel_calls_total", kernel=kernel, impl=impl
        ).inc()
        rate = seconds / work
        prev = self.rates.get(kernel)
        self.rates[kernel] = (
            rate if prev is None else prev + self.alpha * (rate - prev)
        )

    def choose(self, n_classes: int, box_cells: int, n_dirs: int) -> str:
        """Pick the predicted-cheaper kernel for the given shape."""
        forced = os.environ.get(FORCE_KERNEL_ENV, "").strip().lower()
        if forced in ("table", "raster"):
            return forced
        table_rate = self.rates.get("table")
        raster_rate = self.rates.get("raster")
        if table_rate is None and raster_rate is None:
            # un-primed: the static ratio rule (run_table pays O(u·D)
            # setup, run_raster O(box·D) — take the table only when it
            # is clearly the smaller)
            return "table" if 4 * n_classes <= box_cells else "raster"
        if table_rate is None:
            return "table"
        if raster_rate is None:
            return "raster"
        table_cost = table_rate * self.work("table", n_classes, box_cells, n_dirs)
        raster_cost = raster_rate * self.work(
            "raster", n_classes, box_cells, n_dirs
        )
        best = "table" if table_cost <= raster_cost else "raster"
        self._choices += 1
        if self.probe_interval and self._choices % self.probe_interval == 0:
            return "raster" if best == "table" else "table"
        return best

    def snapshot(self) -> dict[str, float]:
        """Serializable copy of the measured rates (fleet cost reports).

        Workers attach this to their wire telemetry so a coordinator's
        :class:`~repro.experiments.costs.UnitCostModel` can seed unit
        cost estimates from engine measurements made anywhere in the
        fleet.
        """
        return dict(self.rates)

    def restore(self, snapshot) -> None:
        """Fold a :meth:`snapshot` back in (existing rates EMA-merge).

        Unknown kernels adopt the snapshot rate outright; already
        measured kernels move toward it by ``alpha``, so restoring a
        stale snapshot cannot erase fresher local measurements.
        """
        if not isinstance(snapshot, dict):
            return
        for kernel, rate in snapshot.items():
            try:
                rate = float(rate)
            except (TypeError, ValueError):
                continue
            if rate <= 0.0:
                continue
            prev = self.rates.get(kernel)
            self.rates[str(kernel)] = (
                rate if prev is None else prev + self.alpha * (rate - prev)
            )


#: Process-wide cost model: measurements survive step and session
#: boundaries, so later steps start from calibrated rates.
_KERNEL_COSTS = KernelCostModel()


def kernel_costs() -> KernelCostModel:
    """The process-wide kernel cost model (snapshot it for the wire)."""
    return _KERNEL_COSTS


def reset_kernel_costs() -> None:
    """Drop all measured kernel rates (tests and benchmarks)."""
    _KERNEL_COSTS.rates.clear()
    _KERNEL_COSTS._choices = 0


@dataclass(frozen=True)
class StepSpec:
    """Everything a backend needs to evaluate one prediction step.

    The picklable, engine-level equivalent of
    :class:`repro.systems.problem.PredictionStepProblem` (which wraps
    one of these): terrain, the burned region the simulation restarts
    from, the real burned region it is scored against, and the step
    horizon.
    """

    terrain: Terrain
    start_burned: np.ndarray
    real_burned: np.ndarray
    horizon: float
    space: ParameterSpace
    n_neighbors: int = 8

    @classmethod
    def from_problem(cls, problem) -> "StepSpec":
        """Build a spec from anything shaped like a step problem.

        ``problem`` must expose ``terrain``, ``start_burned``,
        ``real_burned``, ``horizon``, ``space`` and ``n_neighbors`` —
        :class:`repro.systems.problem.PredictionStepProblem` does. The
        single construction point shared by the engine facade and the
        run-scoped session, so a new spec field cannot silently go
        missing on one path.
        """
        if isinstance(problem, cls):
            return problem
        return cls(
            terrain=problem.terrain,
            start_burned=problem.start_burned,
            real_burned=problem.real_burned,
            horizon=problem.horizon,
            space=problem.space,
            n_neighbors=problem.n_neighbors,
        )

    def __post_init__(self) -> None:
        start = np.asarray(self.start_burned, dtype=bool)
        real = np.asarray(self.real_burned, dtype=bool)
        if start.shape != self.terrain.shape:
            raise SimulationError(
                f"start_burned shape {start.shape} != terrain {self.terrain.shape}"
            )
        if real.shape != self.terrain.shape:
            raise SimulationError(
                f"real_burned shape {real.shape} != terrain {self.terrain.shape}"
            )
        if not start.any():
            raise SimulationError("start_burned must contain at least one cell")
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise SimulationError(
                f"horizon must be a positive finite time: {self.horizon}"
            )
        object.__setattr__(self, "start_burned", start)
        object.__setattr__(self, "real_burned", real)


class EngineBackend(ABC):
    """One execution strategy for a step's genome batches."""

    #: Registry name (set by :func:`register_backend`).
    name: str = "?"

    def __init__(self, spec: StepSpec) -> None:
        self.spec = spec

    @abstractmethod
    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Eq. 3 fitness of each genome row, shape ``(n,)``."""

    @abstractmethod
    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Simulated burned masks at the step end, shape ``(n, H, W)``."""

    def close(self) -> None:
        """Release any held resources (idempotent; default no-op)."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[EngineBackend]] = {}


def register_backend(name: str):
    """Class decorator adding a backend to the registry under ``name``."""

    def deco(cls: type[EngineBackend]) -> type[EngineBackend]:
        if name in _REGISTRY:
            raise ReproError(f"backend {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, spec: StepSpec, **kwargs) -> EngineBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown engine backend {name!r}; choose from {backend_names()}"
        ) from None
    return cls(spec, **kwargs)


# ----------------------------------------------------------------------
# reference
# ----------------------------------------------------------------------
@register_backend("reference")
class ReferenceBackend(EngineBackend):
    """Per-scenario evaluation through :class:`FireSimulator`.

    This is exactly the pre-engine Worker loop: decode one genome,
    restart the fire from the step-start region, score the burned map.
    """

    def __init__(self, spec: StepSpec) -> None:
        super().__init__(spec)
        self._simulator = FireSimulator(spec.terrain, n_neighbors=spec.n_neighbors)

    def _burned_map(self, genome: np.ndarray) -> np.ndarray:
        scenario = self.spec.space.decode(genome)
        result = self._simulator.simulate_from_burned(
            scenario, self.spec.start_burned, self.spec.horizon
        )
        return result.burned()

    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        out = np.empty(genomes.shape[0], dtype=np.float64)
        for i, g in enumerate(genomes):
            out[i] = jaccard_fitness(
                self.spec.real_burned, self._burned_map(g), self.spec.start_burned
            )
        return out

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        maps = np.empty((genomes.shape[0], *self.spec.terrain.shape), dtype=bool)
        for i, g in enumerate(genomes):
            maps[i] = self._burned_map(g)
        return maps


# ----------------------------------------------------------------------
# vectorized
# ----------------------------------------------------------------------
@register_backend("vectorized")
class VectorizedBackend(EngineBackend):
    """Batched NumPy kernel + flat-index Dijkstra propagation.

    For spatially-uniform scenarios (no fuel/slope/aspect rasters) the
    per-cell spread fields collapse to per-genome scalars, so the
    directional travel times of the **whole batch** are produced in one
    ``(n, D)`` NumPy pass. Heterogeneous slope/aspect rasters keep
    per-cell fields, but the Rothermel/ellipse math is vectorized over
    the **genome axis** with the rasters broadcast — one NumPy pass per
    fuel-bed group instead of one per genome — and the propagation runs
    through the flat-index Dijkstra kernels. Bitwise-identical rows are
    simulated once and broadcast back.
    """

    def __init__(self, spec: StepSpec) -> None:
        super().__init__(spec)
        terrain = spec.terrain
        self._offsets = stencil(spec.n_neighbors)
        self._blocked = terrain.blocked_mask()
        cell_ft = terrain.cell_size * METERS_TO_FEET
        self._cell_ft = cell_ft
        self._azimuths = np.array(
            [_offset_azimuth_deg(dr, dc) for dr, dc in self._offsets]
        )
        self._distances = np.array(
            [cell_ft * math.hypot(dr, dc) for dr, dc in self._offsets]
        )
        # Per-cell variation decides the propagation mode: scalar
        # scenarios collapse to D weights, fuel-only rasters to a
        # (fuel code × D) table, anything with slope/aspect rasters
        # keeps the full (D, H, W) travel array.
        if terrain.slope is None and terrain.aspect is None:
            self._mode = "uniform" if terrain.fuel is None else "fuel_table"
        else:
            self._mode = "raster"
        # Padded flat grid + seeded-state template, shared by the whole
        # batch: geometry and the step-start burned region are fixed.
        # Seed cells in row-major order, simulate_from_burned's ordering.
        seed_rows, seed_cols = np.nonzero(spec.start_burned)
        self._seed_cells = [
            (int(r), int(c)) for r, c in zip(seed_rows, seed_cols)
        ]
        self._grid = FlatGrid(terrain.shape, self._offsets, self._blocked)
        self._seeded = self._grid.seed(self._seed_cells)
        self._seed_bbox = (
            (int(seed_rows.min()), int(seed_rows.max())),
            (int(seed_cols.min()), int(seed_cols.max())),
        )
        # Reachability-clipped FlatGrids of the heterogeneous path,
        # keyed by box bounds (reused across genomes and batches).
        self._box_grids: dict[tuple[int, int, int, int], tuple] = {}
        #: Heterogeneous-path propagation calls by chosen kernel.
        self.kernel_calls: dict[str, int] = {"table": 0, "raster": 0}
        if self._mode == "fuel_table":
            self._codes = [int(c) for c in np.unique(terrain.fuel)]
            pad, width = self._grid.pad, self._grid.width
            classes = np.zeros(
                (terrain.rows + 2 * pad, width), dtype=np.int64
            )
            classes[pad : pad + terrain.rows, pad : pad + terrain.cols] = (
                np.searchsorted(self._codes, terrain.fuel)
            )
            self._class_flat = classes.reshape(-1).tolist()
        elif self._mode == "raster":
            # Deduplicate cells into terrain classes: every per-cell
            # quantity of the Rothermel/ellipse math depends only on
            # the (fuel, slope, aspect) tuple, so fields and travel
            # times are computed once per distinct tuple and gathered
            # back — typically tens of classes for thousands of cells
            # on DEM-derived (quantized) rasters.
            columns = []
            for raster in (terrain.fuel, terrain.slope, terrain.aspect):
                if raster is not None:
                    columns.append(
                        np.asarray(raster, dtype=np.float64).reshape(-1)
                    )
            uniq, inverse = np.unique(
                np.stack(columns, axis=1), axis=0, return_inverse=True
            )
            self._class_of_cell = inverse.reshape(terrain.shape)
            col = 0
            if terrain.fuel is not None:
                self._class_fuel = uniq[:, col].astype(np.int64)
                col += 1
            else:
                self._class_fuel = None
            if terrain.slope is not None:
                self._class_slope = uniq[:, col]
                col += 1
            else:
                self._class_slope = None
            self._class_aspect = uniq[:, col] if terrain.aspect is not None else None
            self._n_classes = uniq.shape[0]

    # ------------------------------------------------------------------
    def _uniform_weight_matrix(self, scenarios: Sequence) -> np.ndarray:
        """Travel-time weights for a batch of uniform scenarios, ``(n, D)``.

        The Rothermel ellipse of each scenario is three scalars; the
        per-direction spread rates of the whole batch then come from a
        single broadcast ``ros_at_azimuth`` evaluation.
        """
        ros = np.empty(len(scenarios), dtype=np.float64)
        heading = np.empty_like(ros)
        ecc = np.empty_like(ros)
        for i, sc in enumerate(scenarios):
            moisture = Moisture.from_percent(sc.m1, sc.m10, sc.m100, sc.mherb)
            result = spread(
                int(sc.model),
                moisture,
                float(sc.wind_speed),
                float(sc.wind_dir),
                float(sc.slope),
                float(sc.aspect),
            )
            ros[i] = result.ros_max
            heading[i] = result.dir_max_deg
            ecc[i] = result.eccentricity
        rates = ros_at_azimuth(
            ros[:, None], heading[:, None], ecc[:, None], self._azimuths[None, :]
        )
        with np.errstate(divide="ignore"):
            return np.where(
                rates > ROS_EPSILON, self._distances[None, :] / rates, np.inf
            )

    def _direction_weights(self, result) -> np.ndarray:
        """Per-direction travel times, ``(D,)``, of one scalar ellipse."""
        rates = ros_at_azimuth(
            result.ros_max,
            result.dir_max_deg,
            result.eccentricity,
            self._azimuths,
        )
        with np.errstate(divide="ignore"):
            return np.where(rates > ROS_EPSILON, self._distances / rates, np.inf)

    def _fuel_weight_table(self, scenario) -> list[list[float]]:
        """``(fuel code × D)`` travel-time table for one scenario."""
        moisture = Moisture.from_percent(
            scenario.m1, scenario.m10, scenario.m100, scenario.mherb
        )
        table: list[list[float]] = []
        for code in self._codes:
            if code == 0:
                table.append([np.inf] * len(self._offsets))
                continue  # unburnable: also blocked, rows never read
            result = spread(
                code,
                moisture,
                float(scenario.wind_speed),
                float(scenario.wind_dir),
                float(scenario.slope),
                float(scenario.aspect),
            )
            table.append(self._direction_weights(result).tolist())
        return table

    def _ignition_times(self, scenario, weights: np.ndarray | None) -> np.ndarray:
        spec = self.spec
        if weights is not None:
            return self._grid.run_uniform(
                weights.tolist(), self._seeded, horizon=spec.horizon
            )
        return self._grid.run_table(
            self._fuel_weight_table(scenario),
            self._class_flat,
            self._seeded,
            horizon=spec.horizon,
        )

    # ------------------------------------------------------------------
    # Heterogeneous slope/aspect rasters: genome-axis batched fields
    # ------------------------------------------------------------------
    def _raster_fields(
        self, scenarios: Sequence
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class ellipse fields for a whole batch, each ``(n, u)``.

        The genome-axis vectorization of
        :meth:`repro.firelib.simulator.FireSimulator.spread_fields`:
        scenarios are grouped by fuel bed (the scenario ``Model`` on
        fuel-free terrains, each raster fuel code otherwise) and the
        wind–slope vector combination of every group is computed in one
        broadcast NumPy pass over ``(genomes × terrain classes)`` — the
        same elementwise float operations the reference path performs
        per genome per cell, deduplicated to the ``u`` distinct
        (fuel, slope, aspect) tuples, so the gathered per-cell values
        are bitwise identical.
        """
        n = len(scenarios)
        ros = np.zeros((n, self._n_classes), dtype=np.float64)
        dir_ = np.zeros((n, self._n_classes), dtype=np.float64)
        ecc = np.zeros((n, self._n_classes), dtype=np.float64)
        if self._class_fuel is None:
            by_model: dict[int, list[int]] = {}
            for i, sc in enumerate(scenarios):
                by_model.setdefault(int(sc.model), []).append(i)
            for code, rows in by_model.items():
                self._fill_raster_group(
                    code, rows, scenarios, self._class_slope,
                    self._class_aspect, None, ros, dir_, ecc,
                )
        else:
            all_rows = list(range(n))
            for code in np.unique(self._class_fuel):
                if code == 0:
                    continue  # unburnable: fields stay zero, cells blocked
                classes = np.flatnonzero(self._class_fuel == code)
                self._fill_raster_group(
                    int(code),
                    all_rows,
                    scenarios,
                    (
                        self._class_slope[classes]
                        if self._class_slope is not None
                        else None
                    ),
                    (
                        self._class_aspect[classes]
                        if self._class_aspect is not None
                        else None
                    ),
                    classes,
                    ros,
                    dir_,
                    ecc,
                )
        return ros, dir_, ecc

    def _fill_raster_group(
        self,
        code: int,
        rows: list[int],
        scenarios: Sequence,
        slope_cells: np.ndarray | None,
        aspect_cells: np.ndarray | None,
        cells: np.ndarray | None,
        out_ros: np.ndarray,
        out_dir: np.ndarray,
        out_ecc: np.ndarray,
    ) -> None:
        """One fuel bed × all its genomes, broadcast over the cells.

        ``slope_cells``/``aspect_cells`` are the raster values gathered
        at ``cells`` (``None`` = the scenario scalar applies, varying
        per genome); ``cells`` are the flat indices to scatter into
        (``None`` = the whole grid).
        """
        bed = FuelBed.for_model(code)
        r0 = np.empty(len(rows), dtype=np.float64)
        phi_w = np.empty_like(r0)
        wind_dir = np.empty_like(r0)
        for j, i in enumerate(rows):
            sc = scenarios[i]
            moisture = Moisture.from_percent(sc.m1, sc.m10, sc.m100, sc.mherb)
            r0[j] = bed.no_wind_rate(moisture)
            phi_w[j] = bed.phi_wind(
                max(0.0, float(sc.wind_speed)) * MPH_TO_FTMIN
            )
            wind_dir[j] = float(sc.wind_dir)
        # Non-spreading beds short-circuit to all-zero fields in the
        # reference path; keep those rows at the zero initialisation.
        alive = r0 > ROS_EPSILON
        if not alive.any():
            return
        live_rows = np.asarray(rows, dtype=np.intp)[alive]
        r0 = r0[alive, None]
        wnd_rate = (r0[:, 0] * phi_w[alive])[:, None]
        wind_dir = wind_dir[alive, None]
        if slope_cells is not None:
            slope = slope_cells[None, :]
        else:
            slope = np.array(
                [float(scenarios[i].slope) for i in live_rows], dtype=np.float64
            )[:, None]
        if aspect_cells is not None:
            aspect = aspect_cells[None, :]
        else:
            aspect = np.array(
                [float(scenarios[i].aspect) for i in live_rows], dtype=np.float64
            )[:, None]

        # The fireLib wind–slope vector combination, exactly as in
        # repro.firelib.rothermel.spread, with genomes down the rows.
        phi_s = bed.phi_slope(slope)
        upslope = np.mod(aspect + 180.0, 360.0)
        split = np.radians(np.mod(wind_dir - upslope, 360.0))
        slp_rate = r0 * phi_s
        x = slp_rate + wnd_rate * np.cos(split)
        y = wnd_rate * np.sin(split)
        rv = np.hypot(x, y)
        ros_max = r0 + rv
        phi_ew = rv / r0
        dir_max = np.mod(upslope + np.degrees(np.arctan2(y, x)), 360.0)
        dir_max = np.where(rv > ROS_EPSILON, dir_max, 0.0)
        ecc = eccentricity_from_effective_wind(bed.effective_wind(phi_ew))
        ecc = np.where(rv > ROS_EPSILON, ecc, 0.0)

        m = out_ros.shape[1] if cells is None else len(cells)
        target = (len(live_rows), m)
        if cells is None:
            out_ros[live_rows] = np.broadcast_to(ros_max, target)
            out_dir[live_rows] = np.broadcast_to(dir_max, target)
            out_ecc[live_rows] = np.broadcast_to(ecc, target)
        else:
            scatter = np.ix_(live_rows, cells)
            out_ros[scatter] = np.broadcast_to(ros_max, target)
            out_dir[scatter] = np.broadcast_to(dir_max, target)
            out_ecc[scatter] = np.broadcast_to(ecc, target)

    def _reach_box(self, ros_peak: float) -> tuple[slice, slice]:
        """Subgrid that provably contains everything the fire can reach.

        Every stencil move advances the Chebyshev distance by at most
        ``max(|dr|, |dc|) ≤ hypot(dr, dc)`` cells while costing at least
        ``cell_ft·hypot(dr, dc) / ros_peak`` minutes, so reaching a cell
        ``L`` Chebyshev-cells away from the seed set takes at least
        ``L·cell_ft / ros_peak`` minutes. Cells beyond
        ``horizon·ros_peak / cell_ft`` therefore stay unburned in the
        reference propagation too — restricting travel-time assembly
        and Dijkstra to this box cannot change the output.

        The radius is rounded up to a multiple of 8 cells: enlarging
        the box never changes the output, and quantizing collapses the
        near-equal radii of a batch's many ros_max values onto a few
        shared, cached box grids instead of one per distinct radius.
        """
        rows, cols = self.spec.terrain.shape
        if ros_peak > ROS_EPSILON:
            radius = int(math.ceil(self.spec.horizon * ros_peak / self._cell_ft)) + 2
            radius = -(-radius // 8) * 8
        else:
            radius = 0
        (r0, r1), (c0, c1) = self._seed_bbox
        return (
            slice(max(0, r0 - radius), min(rows, r1 + 1 + radius)),
            slice(max(0, c0 - radius), min(cols, c1 + 1 + radius)),
        )

    def _box_grid(self, box: tuple[slice, slice]) -> tuple:
        """Per-box propagation state, cached by box bounds.

        Returns ``(grid, seeded, class_flat, class_of_cell)``: the
        :class:`FlatGrid` of the box, its seeded state, the padded flat
        class indices (``run_table`` input) and the unpadded class map
        of the box.
        """
        key = (box[0].start, box[0].stop, box[1].start, box[1].stop)
        cached = self._box_grids.get(key)
        if cached is None:
            rows, cols = key[1] - key[0], key[3] - key[2]
            grid = FlatGrid((rows, cols), self._offsets, self._blocked[box])
            seeded = grid.seed(
                [(r - key[0], c - key[2]) for r, c in self._seed_cells]
            )
            pad = grid.pad
            classes = np.zeros(
                (rows + 2 * pad, grid.width), dtype=np.int64
            )
            box_classes = self._class_of_cell[box]
            classes[pad : pad + rows, pad : pad + cols] = box_classes
            cached = self._box_grids[key] = (
                grid,
                seeded,
                classes.reshape(-1).tolist(),
                box_classes,
            )
        return cached

    def _raster_burned(self, scenarios: Sequence) -> np.ndarray:
        """Burned masks of a deduplicated heterogeneous-raster batch.

        Fields come from the genome-axis, class-deduplicated batched
        kernel; per genome, the ``(u, D)`` travel-time table follows in
        one broadcast pass and the Dijkstra run is clipped to the
        reachability box of :meth:`_reach_box`, so slow/wet scenarios
        (the bulk of a Table I sample) cost a handful of cells instead
        of the whole grid. Per genome, the propagation kernel —
        ``run_table`` (class-axis tables, cheap for quantized DEM
        rasters) vs ``run_raster`` (per-cell planes, cheap for
        continuous rasters) — is chosen by the process-wide
        :class:`KernelCostModel` from measured per-unit costs; the
        ``repro_engine_force_kernel`` environment variable pins one
        kernel for tests. Both kernels are bitwise-equivalent, so the
        choice only ever moves time, never results.
        """
        spec = self.spec
        maps = np.zeros((len(scenarios), *spec.terrain.shape), dtype=bool)
        n_dirs = len(self._offsets)
        chunk = max(
            1, _RASTER_BLOCK_ELEMENTS // max(1, 3 * self._n_classes)
        )
        for lo in range(0, len(scenarios), chunk):
            sub = scenarios[lo : lo + chunk]
            ros, dir_, ecc = self._raster_fields(sub)
            for k in range(len(sub)):
                # Class max == cell max: every class occurs on ≥1 cell.
                box = self._reach_box(float(ros[k].max()))
                grid, seeded, class_flat, box_classes = self._box_grid(box)
                # One broadcast pass for all D directions — over the
                # class axis (run_table) or the box's gathered per-cell
                # fields (run_raster). Both run the identical
                # elementwise ops of the per-direction, per-cell
                # reference loop; the assembly cost is part of what the
                # cost model measures.
                kernel = _KERNEL_COSTS.choose(
                    self._n_classes, box_classes.size, n_dirs
                )
                start = time.perf_counter()
                if kernel == "table":
                    rates = ros_at_azimuth(
                        ros[k][None, :],
                        dir_[k][None, :],
                        ecc[k][None, :],
                        self._azimuths[:, None],
                    )
                    with np.errstate(divide="ignore"):
                        table = np.where(
                            rates > ROS_EPSILON,
                            self._distances[:, None] / rates,
                            np.inf,
                        )  # (D, u)
                    # Blocked cells never enter the heap, so sharing a
                    # table row with open cells cannot leak fire out of
                    # them — no per-cell blocked override needed.
                    times = grid.run_table(
                        table.T,
                        class_flat,
                        seeded,
                        horizon=spec.horizon,
                    )
                else:
                    rates = ros_at_azimuth(
                        ros[k][box_classes][None],
                        dir_[k][box_classes][None],
                        ecc[k][box_classes][None],
                        self._azimuths[:, None, None],
                    )
                    with np.errstate(divide="ignore"):
                        travel = np.where(
                            rates > ROS_EPSILON,
                            self._distances[:, None, None] / rates,
                            np.inf,
                        )  # (D, bh, bw)
                    travel[:, self._blocked[box]] = np.inf
                    times = grid.run_raster(
                        travel, seeded, horizon=spec.horizon
                    )
                _KERNEL_COSTS.observe(
                    kernel,
                    self._n_classes,
                    box_classes.size,
                    n_dirs,
                    time.perf_counter() - start,
                )
                self.kernel_calls[kernel] += 1
                maps[lo + k][box] = times <= spec.horizon
        return maps

    def _unique_burned(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Burned masks of the deduplicated batch + inverse index map."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        uniq, inverse = np.unique(genomes, axis=0, return_inverse=True)
        scenarios = [self.spec.space.decode(g) for g in uniq]
        if self._mode == "raster":
            return self._raster_burned(scenarios), inverse.reshape(-1)
        weight_rows = (
            self._uniform_weight_matrix(scenarios)
            if self._mode == "uniform"
            else None
        )
        maps = np.empty((len(scenarios), *self.spec.terrain.shape), dtype=bool)
        for k, sc in enumerate(scenarios):
            times = self._ignition_times(
                sc, weight_rows[k] if weight_rows is not None else None
            )
            maps[k] = times <= self.spec.horizon
        telemetry().counter(
            "repro_engine_kernel_calls_total",
            kernel="uniform" if weight_rows is not None else "table",
            impl=native.impl(),
        ).inc(len(scenarios))
        return maps, inverse.reshape(-1)

    # ------------------------------------------------------------------
    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        maps, inverse = self._unique_burned(genomes)
        fits = batch_jaccard(
            self.spec.real_burned, maps, pre_burned=self.spec.start_burned
        )
        return fits[inverse]

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        maps, inverse = self._unique_burned(genomes)
        return maps[inverse]


# ----------------------------------------------------------------------
# process
# ----------------------------------------------------------------------
class _SpecProblem:
    """Picklable shim shipping a :class:`StepSpec` into pool workers.

    Satisfies :class:`repro.parallel.executor.BatchProblem`; the inner
    backend is rebuilt lazily after unpickling so only the spec crosses
    the process boundary (once, at pool start).
    """

    def __init__(self, spec: StepSpec, inner: str) -> None:
        self.spec = spec
        self.inner = inner
        self._backend: EngineBackend | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_backend"] = None
        return state

    def _get_backend(self) -> EngineBackend:
        if self._backend is None:
            self._backend = create_backend(self.inner, self.spec)
        return self._backend

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        return self._get_backend().fitness_batch(genomes)


@register_backend("process")
class ProcessBackend(EngineBackend):
    """Multiprocess fan-out layered on the executor's pool machinery.

    Fitness batches are chunked across a
    :class:`~repro.parallel.executor.ProcessPoolEvaluator` whose
    workers each hold one ``inner``-backend instance (``vectorized`` by
    default, so every worker also gets the batched kernel). Burned-map
    batches — the small per-step Statistical Stage calls — run on a
    local inner backend to avoid shipping ``(n, H, W)`` masks back
    through the pipe.

    When ``pool`` is given (a run-scoped session's persistent pool),
    the backend broadcasts this step's spec to the standing workers
    via :meth:`~repro.parallel.executor.ProcessPoolEvaluator.
    update_problem` instead of forking a fresh pool, and :meth:`close`
    leaves the pool running for the next step.
    """

    def __init__(
        self,
        spec: StepSpec,
        inner: str = "vectorized",
        n_workers: int | None = None,
        chunks_per_worker: int = 4,
        pool=None,
    ) -> None:
        super().__init__(spec)
        if inner == self.name:
            raise ReproError("process backend cannot nest itself")
        self.inner = inner
        self._local: EngineBackend | None = None  # built on first map batch
        if pool is not None:
            self._owns_pool = False
            self._pool = pool
            pool.update_problem(_SpecProblem(spec, inner))
        else:
            # imported here: executor pulls in multiprocessing, keep the
            # serial backends importable without it
            from repro.parallel.executor import ProcessPoolEvaluator

            self._owns_pool = True
            self._pool = ProcessPoolEvaluator(
                _SpecProblem(spec, inner),
                n_workers=n_workers,
                chunks_per_worker=chunks_per_worker,
            )
        self.n_workers = self._pool.n_workers

    def fitness_batch(self, genomes: np.ndarray) -> np.ndarray:
        return self._pool(genomes)

    def burned_map_batch(self, genomes: np.ndarray) -> np.ndarray:
        if self._local is None:
            self._local = create_backend(self.inner, self.spec)
        return self._local.burned_map_batch(genomes)

    def close(self) -> None:
        if self._owns_pool:
            self._pool.close()
