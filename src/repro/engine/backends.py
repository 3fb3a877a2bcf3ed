"""Pluggable execution backends for the batched simulation engine.

A backend turns a genome batch into Eq. 3 fitness values (and burned
maps) for one prediction step. Three implementations ship:

* ``reference`` — wraps today's per-scenario
  :class:`~repro.firelib.simulator.FireSimulator`; the semantics every
  other backend must reproduce bit-for-bit.
* ``vectorized`` — deduplicates bitwise-equal genomes, computes the
  Rothermel/ellipse fields of the whole batch in one genome-axis ×
  terrain-class NumPy pass, and runs the propagation through the
  flat-index Dijkstra kernels of :mod:`repro.engine.fastprop`.
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

import numpy as np

from repro.core.fitness import batch_jaccard, jaccard_fitness
from repro.core.scenario import ParameterSpace
from repro.engine import native
from repro.engine.fastprop import FlatGrid
from repro.errors import ReproError, SimulationError
from repro.firelib.ellipse import eccentricity_from_effective_wind, ros_at_azimuth
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.firelib.rothermel import ROS_EPSILON, FuelBed
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.obs import telemetry
from repro.units import METERS_TO_FEET, MPH_TO_FTMIN

#: Element budget of one field chunk: the three ``(chunk, n_classes)``
#: field arrays plus the ``(chunk, n_classes, D)`` travel-time block
#: (float64: ~32 MB); the raster kernel's per-genome ``(D, bh, bw)``
#: travel block is not chunked.
_FIELD_BLOCK_ELEMENTS = 4_000_000

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

    Cells are deduplicated into *terrain classes*: every per-cell
    quantity of the Rothermel/ellipse math depends only on the cell's
    (fuel, slope, aspect) tuple, taken from the rasters the terrain has.
    A terrain without rasters has one class, a fuel-only raster one per
    fuel code, slope/aspect rasters typically tens to hundreds. The
    spread fields of a whole deduplicated batch come from one
    ``(genomes × classes)`` NumPy pass per fuel bed (:meth:`_fields`),
    bitwise equal to :class:`FireSimulator`'s per-scenario fields. The
    propagation then runs through the flat-index Dijkstra kernels: one
    :meth:`FlatGrid.burn` call per field chunk for one class (uniform
    weights) or the fuel codes (per-class tables), and per genome the
    reach-clipped table/raster kernels for slope/aspect rasters.
    Bitwise-identical genome rows are simulated once and broadcast
    back.
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
        if terrain.slope is None and terrain.aspect is None:
            self._mode = "uniform" if terrain.fuel is None else "fuel_table"
        else:
            self._mode = "raster"
        # Terrain classes: the distinct (fuel, slope, aspect) tuples of
        # the rasters present; a missing raster takes the genome value.
        columns = [
            np.asarray(raster, dtype=np.float64).reshape(-1)
            for raster in (terrain.fuel, terrain.slope, terrain.aspect)
            if raster is not None
        ]
        if columns:
            uniq, inverse = np.unique(
                np.stack(columns, axis=1), axis=0, return_inverse=True
            )
        else:
            uniq = np.empty((1, 0))
            inverse = np.zeros(terrain.rows * terrain.cols, dtype=np.intp)
        self._class_of_cell = inverse.reshape(terrain.shape)
        self._n_classes = uniq.shape[0]
        col = 0
        self._class_fuel = self._class_slope = self._class_aspect = None
        if terrain.fuel is not None:
            self._class_fuel = uniq[:, col].astype(np.int64)
            col += 1
        if terrain.slope is not None:
            self._class_slope = uniq[:, col]
            col += 1
        if terrain.aspect is not None:
            self._class_aspect = uniq[:, col]
        # Seed cells in row-major order, simulate_from_burned's ordering.
        seed_rows, seed_cols = np.nonzero(spec.start_burned)
        self._seed_cells = [
            (int(r), int(c)) for r, c in zip(seed_rows, seed_cols)
        ]
        self._seed_bbox = (
            (int(seed_rows.min()), int(seed_rows.max())),
            (int(seed_cols.min()), int(seed_cols.max())),
        )
        # Per-box propagation state, keyed by box bounds (reused across
        # genomes and batches); the whole grid is the box of the
        # uniform and fuel-table modes.
        self._box_grids: dict[tuple[int, int, int, int], tuple] = {}
        self._grid, self._seeded, self._class_flat, _ = self._box_grid(
            (slice(0, terrain.rows), slice(0, terrain.cols))
        )
        #: Heterogeneous-path propagation calls by chosen kernel.
        self.kernel_calls: dict[str, int] = {"table": 0, "raster": 0}

    # ------------------------------------------------------------------
    # One genome-axis field pass for every mode
    # ------------------------------------------------------------------
    def _fields(
        self, decoded: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class ellipse fields of a decoded batch, each ``(n, u)``.

        The genome-axis vectorization of
        :meth:`repro.firelib.simulator.FireSimulator.spread_fields`:
        rows of ``decoded`` (see
        :meth:`~repro.core.scenario.ParameterSpace.decode_matrix`) are
        grouped by fuel bed — the genome ``Model`` on fuel-free
        terrains, each raster fuel code otherwise — and each group runs
        the batched no-wind rates and wind factors, then the wind–slope
        vector combination of :func:`repro.firelib.rothermel.spread`
        broadcast over ``(genomes × classes)``. The float operations are
        the reference's, element for element, so the fields are
        bitwise equal. One exception follows the reference's own split:
        it spreads fuel-free, raster-free terrain on scalars, whose
        ``**`` is libm ``pow``, so the effective wind of the uniform
        mode is taken per element.
        """
        # decoded columns, Table I order: Model, WindSpd, WindDir, M1,
        # M10, M100, Mherb, Slope, Aspect
        n, u = decoded.shape[0], self._n_classes
        ros = np.zeros((n, u), dtype=np.float64)
        dir_ = np.zeros((n, u), dtype=np.float64)
        ecc = np.zeros((n, u), dtype=np.float64)
        moistures = decoded[:, 3:7] / 100.0  # Table I percent → fractions
        speed = decoded[:, 1]
        wind = np.where(speed > 0.0, speed, 0.0) * MPH_TO_FTMIN
        every_row, every_class = np.arange(n), np.arange(u)
        if self._class_fuel is None:
            groups = [
                (int(code), every_row[decoded[:, 0] == code], every_class)
                for code in np.unique(decoded[:, 0])
            ]
        else:
            groups = [
                (int(code), every_row, np.flatnonzero(self._class_fuel == code))
                for code in np.unique(self._class_fuel)
                if code != 0  # unburnable: fields stay zero, cells blocked
            ]
        for code, rows, classes in groups:
            bed = FuelBed.for_model(code)
            r0 = bed.no_wind_rates(moistures[rows])
            # Non-spreading beds short-circuit to all-zero fields in the
            # reference path; keep those rows at the zero initialisation.
            alive = r0 > ROS_EPSILON
            if not alive.any():
                continue
            rows = rows[alive]
            r0 = r0[alive, None]
            wnd_rate = r0 * bed.phi_winds(wind[rows])[:, None]
            wind_dir = decoded[rows, 2:3]
            if self._class_slope is not None:
                slope = self._class_slope[None, classes]
            else:
                slope = decoded[rows, 7:8]
            if self._class_aspect is not None:
                aspect = self._class_aspect[None, classes]
            else:
                aspect = decoded[rows, 8:9]

            # The fireLib wind–slope vector combination, exactly as in
            # repro.firelib.rothermel.spread, with genomes down the rows.
            phi_s = bed.phi_slope(slope)
            upslope = np.mod(aspect + 180.0, 360.0)
            split = np.radians(np.mod(wind_dir - upslope, 360.0))
            slp_rate = r0 * phi_s
            x = slp_rate + wnd_rate * np.cos(split)
            y = wnd_rate * np.sin(split)
            rv = np.hypot(x, y)
            pushed = rv > ROS_EPSILON
            phi_ew = rv / r0
            dir_max = np.mod(upslope + np.degrees(np.arctan2(y, x)), 360.0)
            eff_wind = (
                bed.effective_winds_scalar(phi_ew)
                if self._mode == "uniform"
                else bed.effective_wind(phi_ew)
            )
            target = (len(rows), len(classes))
            scatter = np.ix_(rows, classes)
            ros[scatter] = np.broadcast_to(r0 + rv, target)
            dir_[scatter] = np.broadcast_to(np.where(pushed, dir_max, 0.0), target)
            ecc[scatter] = np.broadcast_to(
                np.where(pushed, eccentricity_from_effective_wind(eff_wind), 0.0),
                target,
            )
        return ros, dir_, ecc

    def _travel(
        self, ros: np.ndarray, dir_: np.ndarray, ecc: np.ndarray
    ) -> np.ndarray:
        """Per-direction travel times of ellipse fields, ``(*shape, D)``."""
        rates = ros_at_azimuth(
            ros[..., None], dir_[..., None], ecc[..., None], self._azimuths
        )
        with np.errstate(divide="ignore"):
            return np.where(rates > ROS_EPSILON, self._distances / rates, np.inf)

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

    def _raster_burned(self, ros, dir_, ecc, maps: np.ndarray) -> None:
        """Burn the slope/aspect-raster genomes of one field chunk.

        Per genome the Dijkstra run is clipped to the reachability box
        of :meth:`_reach_box`, so slow/wet scenarios (the bulk of a
        Table I sample) cost a handful of cells instead of the whole
        grid, and the propagation kernel — ``run_table`` (class-axis
        tables, cheap for quantized DEM rasters) vs ``run_raster``
        (per-cell planes, cheap for continuous rasters) — is chosen by
        the process-wide :class:`KernelCostModel` from measured
        per-unit costs; the ``repro_engine_force_kernel`` environment
        variable pins one kernel for tests. Both kernels are
        bitwise-equivalent, so the choice only ever moves time, never
        results. ``maps`` rows are written in place.
        """
        spec = self.spec
        n_dirs = len(self._offsets)
        for k in range(len(ros)):
            # Class max == cell max: every class occurs on ≥1 cell.
            box = self._reach_box(float(ros[k].max()))
            grid, seeded, class_flat, box_classes = self._box_grid(box)
            # The travel-time assembly, over the class axis (run_table)
            # or the box's gathered per-cell fields (run_raster), is
            # part of what the cost model measures.
            kernel = _KERNEL_COSTS.choose(
                self._n_classes, box_classes.size, n_dirs
            )
            start = time.perf_counter()
            if kernel == "table":
                # Blocked cells never enter the heap, so sharing a
                # table row with open cells cannot leak fire out of
                # them — no per-cell blocked override needed.
                times = grid.run_table(
                    self._travel(ros[k], dir_[k], ecc[k]),
                    class_flat,
                    seeded,
                    horizon=spec.horizon,
                )
            else:
                travel = np.moveaxis(
                    self._travel(
                        ros[k][box_classes],
                        dir_[k][box_classes],
                        ecc[k][box_classes],
                    ),
                    -1,
                    0,
                )  # (D, bh, bw)
                travel[:, self._blocked[box]] = np.inf
                times = grid.run_raster(travel, seeded, horizon=spec.horizon)
            _KERNEL_COSTS.observe(
                kernel,
                self._n_classes,
                box_classes.size,
                n_dirs,
                time.perf_counter() - start,
            )
            self.kernel_calls[kernel] += 1
            maps[k][box] = times <= spec.horizon

    def _unique_burned(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Burned masks of the deduplicated batch + inverse index map."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        uniq, inverse = np.unique(genomes, axis=0, return_inverse=True)
        decoded = self.spec.space.decode_matrix(uniq)
        horizon = self.spec.horizon
        maps = np.zeros((len(uniq), *self.spec.terrain.shape), dtype=bool)
        chunk = max(
            1, _FIELD_BLOCK_ELEMENTS // (self._n_classes * (3 + len(self._offsets)))
        )
        for lo in range(0, len(uniq), chunk):
            ros, dir_, ecc = self._fields(decoded[lo : lo + chunk])
            out = maps[lo : lo + chunk]
            if self._mode == "raster":
                self._raster_burned(ros, dir_, ecc, out)
            elif self._mode == "uniform":
                out[:] = self._grid.burn(
                    self._travel(ros, dir_, ecc)[:, 0], None, self._seeded, horizon
                )
            else:
                out[:] = self._grid.burn(
                    self._travel(ros, dir_, ecc),
                    self._class_flat,
                    self._seeded,
                    horizon,
                )
        if self._mode != "raster":
            telemetry().counter(
                "repro_engine_kernel_calls_total",
                kernel="uniform" if self._mode == "uniform" else "table",
                impl=native.impl(),
            ).inc(len(uniq))
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
