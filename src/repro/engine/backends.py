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
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.fitness import batch_jaccard, jaccard_fitness
from repro.core.scenario import ParameterSpace
from repro.engine import native
from repro.engine.fastprop import FlatGrid
from repro.errors import ReproError, SimulationError
from repro.firelib.ellipse import eccentricity_from_effective_wind
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.firelib.rothermel import ROS_EPSILON, FuelBed
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.obs import telemetry
from repro.units import METERS_TO_FEET, MPH_TO_FTMIN

#: Element budget of one field chunk: the three ``(chunk, n_classes)``
#: float64 field arrays (~32 MB).
_FIELD_BLOCK_ELEMENTS = 4_000_000

__all__ = [
    "StepSpec",
    "EngineBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "register_backend",
    "backend_names",
    "create_backend",
]


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
    propagation then takes one :meth:`FlatGrid.burn` call per field
    chunk in every mode, over the whole grid's class map: the C kernel
    turns a class's fields into travel times when a fire first leaves
    one of its cells, so the work follows the cells a fire reaches.
    Bitwise-identical genome rows are simulated once and broadcast
    back.
    """

    def __init__(self, spec: StepSpec) -> None:
        super().__init__(spec)
        terrain = spec.terrain
        offsets = stencil(spec.n_neighbors)
        cell_ft = terrain.cell_size * METERS_TO_FEET
        self._azimuths = np.array(
            [_offset_azimuth_deg(dr, dc) for dr, dc in offsets]
        )
        self._distances = np.array(
            [cell_ft * math.hypot(dr, dc) for dr, dc in offsets]
        )
        # The terrain mode, also the kernel label of its propagations.
        if terrain.slope is None and terrain.aspect is None:
            self._mode = "uniform" if terrain.fuel is None else "table"
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
        # The whole grid, seeded from the step-start region in row-major
        # order (simulate_from_burned's), and its padded class map.
        self._grid = FlatGrid(terrain.shape, offsets, terrain.blocked_mask())
        seed_rows, seed_cols = np.nonzero(spec.start_burned)
        self._seeded = self._grid.seed(
            [(int(r), int(c)) for r, c in zip(seed_rows, seed_cols)]
        )
        pad = self._grid.pad
        classes = np.zeros(
            (terrain.rows + 2 * pad, self._grid.width), dtype=np.int64
        )
        classes[pad : pad + terrain.rows, pad : pad + terrain.cols] = (
            self._class_of_cell
        )
        self._class_flat = classes.reshape(-1).tolist()

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

    def _unique_burned(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Burned masks of the deduplicated batch + inverse index map."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        uniq, inverse = np.unique(genomes, axis=0, return_inverse=True)
        decoded = self.spec.space.decode_matrix(uniq)
        horizon = self.spec.horizon
        maps = np.zeros((len(uniq), *self.spec.terrain.shape), dtype=bool)
        chunk = max(1, _FIELD_BLOCK_ELEMENTS // (3 * self._n_classes))
        for lo in range(0, len(uniq), chunk):
            maps[lo : lo + chunk] = self._grid.burn(
                *self._fields(decoded[lo : lo + chunk]),
                self._azimuths,
                self._distances,
                self._class_flat,
                self._seeded,
                horizon,
            )
        telemetry().counter(
            "repro_engine_kernel_calls_total",
            kernel=self._mode,
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
