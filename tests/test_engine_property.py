"""Property tests: the vectorized backend is bitwise-exact.

The acceptance bar for the engine subsystem is that the ``vectorized``
backend matches ``SerialEvaluator`` + :class:`FireSimulator` **bit for
bit** — not approximately — across random scenarios on all 13 NFFL
fuel models, on homogeneous and heterogeneous terrains, under both
stencils. The flat-index Dijkstra kernels are additionally checked
against the reference propagation on random travel-time rasters.

Every case runs under both heap-loop implementations: the native C
kernel (the default wherever it builds) and the Python loops (selected
by replacing the loader, as on a machine without a compiler). The
``*Python`` subclasses repeat their base class on the Python loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import ParameterSpace
from repro.engine import SimulationEngine, backends, native
from repro.engine.fastprop import (
    FlatGrid,
    _travel,
    propagate_raster,
    propagate_uniform,
)
from repro.errors import SimulationError
from repro.firelib.propagation import (
    _offset_azimuth_deg,
    propagate,
    stencil,
)
from repro.firelib.rothermel import ROS_EPSILON
from repro.grid.terrain import Terrain
from repro.parallel.executor import SerialEvaluator
from repro.systems.problem import PredictionStepProblem

SPACE = ParameterSpace()


@pytest.fixture(autouse=True)
def _kernel_impl(request, monkeypatch):
    """Run each test under its class's ``IMPL`` heap loop."""
    if getattr(request.cls, "IMPL", "native") == "python":
        monkeypatch.setattr(native, "load", lambda: None)
        assert native.impl() == "python"


def _problem(terrain: Terrain, n_neighbors: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    start = np.zeros(terrain.shape, dtype=bool)
    r0, c0 = terrain.rows // 2, terrain.cols // 2
    start[r0 - 1 : r0 + 2, c0 - 1 : c0 + 2] = True
    real = start | (rng.random(terrain.shape) < 0.2)
    return PredictionStepProblem(
        terrain=terrain,
        start_burned=start,
        real_burned=real,
        horizon=30.0,
        n_neighbors=n_neighbors,
    )


def _model_genomes(model: int, n: int, seed: int) -> np.ndarray:
    genomes = SPACE.sample(n, seed)
    genomes[:, 0] = model
    return genomes


def _stencil_geometry(offsets) -> tuple[np.ndarray, np.ndarray]:
    """Azimuths (degrees) and distances (one-foot cells) of a stencil."""
    azimuths = np.array([_offset_azimuth_deg(dr, dc) for dr, dc in offsets])
    distances = np.array([float(np.hypot(dr, dc)) for dr, dc in offsets])
    return azimuths, distances


def _random_fields(rng, n: int, n_classes: int) -> tuple[np.ndarray, ...]:
    """``(n, K)`` ellipse fields: ros, heading (degrees), eccentricity."""
    return (
        rng.uniform(0.05, 1.0, (n, n_classes)),
        rng.uniform(0.0, 360.0, (n, n_classes)),
        rng.uniform(0.0, 0.95, (n, n_classes)),
    )


def _adversarial_fields(n_classes: int, azimuth: float) -> tuple[np.ndarray, ...]:
    """One run's fields cycling through the edge cases of the travel
    rows, one per class: no spread, spread exactly at ``ROS_EPSILON``,
    eccentricities whose heading denominator the 1e-12 clamp catches
    (``azimuth`` is a stencil azimuth), NaN in each field, and headings
    on both sides of the 0/360 wrap."""
    cases = [
        (0.0, 0.0, 0.0),
        (ROS_EPSILON, 0.0, 0.0),
        (ROS_EPSILON, 90.0, 0.5),
        (0.5, azimuth, 1.0 - 1e-13),
        (0.5, azimuth, 1.0),
        (np.nan, 0.0, 0.3),
        (0.5, np.nan, 0.3),
        (0.5, 0.0, np.nan),
        (0.7, 0.0, 0.6),
        (0.7, 360.0, 0.6),
        (0.7, -0.0, 0.6),
        (0.7, np.nextafter(360.0, 0.0), 0.6),
        (0.7, 1e-12, 0.6),
        (0.9, 180.0, 0.8),
    ]
    picked = np.array([cases[k % len(cases)] for k in range(n_classes)])
    return tuple(picked[None, :, j].copy() for j in range(3))


def _padded_classes(grid: FlatGrid, class_map: np.ndarray) -> list[int]:
    classes = np.zeros((grid.rows + 2 * grid.pad, grid.width), dtype=np.int64)
    classes[grid.pad : grid.pad + grid.rows, grid.pad : grid.pad + grid.cols] = (
        class_map
    )
    return classes.reshape(-1).tolist()


class TestVectorizedBitwise:
    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_uniform_terrain(self, model):
        problem = _problem(Terrain.uniform(16, 16), seed=model)
        genomes = _model_genomes(model, 5, 100 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_fuel_raster(self, model):
        terrain = Terrain.with_fuel_patches(
            16,
            16,
            base_model=model,
            patches=[
                (slice(0, 8), slice(10, 14), (model % 13) + 1),
                (slice(12, 16), slice(0, 4), 0),  # unburnable pocket
            ],
        )
        problem = _problem(terrain, seed=200 + model)
        genomes = _model_genomes(model, 4, 300 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_slope_aspect_rasters(self):
        problem = _problem(Terrain.with_ridge(16, 16), seed=7)
        genomes = SPACE.sample(6, 41)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("model", range(1, 14))
    def test_all_nffl_models_heterogeneous_rasters(self, model):
        """Batched raster path: non-uniform slope/aspect, bitwise-exact."""
        rng = np.random.default_rng(500 + model)
        terrain = Terrain(
            16,
            16,
            slope=rng.uniform(0.0, 45.0, (16, 16)),
            aspect=rng.uniform(0.0, 360.0, (16, 16)),
        )
        problem = _problem(terrain, seed=600 + model)
        genomes = _model_genomes(model, 5, 700 + model)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_rasters_mixed_models(self):
        """One batch spanning several fuel beds over shared rasters."""
        rng = np.random.default_rng(81)
        terrain = Terrain(
            14,
            14,
            slope=rng.uniform(0.0, 60.0, (14, 14)),
            aspect=rng.uniform(0.0, 360.0, (14, 14)),
        )
        problem = _problem(terrain, seed=82)
        genomes = SPACE.sample(13, 83)
        genomes[:, 0] = np.arange(1, 14)  # every NFFL model in one batch
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_fuel_raster_with_slope_aspect_rasters(self):
        rng = np.random.default_rng(84)
        fuel = rng.integers(1, 14, (16, 16))
        fuel[2:5, 2:5] = 0  # unburnable pocket
        terrain = Terrain(
            16,
            16,
            fuel=fuel,
            slope=rng.uniform(0.0, 45.0, (16, 16)),
            aspect=rng.uniform(0.0, 360.0, (16, 16)),
        )
        problem = _problem(terrain, seed=85)
        genomes = SPACE.sample(8, 86)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    @pytest.mark.parametrize("raster", ["slope", "aspect"])
    def test_single_raster_with_scenario_scalar(self, raster):
        """Only one raster present: the other comes from each genome."""
        rng = np.random.default_rng(87)
        kwargs = (
            {"slope": rng.uniform(0.0, 45.0, (14, 14))}
            if raster == "slope"
            else {"aspect": rng.uniform(0.0, 360.0, (14, 14))}
        )
        problem = _problem(Terrain(14, 14, **kwargs), seed=88)
        genomes = SPACE.sample(7, 89)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_rasters_16_neighbors(self):
        rng = np.random.default_rng(90)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, n_neighbors=16, seed=91)
        genomes = SPACE.sample(5, 92)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_heterogeneous_burned_maps_bitwise(self):
        rng = np.random.default_rng(93)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, seed=94)
        genomes = SPACE.sample(4, 95)
        ref = SimulationEngine.from_problem(problem, backend="reference")
        vec = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(
            ref.burned_maps(genomes), vec.burned_maps(genomes)
        )

    def test_heterogeneous_dedupes_repeated_genomes(self):
        rng = np.random.default_rng(96)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        problem = _problem(terrain, seed=97)
        g = SPACE.sample(3, 98)
        batch = np.vstack([g, g, g[:1]])
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(batch), engine(batch))

    def test_unburnable_river(self):
        problem = _problem(Terrain.with_river(16, 16, gap_row=8), seed=9)
        genomes = SPACE.sample(6, 42)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_16_neighbor_stencil(self):
        problem = _problem(Terrain.uniform(14, 14), n_neighbors=16, seed=11)
        genomes = SPACE.sample(6, 43)
        reference = SerialEvaluator(problem.with_backend("reference"))
        engine = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(reference(genomes), engine(genomes))

    def test_burned_maps_bitwise(self):
        problem = _problem(Terrain.uniform(14, 14), seed=13)
        genomes = SPACE.sample(4, 44)
        ref = SimulationEngine.from_problem(problem, backend="reference")
        vec = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(
            ref.burned_maps(genomes), vec.burned_maps(genomes)
        )

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_field_chunk_boundaries(self, monkeypatch, chunk):
        """Batches cut into field chunks of 1, 3 and 7 genomes (one per
        ``burn`` call) on a one-class-per-cell raster match the
        reference."""
        rng = np.random.default_rng(99)
        terrain = Terrain(
            12,
            12,
            slope=rng.uniform(0.0, 45.0, (12, 12)),
            aspect=rng.uniform(0.0, 360.0, (12, 12)),
        )
        monkeypatch.setattr(
            backends, "_FIELD_BLOCK_ELEMENTS", 3 * terrain.rows * terrain.cols * chunk
        )
        problem = _problem(terrain, seed=100)
        genomes = SPACE.sample(8, 101)
        ref = SimulationEngine.from_problem(problem, backend="reference")
        vec = SimulationEngine.from_problem(problem, backend="vectorized")
        assert np.array_equal(
            ref.burned_maps(genomes), vec.burned_maps(genomes)
        )


_KERNEL_DEFAULTS = {
    "n_neighbors": 8,
    "size": 12,
    "seeds": [(6, 6), (2, 3)],
    "blocked_seeds": [],
    "inf_dirs": [],
    "horizon": 20.0,
}

#: Kernel edge cases, each a change to ``_KERNEL_DEFAULTS``.
KERNEL_CASES = {
    "8": {},
    "16": {"n_neighbors": 16},
    "timed-ignitions": {"seeds": {(6, 6): 0.0, (2, 3): 4.5, (9, 1): 1.25}},
    "ignited-blocked-cell": {
        "seeds": [(6, 6), (2, 3), (10, 10)],
        "blocked_seeds": [(10, 10)],
    },
    "inf-direction-weight": {"inf_dirs": [1, 4]},
    "no-horizon": {"horizon": None},
    # 1600 scattered seeds: a heap of thousands of entries at once
    "heap-growth": {
        "size": 80,
        "seeds": [(r, c) for r in range(0, 80, 2) for c in range(0, 80, 2)],
        "horizon": 6.0,
    },
    # a solid burned region: the native sweep drops its interior seeds
    "solid-seeded-block": {
        "seeds": [(r, c) for r in range(3, 9) for c in range(3, 10)],
    },
    # a late seed whose every neighbour is an earlier seed: dropped as a
    # seed, reached (and possibly improved) through its neighbours
    "late-seed-inside-earlier": {
        "seeds": {
            (6, 6): 3.0,
            **{(6 + dr, 6 + dc): 0.0 for dr, dc in stencil(8)},
        },
    },
    # an early seed ringed by later seeds it can still improve
    "early-seed-inside-later": {
        "seeds": {
            **{(6 + dr, 6 + dc): 0.9 for dr, dc in stencil(8)},
            (6, 6): 0.0,
        },
    },
    # the only seed ignites exactly at the horizon: it counts as burned
    "seed-at-horizon": {"seeds": {(2, 3): 20.0}},
}


class TestFlatKernelsMatchReference:
    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_raster_kernel_random_travel(self, case):
        """All three kernels against the reference on random rasters.

        ``run_table`` gets one class per cell (its table row is that
        cell's travel column), ``run_uniform`` the travel column of one
        cell broadcast over the grid.
        """
        params = {**_KERNEL_DEFAULTS, **KERNEL_CASES[case]}
        size, seeds = params["size"], params["seeds"]
        horizon = params["horizon"]
        rng = np.random.default_rng(params["n_neighbors"])
        offsets = stencil(params["n_neighbors"])
        travel = rng.uniform(0.5, 5.0, size=(len(offsets), size, size))
        travel[rng.random(travel.shape) < 0.1] = np.inf
        travel[params["inf_dirs"]] = np.inf
        blocked = rng.random((size, size)) < 0.15
        for cell in seeds:
            blocked[cell] = False
        for cell in params["blocked_seeds"]:
            blocked[cell] = True
        expected = propagate(travel, seeds, horizon=horizon, blocked=blocked)
        if case == "seed-at-horizon":
            assert expected[2, 3] == horizon
        got = propagate_raster(
            travel, offsets, seeds, horizon=horizon, blocked=blocked
        )
        assert np.array_equal(expected, got)

        grid = FlatGrid((size, size), offsets, blocked)
        seeded = grid.seed(seeds)
        classes = np.zeros((size + 2 * grid.pad, grid.width), dtype=np.int64)
        classes[grid.pad : grid.pad + size, grid.pad : grid.pad + size] = (
            np.arange(size * size).reshape(size, size)
        )
        class_flat = classes.reshape(-1).tolist()
        table = travel.reshape(len(offsets), -1).T
        got_table = grid.run_table(table, class_flat, seeded, horizon=horizon)
        assert np.array_equal(expected, got_table)
        if case == "solid-seeded-block":  # the interior cannot relax anything
            assert len(grid._native_seed(seeded)[1]) < len(seeded[1])

        weights = travel[:, 0, 0]
        expected_uniform = propagate(
            np.broadcast_to(weights[:, None, None], travel.shape),
            seeds,
            horizon=horizon,
            blocked=blocked,
        )
        got_uniform = propagate_uniform(
            weights.tolist(),
            (size, size),
            offsets,
            seeds,
            horizon=horizon,
            blocked=blocked,
        )
        assert np.array_equal(expected_uniform, got_uniform)

        # the fields entry (whose horizon must be finite): one class per
        # cell, then one class for all
        limit = 1e9 if horizon is None else horizon
        azimuths, distances = _stencil_geometry(offsets)
        fields = _random_fields(rng, 1, size * size)
        travel = np.moveaxis(
            _travel(*(f[0] for f in fields), azimuths, distances), -1, 0
        ).reshape(travel.shape)
        expected = propagate(travel, seeds, horizon=horizon, blocked=blocked)
        burned = grid.burn(*fields, azimuths, distances, class_flat, seeded, limit)
        assert np.array_equal(burned[0], expected <= limit)
        fields = _random_fields(rng, 1, 1)
        weights = _travel(*(f[0, 0] for f in fields), azimuths, distances)
        expected = propagate(
            np.broadcast_to(weights[:, None, None], travel.shape),
            seeds,
            horizon=horizon,
            blocked=blocked,
        )
        burned = grid.burn(
            *fields, azimuths, distances, [0] * len(class_flat), seeded, limit
        )
        assert np.array_equal(burned[0], expected <= limit)

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("mode", ["uniform", "table"])
    def test_burn_matches_run_kernels(self, mode, n):
        """One batched call equals the per-run kernels and the reference.

        The 7-run batch holds fast fields (the whole open region burns
        within the horizon), fields that never spread (``ros`` 0 and at
        ``ROS_EPSILON``), and NaN in each field.
        """
        size, horizon = 14, 6.0
        rng = np.random.default_rng(n)
        offsets = stencil(8)
        azimuths, distances = _stencil_geometry(offsets)
        seeds = {(7, 7): 0.0, (2, 3): 1.5, (11, 2): 5.0}
        blocked = rng.random((size, size)) < 0.15
        for cell in seeds:
            blocked[cell] = False
        grid = FlatGrid((size, size), offsets, blocked)
        seeded = grid.seed(seeds)
        n_classes = 1 if mode == "uniform" else 3
        ros, dir_, ecc = _random_fields(rng, n, n_classes)
        if n == 7:
            ros[0] = 1e6
            ros[1] = 0.0
            ros[2] = ROS_EPSILON
            ros[3, 0], dir_[4, 0], ecc[5, 0] = np.nan, np.nan, np.nan
        class_map = rng.integers(0, n_classes, (size, size))
        class_flat = _padded_classes(grid, class_map)
        burned = grid.burn(
            ros, dir_, ecc, azimuths, distances, class_flat, seeded, horizon
        )
        assert burned.dtype == bool and burned.shape == (n, size, size)
        assert not burned[:, blocked].any()
        for k in range(n):
            table = _travel(ros[k], dir_[k], ecc[k], azimuths, distances)
            per_run = grid.run_table(table, class_flat, seeded, horizon)
            travel = np.moveaxis(table[class_map], -1, 0)  # (D, H, W)
            expected = propagate(travel, seeds, horizon=horizon, blocked=blocked)
            assert np.array_equal(burned[k], per_run <= horizon)
            assert np.array_equal(burned[k], expected <= horizon)
        if n == 7:
            assert burned[0].sum() > burned[1].sum() == len(seeds)
            assert np.array_equal(burned[1], burned[2])

    @pytest.mark.parametrize("n_neighbors", [8, 16])
    def test_burn_adversarial_fields(self, n_neighbors):
        """One class per cell, each cell's fields an edge case of the
        travel rows (see :func:`_adversarial_fields`), against the
        reference propagation of the NumPy travel times."""
        size, horizon = 16, 40.0
        offsets = stencil(n_neighbors)
        azimuths, distances = _stencil_geometry(offsets)
        rng = np.random.default_rng(n_neighbors)
        blocked = rng.random((size, size)) < 0.1
        seeds = [(8, 8), (3, 12)]
        for cell in seeds:
            blocked[cell] = False
        grid = FlatGrid((size, size), offsets, blocked)
        seeded = grid.seed(seeds)
        fields = _adversarial_fields(size * size, azimuth=float(azimuths[2]))
        table = _travel(*(f[0] for f in fields), azimuths, distances)
        with np.errstate(invalid="ignore"):
            theta = np.radians(azimuths - fields[1][0][:, None])
            clamped = 1.0 - fields[2][0][:, None] * np.cos(theta) < 1e-12
        assert clamped.any() and np.isinf(table).any()
        assert np.isfinite(table).any()
        class_flat = _padded_classes(grid, np.arange(size * size).reshape(size, size))
        burned = grid.burn(
            *fields, azimuths, distances, class_flat, seeded, horizon
        )
        travel = np.moveaxis(table, -1, 0).reshape(len(offsets), size, size)
        expected = propagate(travel, seeds, horizon=horizon, blocked=blocked)
        assert np.array_equal(burned[0], expected <= horizon)
        assert burned[0].sum() > len(seeds)

    def test_burn_travel_times_are_exact(self):
        """Each direction's travel time is the NumPy one to the last bit:
        with the horizon at that time a neighbour ignites, one ulp below
        it that neighbour stays unburned (unless another path is as
        fast, which the reference accounts for)."""
        offsets = stencil(16)
        azimuths, distances = _stencil_geometry(offsets)
        rng = np.random.default_rng(17)
        grid = FlatGrid((5, 5), offsets)
        seeds = [(2, 2)]
        seeded = grid.seed(seeds)
        class_flat = [0] * (grid.width * (5 + 2 * grid.pad))
        for _ in range(40):
            fields = _random_fields(rng, 1, 1)
            weights = _travel(*(f[0, 0] for f in fields), azimuths, distances)
            travel = np.broadcast_to(weights[:, None, None], (len(offsets), 5, 5))
            for limit in (*weights, *np.nextafter(weights, 0.0)):
                burned = grid.burn(
                    *fields, azimuths, distances, class_flat, seeded, limit
                )
                expected = propagate(travel, seeds, horizon=limit) <= limit
                assert np.array_equal(burned[0], expected)

    def test_burn_spread_threshold_is_exclusive(self):
        """A rate exactly at ``ROS_EPSILON`` never spreads; the next
        double above it does (micro-distances make its travel short)."""
        offsets = stencil(8)
        azimuths, distances = _stencil_geometry(offsets)
        distances = distances * 1e-9
        grid = FlatGrid((5, 5), offsets)
        seeded = grid.seed([(2, 2)])
        class_flat = [0] * (grid.width * (5 + 2 * grid.pad))
        ros = np.array([[ROS_EPSILON], [np.nextafter(ROS_EPSILON, 1.0)]])
        still = np.zeros((2, 1))
        burned = grid.burn(
            ros, still, still, azimuths, distances, class_flat, seeded, 5.0
        )
        assert burned[0].sum() == 1 and burned[1].all()

    def test_negative_travel_times_are_rejected(self):
        """Every entry point refuses a negative travel time (for
        ``burn``, a negative stencil distance); NaN and ``inf`` never
        relax anything and stay allowed."""
        offsets = stencil(8)
        azimuths, distances = _stencil_geometry(offsets)
        grid = FlatGrid((6, 6), offsets)
        seeded = grid.seed([(3, 3)])
        class_flat = [0] * (grid.width * (6 + 2 * grid.pad))
        fields = (np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        for bad in (-1.0, -np.inf):
            weights = [1.0] * 7 + [bad]
            with pytest.raises(SimulationError, match="non-negative"):
                grid.run_uniform(weights, seeded, 5.0)
            with pytest.raises(SimulationError, match="non-negative"):
                grid.run_table([weights], class_flat, seeded, 5.0)
            with pytest.raises(SimulationError, match="non-negative"):
                propagate_raster(
                    np.broadcast_to(np.array(weights)[:, None, None], (8, 6, 6)),
                    offsets,
                    [(3, 3)],
                    5.0,
                )
            with pytest.raises(SimulationError, match="non-negative"):
                grid.burn(
                    *fields, azimuths, np.array(weights), class_flat, seeded, 5.0
                )
        allowed = [1.0] * 6 + [np.nan, np.inf]
        expected = grid.run_uniform(allowed, seeded, 5.0) <= 5.0
        assert expected.any()
        burned = grid.burn(
            *fields, azimuths, np.array(allowed), class_flat, seeded, 5.0
        )
        assert np.array_equal(burned[0], expected)
        assert np.array_equal(
            grid.run_table([allowed], class_flat, seeded, 5.0) <= 5.0, expected
        )

    def test_weight_shapes_are_checked(self):
        offsets = stencil(8)
        azimuths, distances = _stencil_geometry(offsets)
        grid = FlatGrid((6, 6), offsets)
        seeded = grid.seed([(3, 3)])
        class_flat = [0] * (grid.width * (6 + 2 * grid.pad))
        ones = np.ones((2, 1))

        def burn(
            ros=ones, dir_=ones, ecc=ones, az=azimuths, classes=class_flat, horizon=5.0
        ):
            return grid.burn(ros, dir_, ecc, az, distances, classes, seeded, horizon)

        with pytest.raises(SimulationError):
            grid.run_uniform([1.0] * 7, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.run_table([[1.0] * 8, [1.0] * 7], class_flat, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.run_table([[1.0] * 7], class_flat, seeded, 5.0)
        assert burn().shape == (2, 6, 6)
        with pytest.raises(SimulationError):
            burn(ecc=np.ones((2, 2)))  # unequal fields
        with pytest.raises(SimulationError):
            burn(ones[:, 0], ones[:, 0], ones[:, 0])  # no class axis
        with pytest.raises(SimulationError):
            burn(az=azimuths[:7])
        with pytest.raises(SimulationError, match="outside"):
            burn(classes=[1] * len(class_flat))
        with pytest.raises(SimulationError):
            burn(classes=class_flat[1:])
        with pytest.raises(SimulationError):
            burn(horizon=np.inf)

    def test_uniform_kernel_matches_constant_raster(self):
        offsets = stencil(8)
        weights = [1.0, 1.5, 2.0, np.inf, 1.0, 3.0, 0.5, 2.5]
        travel = np.broadcast_to(
            np.asarray(weights)[:, None, None], (8, 10, 10)
        ).copy()
        seeds = {(5, 5): 0.0, (0, 0): 2.0}
        expected = propagate(travel, seeds, horizon=12.0)
        got = propagate_uniform(weights, (10, 10), offsets, seeds, horizon=12.0)
        assert np.array_equal(expected, got)

    def test_no_horizon_propagates_to_exhaustion(self):
        offsets = stencil(8)
        weights = [2.0] * 8
        expected = propagate(
            np.full((8, 6, 6), 2.0), [(0, 0)], horizon=None
        )
        got = propagate_uniform(weights, (6, 6), offsets, [(0, 0)], horizon=None)
        assert np.array_equal(expected, got)

    def test_seed_validation_matches_reference(self):
        from repro.errors import SimulationError

        offsets = stencil(8)
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, [])
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, [(9, 9)])
        with pytest.raises(SimulationError):
            propagate_uniform([1.0] * 8, (6, 6), offsets, {(1, 1): -1.0})

    def test_blocked_seed_is_noop(self):
        offsets = stencil(8)
        blocked = np.zeros((6, 6), dtype=bool)
        blocked[1, 1] = True
        out = propagate_uniform(
            [1.0] * 8, (6, 6), offsets, [(1, 1), (3, 3)], blocked=blocked
        )
        assert np.isinf(out[1, 1])
        assert out[3, 3] == 0.0

    def test_offset_azimuths_cover_compass(self):
        azimuths = [_offset_azimuth_deg(dr, dc) for dr, dc in stencil(8)]
        assert azimuths == pytest.approx([0, 45, 90, 135, 180, 225, 270, 315])


class TestVectorizedBitwisePython(TestVectorizedBitwise):
    IMPL = "python"


class TestFlatKernelsMatchReferencePython(TestFlatKernelsMatchReference):
    IMPL = "python"
