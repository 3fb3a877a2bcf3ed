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
from repro.engine import SimulationEngine, native
from repro.engine.fastprop import FlatGrid, propagate_raster, propagate_uniform
from repro.errors import SimulationError
from repro.firelib.propagation import (
    _offset_azimuth_deg,
    propagate,
    stencil,
)
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

        if horizon is not None:
            burned = grid.burn(table[None], class_flat, seeded, horizon)
            assert np.array_equal(burned[0], expected <= horizon)
            burned = grid.burn(weights[None], None, seeded, horizon)
            assert np.array_equal(burned[0], expected_uniform <= horizon)

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("mode", ["uniform", "table"])
    def test_burn_matches_run_kernels(self, mode, n):
        """One batched call equals the per-run kernels and the reference.

        The 7-run batch holds all-zero weights (the whole open region
        burns at once), unit weights (arrivals land exactly on the
        integer horizon) and rows with ``inf`` and NaN travel times.
        """
        size, horizon = 14, 6.0
        rng = np.random.default_rng(n)
        offsets = stencil(8)
        seeds = {(7, 7): 0.0, (2, 3): 1.5, (11, 2): 5.0}
        blocked = rng.random((size, size)) < 0.15
        for cell in seeds:
            blocked[cell] = False
        grid = FlatGrid((size, size), offsets, blocked)
        seeded = grid.seed(seeds)
        n_classes = 1 if mode == "uniform" else 3
        weights = rng.uniform(0.5, 3.0, (n, n_classes, len(offsets)))
        if n == 7:
            weights[0] = 0.0
            weights[1] = 1.0
            weights[2][rng.random(weights[2].shape) < 0.3] = np.inf
            weights[3, :, 2] = np.nan
        class_map = rng.integers(0, n_classes, (size, size))
        if mode == "uniform":
            burned = grid.burn(weights[:, 0], None, seeded, horizon)
            per_run = [grid.run_uniform(w[0], seeded, horizon) for w in weights]
        else:
            classes = np.zeros((size + 2 * grid.pad, grid.width), dtype=np.int64)
            classes[grid.pad : grid.pad + size, grid.pad : grid.pad + size] = (
                class_map
            )
            class_flat = classes.reshape(-1).tolist()
            burned = grid.burn(weights, class_flat, seeded, horizon)
            per_run = [
                grid.run_table(w, class_flat, seeded, horizon) for w in weights
            ]
        assert burned.dtype == bool and burned.shape == (n, size, size)
        assert not burned[:, blocked].any()
        for k, w in enumerate(weights):
            travel = np.moveaxis(w[class_map], -1, 0)  # (D, H, W)
            expected = propagate(travel, seeds, horizon=horizon, blocked=blocked)
            assert np.array_equal(burned[k], per_run[k] <= horizon)
            assert np.array_equal(burned[k], expected <= horizon)
        if n == 7:
            assert (per_run[0] == 0.0).sum() > len(seeds)
            assert burned[1][per_run[1] == horizon].any()

    def test_negative_travel_times_are_rejected(self):
        """Every entry point refuses a negative travel time; NaN and
        ``inf`` never relax anything and stay allowed."""
        offsets = stencil(8)
        grid = FlatGrid((6, 6), offsets)
        seeded = grid.seed([(3, 3)])
        class_flat = [0] * (grid.width * (6 + 2 * grid.pad))
        for bad in (-1.0, -np.inf):
            weights = [1.0] * 7 + [bad]
            with pytest.raises(SimulationError, match="non-negative"):
                grid.run_uniform(weights, seeded, 5.0)
            with pytest.raises(SimulationError, match="non-negative"):
                grid.run_table([weights], class_flat, seeded, 5.0)
            with pytest.raises(SimulationError, match="non-negative"):
                grid.run_raster(
                    np.broadcast_to(np.array(weights)[:, None, None], (8, 6, 6)),
                    seeded,
                    5.0,
                )
            with pytest.raises(SimulationError, match="non-negative"):
                grid.burn(np.array([weights]), None, seeded, 5.0)
            with pytest.raises(SimulationError, match="non-negative"):
                grid.burn(np.array([[weights]]), class_flat, seeded, 5.0)
        allowed = [1.0] * 6 + [np.nan, np.inf]
        expected = grid.run_uniform(allowed, seeded, 5.0) <= 5.0
        assert expected.any()
        burned = grid.burn(np.array([allowed]), None, seeded, 5.0)
        assert np.array_equal(burned[0], expected)
        assert np.array_equal(
            grid.run_table([allowed], class_flat, seeded, 5.0) <= 5.0, expected
        )

    def test_weight_shapes_are_checked(self):
        offsets = stencil(8)
        grid = FlatGrid((6, 6), offsets)
        seeded = grid.seed([(3, 3)])
        class_flat = [0] * (grid.width * (6 + 2 * grid.pad))
        with pytest.raises(SimulationError):
            grid.run_uniform([1.0] * 7, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.run_table([[1.0] * 8, [1.0] * 7], class_flat, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.run_table([[1.0] * 7], class_flat, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.burn(np.ones((2, 7)), None, seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.burn(np.ones((2, 8)), class_flat, seeded, 5.0)  # no class axis
        if native.load() is not None:  # the Python loops index the table
            with pytest.raises(SimulationError, match="outside"):
                grid.burn(np.ones((2, 1, 8)), [1] * len(class_flat), seeded, 5.0)
        with pytest.raises(SimulationError):
            grid.burn(np.ones((2, 8)), None, seeded, np.inf)

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
