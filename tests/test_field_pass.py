"""Bitwise parity of the batched Rothermel field pass.

The vectorized backend computes the spread fields of a whole genome
batch in one genome-axis × terrain-class pass built on
:meth:`FuelBed.no_wind_rates`, :meth:`FuelBed.phi_winds` and
:meth:`FuelBed.effective_winds_scalar`. Each must equal its scalar
counterpart bit for bit, and the gathered per-cell fields must equal
:meth:`FireSimulator.spread_fields` of every genome. The inputs are
seeded so that they include values where ``np.power`` and libm ``pow``
round differently (where the platform's ``np.power`` loop does):
replacing a per-element ``**`` by an array power fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import ParameterSpace
from repro.engine.backends import StepSpec, VectorizedBackend
from repro.errors import ScenarioError
from repro.firelib.moisture import Moisture, moisture_matrix
from repro.firelib.rothermel import FuelBed
from repro.firelib.simulator import FireSimulator
from repro.grid.terrain import Terrain
from repro.units import MPH_TO_FTMIN

SPACE = ParameterSpace()
MODELS = range(1, 14)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _require_power_split(array_power, libm_power) -> None:
    """Skip unless this platform's ``np.power`` loop rounds some of
    the seeded inputs differently from libm ``pow`` (it does with
    NumPy's AVX-512 loops); where the two agree, an array power could
    not break parity, so there is nothing to guard."""
    if _bits(array_power) == _bits(libm_power):
        pytest.skip("np.power matches libm pow on these inputs here")


def _moistures(n: int, seed: int) -> np.ndarray:
    """Table I moistures as fractions, plus extinction edge rows."""
    fractions = SPACE.sample(n, seed)[:, 3:7] / 100.0
    edges = np.array(
        [
            [0.01, 0.01, 0.01, 0.30],  # driest
            [0.60, 0.60, 0.60, 3.00],  # wettest: above every extinction
            [0.12, 0.12, 0.12, 0.30],  # model 1 dead extinction exactly
            [0.25, 0.25, 0.25, 1.00],  # at the 0.25 extinctions
            [0.40, 0.01, 0.01, 0.30],
            [0.0, 0.0, 0.0, 0.0],  # Moisture's lower bounds
            [1.0, 1.0, 1.0, 4.0],  # and upper bounds
        ]
    )
    return np.concatenate([edges, fractions])


def _scalar_rates(bed: FuelBed, moistures: np.ndarray) -> list[float]:
    return [bed.no_wind_rate(Moisture(*row)) for row in moistures.tolist()]


class TestNoWindRates:
    @pytest.mark.parametrize("model", MODELS)
    def test_bitwise_no_wind_rate_on_every_model(self, model):
        bed = FuelBed.for_model(model)
        moistures = _moistures(1024, seed=model)
        got = bed.no_wind_rates(moistures)
        assert got.shape == (len(moistures),)
        assert _bits(got) == _bits(_scalar_rates(bed, moistures))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_batch_sizes(self, n):
        bed = FuelBed.for_model(2)
        moistures = _moistures(16, seed=3)[:n]
        got = bed.no_wind_rates(moistures)
        assert got.shape == (n,)
        assert _bits(got) == _bits(_scalar_rates(bed, moistures))

    def test_covers_extinction_and_beds_without_live_fuel(self):
        moistures = _moistures(256, seed=11)
        dead_only = [m for m in MODELS if FuelBed.for_model(m).p_dead.all()]
        assert dead_only  # e.g. model 1 short grass
        for model in dead_only:
            bed = FuelBed.for_model(model)
            rates = bed.no_wind_rates(moistures)
            assert (rates == 0.0).any() and (rates > 0.0).any()
            assert _bits(rates) == _bits(_scalar_rates(bed, moistures))

    def test_inputs_hit_where_np_power_rounds_differently(self):
        """The seeded dead-moisture ratios include values whose
        ``np.power`` cube or square is not libm's: an array-power
        ``eta_m`` cannot pass the parity tests above."""
        bed = FuelBed.for_model(1)  # one dead particle: rm = m1 / mext
        rm = _moistures(1024, seed=1)[:, 0] / bed.model.mext_dead
        rm = rm[rm < 1.0].tolist()
        _require_power_split(
            np.power(rm + rm, [3.0] * len(rm) + [2.0] * len(rm)),
            [r**3 for r in rm] + [r**2 for r in rm],
        )

    def test_out_of_range_raises_moisture_error(self):
        moistures = _moistures(8, seed=5)
        moistures[5, 3] = 4.5  # herbaceous percent passed as fraction
        with pytest.raises(ScenarioError) as batch:
            FuelBed.for_model(2).no_wind_rates(moistures)
        with pytest.raises(ScenarioError) as single:
            Moisture(*moistures[5].tolist())
        assert str(batch.value) == str(single.value)

    def test_nan_and_shape_are_rejected(self):
        with pytest.raises(ScenarioError):
            moisture_matrix([[np.nan, 0.1, 0.1, 1.0]])
        with pytest.raises(ScenarioError):
            moisture_matrix([0.1, 0.1, 0.1, 1.0])


class TestWindPowers:
    @pytest.mark.parametrize("model", MODELS)
    def test_phi_winds_bitwise_phi_wind(self, model):
        bed = FuelBed.for_model(model)
        winds = np.concatenate(
            [[0.0, -0.0, -3.0, 1e-300], SPACE.sample(4096, model)[:, 1]]
        ) * MPH_TO_FTMIN
        expected = [bed.phi_wind(u) for u in winds.tolist()]
        assert _bits(bed.phi_winds(winds)) == _bits(expected)

    def test_winds_hit_where_np_power_rounds_differently(self):
        bed = FuelBed.for_model(1)
        winds = SPACE.sample(4096, 1)[:, 1] * MPH_TO_FTMIN
        _require_power_split(
            bed.wind_k * np.power(winds, bed.wind_b),
            [bed.phi_wind(u) for u in winds.tolist()],
        )

    def test_effective_winds_scalar_match_numpy_scalars(self):
        bed = FuelBed.for_model(4)
        rng = np.random.default_rng(8)
        phi = rng.uniform(0.0, 40.0, (64, 64))
        expected = [
            bed.effective_wind(np.float64(p)) for p in phi.reshape(-1)
        ]
        got = bed.effective_winds_scalar(phi)
        assert got.shape == phi.shape
        assert _bits(got.reshape(-1)) == _bits(expected)
        _require_power_split(bed.effective_wind(phi).reshape(-1), expected)


def _terrains() -> dict[str, Terrain]:
    rng = np.random.default_rng(21)
    return {
        "uniform": Terrain.uniform(10, 10),
        "fuel": Terrain.with_fuel_patches(
            10,
            10,
            base_model=4,
            patches=[
                (slice(0, 5), slice(5, 10), 9),
                (slice(7, 10), slice(0, 3), 0),  # unburnable pocket
                (slice(0, 3), slice(0, 3), 1),  # dead-only bed
            ],
        ),
        "ridge": Terrain.with_ridge(10, 10),
        "continuous": Terrain(
            10,
            10,
            slope=rng.uniform(0.0, 45.0, (10, 10)),
            aspect=rng.uniform(0.0, 360.0, (10, 10)),
        ),
        "slope-only": Terrain(
            10, 10, slope=rng.integers(0, 5, (10, 10)) * 7.0
        ),
    }


class TestFieldPass:
    @pytest.mark.parametrize("name", list(_terrains()))
    def test_fields_match_spread_fields(self, name):
        """Every mode's per-class fields, gathered onto the cells, are
        :meth:`FireSimulator.spread_fields` bit for bit."""
        terrain = _terrains()[name]
        start = np.zeros(terrain.shape, dtype=bool)
        start[5, 5] = True
        backend = VectorizedBackend(
            StepSpec(
                terrain=terrain,
                start_burned=start,
                real_burned=start,
                horizon=10.0,
                space=SPACE,
            )
        )
        genomes = SPACE.sample(301, 17)
        genomes[:40, 1] = 0.0  # no wind
        genomes[40:80, 7] = 0.0  # flat
        genomes[80:120, 3:6] = 60.0  # soaked: at/above extinction
        fields = backend._fields(SPACE.decode_matrix(genomes))
        cells = backend._class_of_cell
        simulator = FireSimulator(terrain)
        for i, genome in enumerate(genomes):
            expected = simulator.spread_fields(SPACE.decode(genome))
            for got, want in zip(fields, expected):
                assert _bits(got[i][cells]) == _bits(want)

    def test_empty_batch(self):
        terrain = Terrain.uniform(6, 6)
        start = np.zeros(terrain.shape, dtype=bool)
        start[3, 3] = True
        backend = VectorizedBackend(
            StepSpec(
                terrain=terrain,
                start_burned=start,
                real_burned=start,
                horizon=5.0,
                space=SPACE,
            )
        )
        ros, dir_, ecc = backend._fields(SPACE.decode_matrix(np.zeros((0, 9))))
        assert ros.shape == dir_.shape == ecc.shape == (0, 1)
