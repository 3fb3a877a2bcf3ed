"""Tests for the Table I parameter space and Scenario codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import TABLE_I_SPECS, ParameterSpace, ParamSpec, Scenario
from repro.errors import ScenarioError


class TestTableISpecs:
    def test_nine_parameters_in_paper_order(self):
        names = [s.name for s in TABLE_I_SPECS]
        assert names == [
            "Model",
            "WindSpd",
            "WindDir",
            "M1",
            "M10",
            "M100",
            "Mherb",
            "Slope",
            "Aspect",
        ]

    def test_exact_paper_ranges(self):
        ranges = {s.name: (s.low, s.high) for s in TABLE_I_SPECS}
        assert ranges == {
            "Model": (1, 13),
            "WindSpd": (0, 80),
            "WindDir": (0, 360),
            "M1": (1, 60),
            "M10": (1, 60),
            "M100": (1, 60),
            "Mherb": (30, 300),
            "Slope": (0, 81),
            "Aspect": (0, 360),
        }

    def test_units_match_paper(self):
        units = {s.name: s.unit for s in TABLE_I_SPECS}
        assert units["WindSpd"] == "miles/hour"
        assert units["M1"] == "percent"
        assert units["Slope"] == "degrees"
        assert "clockwise" in units["WindDir"].lower()

    def test_model_is_integer_parameter(self):
        assert TABLE_I_SPECS[0].integer

    def test_angles_are_circular(self):
        circular = {s.name for s in TABLE_I_SPECS if s.circular}
        assert circular == {"WindDir", "Aspect"}


class TestParamSpec:
    def test_invalid_range_raises(self):
        with pytest.raises(ScenarioError):
            ParamSpec("x", "", 5, 5, "u")

    def test_clip_clamps(self):
        spec = ParamSpec("x", "", 0, 10, "u")
        assert spec.clip(-1.0) == 0.0
        assert spec.clip(11.0) == 10.0
        assert spec.clip(5.0) == 5.0

    def test_clip_wraps_circular(self):
        spec = ParamSpec("a", "", 0, 360, "deg", circular=True)
        assert spec.clip(370.0) == pytest.approx(10.0)
        assert spec.clip(-10.0) == pytest.approx(350.0)

    def test_clip_rounds_integer(self):
        spec = ParamSpec("m", "", 1, 13, "", integer=True)
        assert spec.clip(3.4) == 3.0
        assert spec.clip(3.6) == 4.0
        assert spec.clip(0.2) == 1.0
        assert spec.clip(13.9) == 13.0

    def test_contains(self):
        spec = ParamSpec("x", "", 0, 10, "u")
        assert spec.contains(0.0) and spec.contains(10.0)
        assert not spec.contains(10.1)


class TestParameterSpace:
    def test_dimension(self, space):
        assert space.dimension == 9

    def test_sample_within_bounds(self, space):
        g = space.sample(200, 1)
        assert g.shape == (200, 9)
        assert (g >= space.lower_bounds).all()
        assert (g <= space.upper_bounds).all()

    def test_sample_deterministic(self, space):
        assert np.array_equal(space.sample(5, 42), space.sample(5, 42))

    def test_sample_model_is_integral(self, space):
        g = space.sample(50, 2)
        assert np.array_equal(g[:, 0], np.rint(g[:, 0]))

    def test_sample_negative_raises(self, space):
        with pytest.raises(ScenarioError):
            space.sample(-1, 0)

    def test_clip_single_vector(self, space):
        g = np.array([99.0, 99.0, 361.0, 0.0, 0.0, 0.0, 999.0, 99.0, -1.0])
        c = space.clip(g)
        assert c.shape == (9,)
        space.validate(c)

    def test_clip_dimension_mismatch_raises(self, space):
        with pytest.raises(ScenarioError):
            space.clip(np.zeros(5))

    def test_validate_reports_offender(self, space):
        g = space.sample(1, 0)[0]
        g[1] = 500.0
        with pytest.raises(ScenarioError, match="WindSpd"):
            space.validate(g)

    def test_contains(self, space):
        g = space.sample(1, 3)[0]
        assert space.contains(g)
        g[7] = 90.0
        assert not space.contains(g)

    def test_names(self, space):
        assert space.names()[0] == "Model"

    def test_wrong_spec_count_raises(self):
        with pytest.raises(ScenarioError):
            ParameterSpace(TABLE_I_SPECS[:5])


class TestCodec:
    def test_roundtrip(self, space):
        genome = space.sample(1, 11)[0]
        scenario = space.decode(genome)
        back = space.encode(scenario)
        assert np.allclose(back, genome)

    def test_decode_model_int(self, space):
        genome = space.sample(1, 4)[0]
        genome[0] = 7.2
        s = space.decode(genome)
        assert s.model == 7
        assert isinstance(s.model, int)

    def test_decode_many(self, space):
        scenarios = space.decode_many(space.sample(5, 8))
        assert len(scenarios) == 5
        assert all(isinstance(s, Scenario) for s in scenarios)

    def test_decode_many_is_bitwise_decode_at_wrap_boundaries(self, space):
        """One columnwise clip of the batch == per-genome decode, bit
        for bit: circular wrap edges, signed zeros, ties of the integer
        rounding and out-of-box values on every coordinate."""
        edges = [
            -0.0, 0.0, -1e-17, 1e-300, 0.5, 1.5, 2.5, 12.5, 13.5, 30.0,
            59.99999999999999, 60.0, 81.0, 300.0, 359.99999999999994,
            360.0, 360.00000000000006, 720.0, -360.0, -1.0, 1e9, np.nan,
        ]
        rng = np.random.default_rng(3)
        genomes = rng.choice(edges, size=(400, space.dimension))
        genomes[:, 0] = rng.choice(
            [-3.0, 0.4, 0.5, 1.5, 2.5, 6.5, 7.2, 12.5, 13.5, 14.0], size=400
        )
        genomes[: len(edges), 2] = edges  # WindDir: circular
        genomes[: len(edges), 8] = edges  # Aspect: circular

        def bits(scenarios):
            return [
                (type(s.model), np.array(s.to_genome()).view(np.int64).tolist())
                for s in scenarios
            ]

        assert bits(space.decode_many(genomes)) == bits(
            [space.decode(g) for g in genomes]
        )

    def test_scenario_replace(self, scenario):
        s2 = scenario.replace(wind_speed=33.0)
        assert s2.wind_speed == 33.0
        assert s2.model == scenario.model
        assert scenario.wind_speed != 33.0  # original untouched

    def test_to_genome_order(self, scenario):
        g = scenario.to_genome()
        assert g[0] == scenario.model
        assert g[1] == scenario.wind_speed
        assert g[8] == scenario.aspect


class TestDistance:
    def test_zero_for_identical(self, space):
        g = space.sample(1, 5)[0]
        assert space.distance(g, g) == 0.0

    def test_symmetric(self, space):
        a, b = space.sample(2, 6)
        assert space.distance(a, b) == pytest.approx(space.distance(b, a))

    def test_normalised_upper_bound(self, space):
        lo = space.lower_bounds
        hi = space.upper_bounds
        # circular dims contribute at most 0.5 span
        d = space.distance(lo, hi)
        assert 0 < d <= 1.0

    def test_circular_wraparound(self, space):
        a = space.sample(1, 7)[0].copy()
        b = a.copy()
        a[2], b[2] = 10.0, 350.0  # WindDir wraps: distance 20°, not 340°
        expected = (20.0 / 360.0) / 9
        assert space.distance(a, b) == pytest.approx(expected)

    def test_pairwise_matches_scalar(self, space):
        g = space.sample(4, 9)
        mat = space.pairwise_distances(g)
        assert mat.shape == (4, 4)
        assert np.allclose(np.diag(mat), 0.0)
        assert mat[1, 2] == pytest.approx(space.distance(g[1], g[2]))
        assert np.allclose(mat, mat.T)
