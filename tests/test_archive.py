"""Tests for NoveltyArchive and BestSet (Algorithm 1 accumulators)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import BestSet, NoveltyArchive
from repro.core.individual import Individual
from repro.errors import EvolutionError


def _ind(fit, nov=None, seed=None):
    rng = np.random.default_rng(seed if seed is not None else int(fit * 1e6) % 2**31)
    return Individual(genome=rng.random(9), fitness=fit, novelty=nov)


class TestNoveltyArchive:
    def test_fills_up_to_capacity(self):
        arch = NoveltyArchive(capacity=3)
        arch.update([_ind(0.1, nov=0.5), _ind(0.2, nov=0.4)])
        assert len(arch) == 2
        arch.update([_ind(0.3, nov=0.3), _ind(0.4, nov=0.2)])
        assert len(arch) == 3

    def test_novelty_policy_keeps_most_novel(self):
        arch = NoveltyArchive(capacity=2)
        arch.update([_ind(0.1, nov=0.1), _ind(0.2, nov=0.9)])
        arch.update([_ind(0.3, nov=0.5)])
        novelties = sorted(ind.novelty for ind in arch)
        assert novelties == [0.5, 0.9]  # the 0.1-novelty member was evicted

    def test_min_novelty(self):
        arch = NoveltyArchive(capacity=5)
        assert arch.min_novelty() == 0.0
        arch.update([_ind(0.1, nov=0.3), _ind(0.2, nov=0.7)])
        assert arch.min_novelty() == 0.3

    def test_random_policy_bounded(self):
        arch = NoveltyArchive(capacity=4, policy="random", rng=0)
        for i in range(20):
            arch.update([_ind(i / 20, nov=0.5, seed=i)])
        assert len(arch) == 4

    def test_random_policy_replaces(self):
        arch = NoveltyArchive(capacity=2, policy="random", rng=1)
        arch.update([_ind(0.1, nov=0.1, seed=1), _ind(0.2, nov=0.2, seed=2)])
        before = {id(m) for m in arch.members()}
        for i in range(10):
            arch.update([_ind(0.5, nov=0.9, seed=100 + i)])
        after = {id(m) for m in arch.members()}
        assert before != after

    def test_requires_scores(self):
        arch = NoveltyArchive(capacity=2)
        with pytest.raises(EvolutionError):
            arch.update([Individual(genome=np.zeros(3), fitness=0.5)])  # no novelty
        with pytest.raises(EvolutionError):
            arch.update([Individual(genome=np.zeros(3), novelty=0.5)])  # no fitness

    def test_stores_copies(self):
        ind = _ind(0.5, nov=0.5)
        arch = NoveltyArchive(capacity=2)
        arch.update([ind])
        ind.genome[0] = 999.0
        assert arch.members()[0].genome[0] != 999.0

    def test_fitness_values(self):
        arch = NoveltyArchive(capacity=3)
        arch.update([_ind(0.3, nov=0.2), _ind(0.8, nov=0.9)])
        assert sorted(arch.fitness_values()) == [0.3, 0.8]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_bad_capacity_raises(self, cap):
        with pytest.raises(EvolutionError):
            NoveltyArchive(capacity=cap)

    def test_bad_policy_raises(self):
        with pytest.raises(EvolutionError):
            NoveltyArchive(capacity=2, policy="fifo")

    def test_empty_update_noop(self):
        arch = NoveltyArchive(capacity=2)
        arch.update([])
        assert len(arch) == 0


class TestBestSet:
    def test_keeps_the_fittest(self):
        bs = BestSet(capacity=2)
        bs.update([_ind(0.3), _ind(0.9), _ind(0.1)])
        fits = [ind.fitness for ind in bs]
        assert fits == [0.9, 0.3]

    def test_max_fitness_empty_is_zero(self):
        assert BestSet(capacity=2).max_fitness() == 0.0  # Algorithm 1 line 5

    def test_max_fitness_tracks_all_time_best(self):
        bs = BestSet(capacity=1)
        bs.update([_ind(0.7)])
        bs.update([_ind(0.4)])  # worse later candidates don't displace
        assert bs.max_fitness() == 0.7

    def test_accumulates_across_generations(self):
        # The defining property vs a final population: early good
        # solutions survive arbitrarily many later updates.
        bs = BestSet(capacity=3)
        bs.update([_ind(0.95, seed=1)])
        for g in range(10):
            bs.update([_ind(0.1 + g * 0.01, seed=100 + g)])
        assert bs.max_fitness() == 0.95

    def test_dedupes_identical_genomes(self):
        ind = _ind(0.5, seed=7)
        clone = ind.copy()
        bs = BestSet(capacity=3)
        bs.update([ind, clone])
        assert len(bs) == 1

    def test_dedupe_disabled(self):
        ind = _ind(0.5, seed=7)
        bs = BestSet(capacity=3, dedupe=False)
        bs.update([ind, ind.copy()])
        assert len(bs) == 2

    def test_requires_fitness(self):
        with pytest.raises(EvolutionError):
            BestSet(capacity=2).update([Individual(genome=np.zeros(3))])

    def test_genomes_matrix(self):
        bs = BestSet(capacity=2)
        bs.update([_ind(0.3, seed=1), _ind(0.9, seed=2)])
        g = bs.genomes()
        assert g.shape == (2, 9)

    def test_genomes_empty(self):
        assert BestSet(capacity=2).genomes().shape == (0, 0)

    def test_stores_copies(self):
        ind = _ind(0.5)
        bs = BestSet(capacity=2)
        bs.update([ind])
        ind.fitness = 0.0
        assert bs.max_fitness() == 0.5

    def test_bad_capacity_raises(self):
        with pytest.raises(EvolutionError):
            BestSet(capacity=0)


def _pairwise_dedupe(members, candidates, capacity):
    """The pairwise ``np.array_equal`` merge BestSet used to run: the
    oracle its hash-keyed dedup must reproduce member for member."""
    pool = members + [ind.copy() for ind in candidates]
    pool.sort(key=lambda ind: ind.fitness, reverse=True)
    unique = []
    for ind in pool:
        if any(np.array_equal(ind.genome, u.genome) for u in unique):
            continue
        unique.append(ind)
        if len(unique) == capacity:
            break
    return unique


# few distinct values, so duplicates, signed zeros and NaNs are common
_GENE = st.sampled_from([0.0, -0.0, 1.0, 2.5, np.nan])
_CANDIDATE = st.tuples(
    st.lists(_GENE, min_size=3, max_size=3),
    st.sampled_from([0.1, 0.5, 0.9]),
)


class TestBestSetDedupeOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        batches=st.lists(
            st.lists(_CANDIDATE, max_size=8), min_size=1, max_size=5
        ),
    )
    def test_matches_pairwise_array_equal(self, capacity, batches):
        bs = BestSet(capacity=capacity)
        expected: list[Individual] = []
        for batch in batches:
            candidates = [
                Individual(genome=np.array(genes), fitness=fit)
                for genes, fit in batch
            ]
            bs.update(candidates)
            expected = _pairwise_dedupe(expected, candidates, capacity)
            assert [
                (ind.genome.tobytes(), ind.fitness) for ind in bs
            ] == [(ind.genome.tobytes(), ind.fitness) for ind in expected]

    def test_signed_zero_duplicates_merge_and_nan_never_does(self):
        bs = BestSet(capacity=5)
        nan = Individual(genome=np.array([np.nan, 0.0]), fitness=0.4)
        bs.update(
            [
                Individual(genome=np.array([0.0, 1.0]), fitness=0.9),
                Individual(genome=np.array([-0.0, 1.0]), fitness=0.8),
                nan,
                nan.copy(),
            ]
        )
        assert [ind.fitness for ind in bs] == [0.9, 0.4, 0.4]
