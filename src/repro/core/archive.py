"""The archive of novel solutions and the ``bestSet`` of Algorithm 1.

Two accumulators drive the paper's search:

* :class:`NoveltyArchive` — "the search incorporates an archive of novel
  solutions that allows it to keep track of the most novel solutions
  discovered so far, and uses it to compute the novelty score". The
  paper manages it "with replacement based on novelty only, as opposed
  to [Doncieux et al. 2020], which uses a randomized approach" — both
  policies are implemented (the randomized one feeds the E5 ablation).
* :class:`BestSet` — "a collection of high fitness individuals which
  were accumulated during the search"; it is the OS output used by the
  Statistical/Calibration/Prediction stages instead of the final
  population.

Both have a fixed capacity in this first version, matching §III-B ("we
are considering a fixed size archive and solution set"); capacities are
constructor parameters so dynamic-size variants can subclass.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.errors import EvolutionError
from repro.rng import ensure_rng

__all__ = ["NoveltyArchive", "ThresholdArchive", "BestSet"]


class NoveltyArchive:
    """Bounded archive of the most novel individuals found so far.

    Parameters
    ----------
    capacity:
        Maximum number of stored individuals (> 0).
    policy:
        ``"novelty"`` (paper default): when full, the archive keeps the
        ``capacity`` most novel individuals among old ∪ new.
        ``"random"``: new candidates replace uniformly-random members
        (the Doncieux et al. 2020 scheme, for the ablation).
    rng:
        Random generator (or seed) used only by the ``"random"`` policy.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "novelty",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if capacity < 1:
            raise EvolutionError(f"archive capacity must be >= 1, got {capacity}")
        if policy not in ("novelty", "random"):
            raise EvolutionError(f"unknown archive policy {policy!r}")
        self._capacity = capacity
        self._policy = policy
        self._rng = ensure_rng(rng)
        self._members: list[Individual] = []

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum size."""
        return self._capacity

    @property
    def policy(self) -> str:
        """Replacement policy name."""
        return self._policy

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def members(self) -> list[Individual]:
        """Snapshot of the archived individuals (shared references)."""
        return list(self._members)

    def fitness_values(self) -> np.ndarray:
        """Fitness vector of the archive (for the novelty reference set)."""
        return np.asarray(
            [ind.fitness for ind in self._members], dtype=np.float64
        )

    # ------------------------------------------------------------------
    def update(self, offspring: Sequence[Individual]) -> None:
        """Algorithm 1 line 15: fold new offspring into the archive.

        Candidates must carry both fitness and novelty scores. Stored
        individuals are copies, so later mutation of the population
        cannot corrupt the archive.
        """
        candidates = []
        for ind in offspring:
            if ind.fitness is None or ind.novelty is None:
                raise EvolutionError(
                    "archive candidates need fitness and novelty scores"
                )
            candidates.append(ind.copy())
        if not candidates:
            return

        if self._policy == "novelty":
            pool = self._members + candidates
            pool.sort(key=lambda ind: ind.novelty, reverse=True)  # type: ignore[arg-type, return-value]
            self._members = pool[: self._capacity]
        else:  # random replacement
            for ind in candidates:
                if len(self._members) < self._capacity:
                    self._members.append(ind)
                else:
                    slot = int(self._rng.integers(0, self._capacity))
                    self._members[slot] = ind

    def min_novelty(self) -> float:
        """Lowest novelty currently stored (0.0 when empty)."""
        if not self._members:
            return 0.0
        return min(ind.novelty for ind in self._members)  # type: ignore[arg-type, return-value]


class ThresholdArchive:
    """Novelty-threshold archive with dynamic adjustment (§IV variant).

    Lehman & Stanley's original archive admits an individual only when
    its novelty exceeds a threshold ρ_min, adapting the threshold to
    the admission rate — the "novelty threshold for including solutions
    in the archive as in [15]" the paper lists as future work. This
    gives a *dynamic-size* archive (another §IV item), optionally
    soft-capped.

    Parameters
    ----------
    threshold:
        Initial ρ_min (> 0).
    adjust_every:
        Adaptation window: after this many ``update`` calls the
        threshold is revised (≥ 1).
    raise_factor / lower_factor:
        Multipliers applied when the window saw "many" admissions
        (> ``target_admissions``) or none at all.
    target_admissions:
        Admissions per window above which the threshold rises.
    max_size:
        Optional hard cap; when exceeded the least novel members are
        dropped (``None`` = unbounded, the classic behaviour).

    The interface matches :class:`NoveltyArchive` (``update``,
    ``members``, ``fitness_values``), so it drops into
    :meth:`repro.ea.nsga.NoveltyGA.run` via its ``archive`` parameter.
    """

    def __init__(
        self,
        threshold: float = 0.05,
        adjust_every: int = 5,
        raise_factor: float = 1.2,
        lower_factor: float = 0.8,
        target_admissions: int = 4,
        max_size: int | None = None,
    ) -> None:
        if threshold <= 0:
            raise EvolutionError(f"threshold must be > 0, got {threshold}")
        if adjust_every < 1:
            raise EvolutionError(f"adjust_every must be >= 1, got {adjust_every}")
        if not (raise_factor > 1.0):
            raise EvolutionError(f"raise_factor must be > 1, got {raise_factor}")
        if not (0.0 < lower_factor < 1.0):
            raise EvolutionError(
                f"lower_factor must be in (0, 1), got {lower_factor}"
            )
        if target_admissions < 1:
            raise EvolutionError(
                f"target_admissions must be >= 1, got {target_admissions}"
            )
        if max_size is not None and max_size < 1:
            raise EvolutionError(f"max_size must be >= 1 or None, got {max_size}")
        self.threshold = threshold
        self._adjust_every = adjust_every
        self._raise = raise_factor
        self._lower = lower_factor
        self._target = target_admissions
        self._max_size = max_size
        self._members: list[Individual] = []
        self._updates_since_adjust = 0
        self._admissions_since_adjust = 0
        self.admissions_total = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def members(self) -> list[Individual]:
        """Snapshot of the archived individuals."""
        return list(self._members)

    def fitness_values(self) -> np.ndarray:
        """Fitness vector of the archive (novelty reference set)."""
        return np.asarray(
            [ind.fitness for ind in self._members], dtype=np.float64
        )

    # ------------------------------------------------------------------
    def update(self, offspring: Sequence[Individual]) -> None:
        """Admit offspring whose novelty clears the current threshold."""
        admitted = 0
        for ind in offspring:
            if ind.fitness is None or ind.novelty is None:
                raise EvolutionError(
                    "archive candidates need fitness and novelty scores"
                )
            if ind.novelty >= self.threshold:
                self._members.append(ind.copy())
                admitted += 1
        self.admissions_total += admitted
        self._admissions_since_adjust += admitted
        self._updates_since_adjust += 1

        if self._updates_since_adjust >= self._adjust_every:
            if self._admissions_since_adjust > self._target:
                self.threshold *= self._raise
            elif self._admissions_since_adjust == 0:
                self.threshold *= self._lower
            self._updates_since_adjust = 0
            self._admissions_since_adjust = 0

        if self._max_size is not None and len(self._members) > self._max_size:
            self._members.sort(key=lambda i: i.novelty, reverse=True)  # type: ignore[arg-type, return-value]
            del self._members[self._max_size :]


class BestSet:
    """Bounded, fitness-sorted accumulator of the best solutions found.

    This is the OS output of Fig. 3: "a collection of high fitness
    individuals which were accumulated during the search". Identical
    genomes are deduplicated (keeping the better-scored copy) so the set
    spans *different* scenarios — storing clones would defeat its
    uncertainty-reduction purpose (§II-B discusses exactly this failure
    mode for converged populations).
    """

    def __init__(self, capacity: int, dedupe: bool = True) -> None:
        if capacity < 1:
            raise EvolutionError(f"bestSet capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._dedupe = dedupe
        self._members: list[Individual] = []

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum size."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def members(self) -> list[Individual]:
        """Individuals sorted by decreasing fitness."""
        return list(self._members)

    def genomes(self) -> np.ndarray:
        """Genome matrix of the set, shape ``(n, d)``."""
        if not self._members:
            return np.zeros((0, 0))
        return np.stack([ind.genome for ind in self._members])

    def max_fitness(self) -> float:
        """Algorithm 1 line 18: best fitness seen (0.0 when empty)."""
        if not self._members:
            return 0.0
        return float(self._members[0].fitness)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def update(self, candidates: Iterable[Individual]) -> None:
        """Algorithm 1 line 17: merge candidates, keep the fittest.

        Candidates must be fitness-evaluated; stored individuals are
        copies.
        """
        new = []
        for ind in candidates:
            if ind.fitness is None:
                raise EvolutionError("bestSet candidates need a fitness score")
            new.append(ind.copy())
        if not new:
            return
        pool = self._members + new
        pool.sort(key=lambda ind: ind.fitness, reverse=True)  # type: ignore[arg-type, return-value]
        if self._dedupe:
            # One hash probe per genome instead of a pairwise scan.
            # ``+ 0.0`` folds -0.0 into 0.0, as ``np.array_equal``
            # does; a genome holding NaN equals nothing, itself
            # included, so it is always kept and never keyed.
            unique: list[Individual] = []
            seen: set[tuple] = set()
            for ind in pool:
                if not np.isnan(ind.genome).any():
                    key = (ind.genome.shape, (ind.genome + 0.0).tobytes())
                    if key in seen:
                        continue
                    seen.add(key)
                unique.append(ind)
                if len(unique) == self._capacity:
                    break
            self._members = unique
        else:
            self._members = pool[: self._capacity]
