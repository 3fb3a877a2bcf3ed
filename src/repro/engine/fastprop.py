"""Flat-index Dijkstra kernels for the batched simulation engine.

:func:`repro.firelib.propagation.propagate` spends nearly all of its
time in the heap loop, where every relaxation performs two NumPy scalar
index operations (``tt[d, r, c]`` and ``times[nr, nc]``) — each an
order of magnitude slower than a plain ``list`` access. The kernels
here run the *same* algorithm over flattened Python lists:

* the grid is padded with a border so neighbour offsets become a single
  flat-index addition (no bounds checks in the hot loop);
* blocked and border cells hold a ``-inf`` arrival-time sentinel, so
  "can the fire enter this cell" collapses into the ordinary
  ``nt < times[ni]`` relaxation test (always false against ``-inf``);
* travel times are plain Python floats (``np.float64 → float`` is an
  exact conversion, so every addition and comparison produces the same
  IEEE-754 double bit pattern as the reference loop);
* for spatially-uniform scenarios the ``(D, H, W)`` travel-time array
  collapses to ``D`` scalars, skipping the array assembly entirely;
* a :class:`FlatGrid` amortises the padded-grid and ignition-seed setup
  across a whole genome batch (the geometry and the step-start burned
  region never change within a batch).

Travel times must be non-negative (every entry point rejects a
negative one; NaN and ``inf`` are allowed and never relax anything).
With non-negative weights float addition is monotone, so Dijkstra
settles each cell at its minimum arrival time, over the paths into it,
of the same left-to-right float sums, whatever order equal-time cells
leave the heap in. Every arrival time up to the horizon is therefore
order-independent, and the returned ignition-time maps are **bitwise
identical** to the reference propagation — the property-test suite
asserts this for all 13 NFFL fuel models.

The heap loop itself runs in C (``fastprop.c``, built on first use by
:mod:`repro.engine.native`) over NumPy copies of the same padded grid,
seeds and offsets, which a grid converts once and reuses for every
call. The C sweep uses an indexed heap (each cell queued at most once,
improved in place) and starts only from the seeds that can relax a
neighbour, so its pops need not follow the Python loops' ``(time,
index)`` order; by the argument above the maps are the same.
:meth:`FlatGrid.burn` runs a whole batch of per-class ellipse fields
in one native call and returns their burned masks; the kernel turns a
class's fields into travel times when a fire first leaves one of its
cells, with the float operations of :func:`_travel` in their order.
Where no compiler is available the Python loops below run instead; both
give bitwise-equal maps.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine import native
from repro.errors import SimulationError
from repro.firelib.ellipse import ros_at_azimuth
from repro.firelib.rothermel import ROS_EPSILON

__all__ = ["FlatGrid", "propagate_uniform", "propagate_raster"]

_INF = float("inf")
_BLOCKED = float("-inf")


def _travel(
    ros: np.ndarray,
    dir_: np.ndarray,
    ecc: np.ndarray,
    azimuths: np.ndarray,
    distances: np.ndarray,
) -> np.ndarray:
    """Per-direction travel times of ellipse fields, ``(*shape, D)``.

    The NumPy form of the rows ``fastprop_burn`` fills: the spread rate
    along each azimuth (:func:`ros_at_azimuth`), then ``distance /
    rate``, or ``inf`` where the rate is at or below ``ROS_EPSILON``.
    """
    rates = ros_at_azimuth(ros[..., None], dir_[..., None], ecc[..., None], azimuths)
    with np.errstate(divide="ignore"):
        return np.where(rates > ROS_EPSILON, distances / rates, np.inf)


def _nonnegative(weights: np.ndarray) -> np.ndarray:
    """``weights``, unless a travel time is negative (NaN passes)."""
    if (weights < 0).any():
        raise SimulationError("travel times must be non-negative")
    return weights


class FlatGrid:
    """Padded flat-index view of a grid, reusable across a batch.

    Parameters
    ----------
    shape:
        Grid shape ``(rows, cols)``.
    offsets:
        Stencil offsets ``(drow, dcol)``; padding is sized to the
        largest offset so neighbour arithmetic never leaves the array.
    blocked:
        Optional boolean mask of cells fire can never enter.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        offsets: Sequence[tuple[int, int]],
        blocked: np.ndarray | None = None,
    ) -> None:
        rows, cols = shape
        self.rows, self.cols = rows, cols
        self.offsets = tuple(offsets)
        self.pad = max(max(abs(dr), abs(dc)) for dr, dc in self.offsets)
        self.width = cols + 2 * self.pad
        self.flat_offsets = [dr * self.width + dc for dr, dc in self.offsets]

        mask = np.ones((rows + 2 * self.pad, self.width), dtype=bool)
        inner = (
            np.zeros((rows, cols), dtype=bool)
            if blocked is None
            else np.asarray(blocked, dtype=bool)
        )
        if inner.shape != (rows, cols):
            raise SimulationError(
                f"blocked mask shape {inner.shape} != grid {(rows, cols)}"
            )
        mask[self.pad : self.pad + rows, self.pad : self.pad + cols] = inner
        # -inf sentinel: the relaxation test nt < times[ni] is always
        # false against it, so blocked cells need no dedicated branch.
        template = np.where(mask, _BLOCKED, _INF).reshape(-1)
        self._template = template.tolist()
        # Native-kernel inputs, converted once per grid: the sentinel
        # cells a seeded state must keep (bounds safety of the C loop),
        # the offsets, and the last seeded state / class map seen.
        self._sentinels = np.isneginf(template)
        self._offsets_arr = np.asarray(self.flat_offsets, dtype=np.int64)
        self._seed_memo: tuple | None = None
        self._class_memo: tuple | None = None

    # ------------------------------------------------------------------
    def flat_index(self, row: int, col: int) -> int:
        """Flat padded index of cell ``(row, col)``."""
        return (row + self.pad) * self.width + (col + self.pad)

    def seed(
        self,
        ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    ) -> tuple[list[float], list[tuple[float, int]]]:
        """Initial ``(times, heap)`` state for one propagation run.

        Validation matches :func:`repro.firelib.propagation.propagate`:
        out-of-grid cells and negative start times raise, igniting a
        blocked cell is a no-op. The returned lists are templates —
        copy them (:meth:`prepared`) when running many propagations
        from the same ignition set.
        """
        if isinstance(ignitions, Mapping):
            seeds = {(int(r), int(c)): float(t) for (r, c), t in ignitions.items()}
        else:
            seeds = {(int(r), int(c)): 0.0 for (r, c) in ignitions}
        if not seeds:
            raise SimulationError("at least one ignition cell is required")
        times = self._template.copy()
        heap: list[tuple[float, int]] = []
        for (r, c), t0 in seeds.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise SimulationError(
                    f"ignition cell {(r, c)} outside {self.rows}x{self.cols} grid"
                )
            if t0 < 0:
                raise SimulationError(
                    f"ignition time must be non-negative, got {t0}"
                )
            i = self.flat_index(r, c)
            if t0 < times[i]:  # false for blocked cells (-inf sentinel)
                times[i] = t0
                heapq.heappush(heap, (t0, i))
        return times, heap

    # ------------------------------------------------------------------
    def run_uniform(
        self,
        weights: Sequence[float],
        seeded: tuple[list[float], list[tuple[float, int]]],
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with one travel time per direction (uniform terrain).

        ``seeded`` is a ``(times, heap)`` template from :meth:`seed`;
        it is copied, not consumed.
        """
        weights = self._weight_array(weights, 1)
        edges = [
            (off, w)
            for off, w in zip(self.flat_offsets, weights.tolist())
            if w < _INF
        ]
        lib = native.load()
        if lib is not None:
            return self._run_native(
                lib,
                seeded,
                np.array([off for off, _ in edges], dtype=np.int64),
                np.array([w for _, w in edges], dtype=np.float64),
                horizon,
            )
        times, heap = seeded[0].copy(), seeded[1].copy()
        limit = _INF if horizon is None else float(horizon)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            t, i = pop(heap)
            if t > times[i]:
                continue  # stale entry
            if t > limit:
                break  # all remaining arrivals exceed the horizon
            for off, w in edges:
                ni = i + off
                nt = t + w
                if nt < times[ni]:
                    times[ni] = nt
                    push(heap, (nt, ni))
        return self._finish(times, horizon)

    def run_table(
        self,
        weight_table: Sequence[Sequence[float]],
        class_flat: Sequence[int],
        seeded: tuple[list[float], list[tuple[float, int]]],
        horizon: float | None = None,
    ) -> np.ndarray:
        """Propagate with per-cell-class travel times.

        ``class_flat[i]`` indexes ``weight_table`` for the padded flat
        cell ``i``; ``weight_table[k]`` holds the ``D`` per-direction
        travel times of class ``k``. This is the fuel-raster case: at
        most 13 distinct Rothermel ellipses exist per scenario, so the
        ``(D, H, W)`` travel array collapses to a ``K × D`` table.
        """
        table = self._weight_array(weight_table, 2)
        lib = native.load()
        if lib is not None:
            return self._run_native(
                lib,
                seeded,
                self._offsets_arr,
                table.reshape(-1),
                horizon,
                classes=self._native_classes(class_flat, len(table)),
            )
        times, heap = seeded[0].copy(), seeded[1].copy()
        class_edges = [list(zip(self.flat_offsets, row)) for row in table.tolist()]
        limit = _INF if horizon is None else float(horizon)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            t, i = pop(heap)
            if t > times[i]:
                continue  # stale entry
            if t > limit:
                break
            for off, w in class_edges[class_flat[i]]:
                ni = i + off
                nt = t + w
                if nt < times[ni]:
                    times[ni] = nt
                    push(heap, (nt, ni))
        return self._finish(times, horizon)

    def burn(
        self,
        ros: np.ndarray,
        dir_: np.ndarray,
        ecc: np.ndarray,
        azimuths: np.ndarray,
        distances: np.ndarray,
        class_flat: Sequence[int],
        seeded: tuple[list[float], list[tuple[float, int]]],
        horizon: float,
    ) -> np.ndarray:
        """Burned masks of a batch of propagations from one seeded state.

        Run ``k`` spreads the ellipse fields ``ros[k]``, ``dir_[k]``
        and ``ecc[k]`` — ``(n, K)`` arrays, one column per class of the
        padded class map ``class_flat`` — along the stencil's
        ``azimuths`` (degrees) and ``distances``: its travel times are
        the ``(K, D)`` table :func:`_travel` of its fields, and its mask
        is ``run_table(table, class_flat, seeded, horizon) <= horizon``.
        Returns the ``(n, rows, cols)`` bool masks of the cells each run
        ignites by ``horizon`` (inclusive), in one native call that
        fills a class's row of travel times only when a fire first
        leaves a cell of that class.
        """
        ros, dir_, ecc = (
            np.ascontiguousarray(field, dtype=np.float64)
            for field in (ros, dir_, ecc)
        )
        if ros.ndim != 2 or dir_.shape != ros.shape or ecc.shape != ros.shape:
            raise SimulationError(
                f"fields of shapes {ros.shape}, {dir_.shape}, {ecc.shape}: "
                "expected three equal (runs, classes) arrays"
            )
        n_dirs = len(self.flat_offsets)
        azimuths, distances = (
            np.ascontiguousarray(values, dtype=np.float64)
            for values in (azimuths, distances)
        )
        if azimuths.shape != (n_dirs,) or distances.shape != (n_dirs,):
            raise SimulationError(
                f"stencil azimuths {azimuths.shape} and distances "
                f"{distances.shape} for {n_dirs} directions"
            )
        _nonnegative(distances)
        horizon = float(horizon)
        if not math.isfinite(horizon):
            raise SimulationError(f"burn needs a finite horizon, got {horizon}")
        classes = self._native_classes(class_flat, ros.shape[1])
        lib = native.load()
        if lib is None:
            out = np.zeros((len(ros), self.rows, self.cols), dtype=bool)
            for k in range(len(ros)):
                table = _travel(ros[k], dir_[k], ecc[k], azimuths, distances)
                times = self.run_table(table, class_flat, seeded, horizon)
                out[k] = times <= horizon
            return out
        template, seed_t, seed_i = self._native_seed(seeded)
        out = np.empty((len(ros), self.rows, self.cols), dtype=np.uint8)
        status = lib.fastprop_burn(
            out.ctypes.data,
            len(ros),
            template.ctypes.data,
            self.rows,
            self.cols,
            self.pad,
            self.width,
            seed_t.ctypes.data,
            seed_i.ctypes.data,
            seed_t.size,
            self._offsets_arr.ctypes.data,
            n_dirs,
            ros.ctypes.data,
            dir_.ctypes.data,
            ecc.ctypes.data,
            ros.shape[1],
            azimuths.ctypes.data,
            distances.ctypes.data,
            ROS_EPSILON,
            classes.ctypes.data,
            horizon,
        )
        if status != 0:
            raise MemoryError("native propagation kernel: allocation failed")
        return out.view(bool)

    # ------------------------------------------------------------------
    def _weight_array(self, weights, ndim: int) -> np.ndarray:
        """``weights`` as a contiguous float64 array of ``ndim`` axes,
        the last one per stencil direction, with no negative entry."""
        n_dirs = len(self.flat_offsets)
        try:
            array = np.ascontiguousarray(weights, dtype=np.float64)
        except ValueError as exc:  # ragged rows
            raise SimulationError(
                f"weight rows must each have {n_dirs} entries"
            ) from exc
        if array.ndim != ndim or array.shape[-1] != n_dirs:
            raise SimulationError(
                f"weights of shape {array.shape} for {n_dirs} stencil "
                f"directions (expected {ndim} axes)"
            )
        return _nonnegative(array)

    def _native_seed(self, seeded) -> tuple:
        """``(times, seed_times, seed_indices)`` arrays of a seeded state.

        Converted once and remembered for the last state seen (a batch
        reuses one). Checked before any pointer reaches C: the times
        cover the padded grid with every border and blocked sentinel in
        place, and every seed is an open cell — so no relaxation ever
        indexes outside the grid.

        Only the seeds that can relax something are kept. Times only
        decrease and weights are non-negative, so a seed whose every
        stencil neighbour already starts no later than it (the interior
        of a burned region, a cell walled in by sentinels) never
        improves a neighbour; neither does a stale entry later than its
        cell's own time, which the Python loops skip.
        """
        memo = self._seed_memo
        if memo is None or memo[0] is not seeded:
            times = np.array(seeded[0], dtype=np.float64)
            heap = seeded[1]
            seed_t = np.array([t for t, _ in heap], dtype=np.float64)
            seed_i = np.array([i for _, i in heap], dtype=np.int64)
            if (
                times.shape != self._sentinels.shape
                or not np.isneginf(times[self._sentinels]).all()
                or ((seed_i < 0) | (seed_i >= times.size)).any()
                or np.isneginf(times[seed_i]).any()
            ):
                raise SimulationError("seeded state does not match this grid")
            neighbours = times[seed_i[:, None] + self._offsets_arr]
            live = (seed_t <= times[seed_i]) & (
                neighbours > seed_t[:, None]
            ).any(axis=1)
            memo = self._seed_memo = (seeded, times, seed_t[live], seed_i[live])
        return memo[1:]

    def _native_classes(self, class_flat, n_classes: int) -> np.ndarray:
        """``class_flat`` as int64, converted once per class map."""
        memo = self._class_memo
        if memo is None or memo[0] is not class_flat:
            classes = np.ascontiguousarray(class_flat, dtype=np.int64)
            if classes.shape != self._sentinels.shape:
                raise SimulationError(
                    f"class map has {classes.size} cells, padded grid "
                    f"{self._sentinels.size}"
                )
            memo = self._class_memo = (
                class_flat,
                classes,
                int(classes.min()),
                int(classes.max()),
            )
        if memo[2] < 0 or memo[3] >= n_classes:
            raise SimulationError(
                f"class indices [{memo[2]}, {memo[3]}] outside "
                f"{n_classes} classes"
            )
        return memo[1]

    def _run_native(
        self,
        lib,
        seeded,
        offsets: np.ndarray,
        weights: np.ndarray,
        horizon: float | None,
        classes: np.ndarray | None = None,
    ) -> np.ndarray:
        """One sweep of the C kernel; see ``fastprop.c`` for the layout."""
        template, seed_t, seed_i = self._native_seed(seeded)
        times = template.copy()
        status = lib.fastprop_run(
            times.ctypes.data,
            times.size,
            seed_t.ctypes.data,
            seed_i.ctypes.data,
            seed_t.size,
            offsets.ctypes.data,
            offsets.size,
            weights.ctypes.data,
            None if classes is None else classes.ctypes.data,
            _INF if horizon is None else float(horizon),
        )
        if status != 0:
            raise MemoryError("native propagation kernel: allocation failed")
        return self._finish(times, horizon)

    def _finish(
        self, times: list[float] | np.ndarray, horizon: float | None
    ) -> np.ndarray:
        out = np.asarray(times, dtype=np.float64).reshape(
            self.rows + 2 * self.pad, self.width
        )[self.pad : self.pad + self.rows, self.pad : self.pad + self.cols].copy()
        out[np.isneginf(out)] = np.inf  # blocked cells: never ignited
        if horizon is not None:
            out[out > horizon] = np.inf
        return out


# ----------------------------------------------------------------------
# One-shot functional wrappers (tests, ad-hoc use)
# ----------------------------------------------------------------------
def propagate_uniform(
    weights: Sequence[float],
    shape: tuple[int, int],
    offsets: Sequence[tuple[int, int]],
    ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    horizon: float | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Earliest-arrival times when travel cost is uniform per direction.

    ``weights[d]`` is the travel time (minutes) along ``offsets[d]``
    from *any* cell — the homogeneous-terrain case where the Rothermel
    ellipse is the same everywhere. Semantics (including the horizon
    clip to ``inf``) match :func:`repro.firelib.propagation.propagate`.
    """
    grid = FlatGrid(shape, offsets, blocked)
    return grid.run_uniform(weights, grid.seed(ignitions), horizon)


def propagate_raster(
    travel_time: np.ndarray,
    offsets: Sequence[tuple[int, int]],
    ignitions: Iterable[tuple[int, int]] | Mapping[tuple[int, int], float],
    horizon: float | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Earliest-arrival times from a ``(D, H, W)`` travel-time array.

    The heterogeneous-terrain case: same inputs and semantics as
    :func:`repro.firelib.propagation.propagate`, run through
    :meth:`FlatGrid.run_table` with one class per cell (class ``k`` is
    the row-major cell ``k``, its table row that cell's travel times).
    """
    travel_time = np.asarray(travel_time, dtype=np.float64)
    if travel_time.ndim != 3:
        raise SimulationError(
            f"travel_time must be (D, H, W), got shape {travel_time.shape}"
        )
    if travel_time.shape[0] != len(offsets):
        raise SimulationError(
            f"stencil size {len(offsets)} != travel_time directions "
            f"{travel_time.shape[0]}"
        )
    rows, cols = travel_time.shape[1:]
    grid = FlatGrid((rows, cols), offsets, blocked)
    classes = np.zeros((rows + 2 * grid.pad, grid.width), dtype=np.int64)
    classes[grid.pad : grid.pad + rows, grid.pad : grid.pad + cols] = np.arange(
        rows * cols
    ).reshape(rows, cols)
    table = travel_time.reshape(len(offsets), -1).T
    return grid.run_table(
        table, classes.reshape(-1).tolist(), grid.seed(ignitions), horizon
    )
