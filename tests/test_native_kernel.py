"""The native propagation kernel's build cache and its Python fallback.

Whatever happens to the build — no compiler, no writable cache
directory, a damaged cached library — propagation must not raise and
must return the maps the Python loops return, bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.scenario import ParameterSpace
from repro.engine import SimulationEngine, native
from repro.engine.fastprop import FlatGrid, propagate_raster, propagate_uniform
from repro.firelib.propagation import _offset_azimuth_deg, stencil
from repro.grid.terrain import Terrain
from repro.obs import telemetry
from repro.systems.problem import PredictionStepProblem

HAS_COMPILER = native.compiler() is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler")


def _maps() -> list[np.ndarray]:
    """One run of each kernel and a batch of each burn mode: timed
    seeds, blocked cells, inf weights, fields that never spread."""
    rng = np.random.default_rng(5)
    offsets = stencil(8)
    size = 20
    blocked = rng.random((size, size)) < 0.1
    seeds = {(10, 10): 0.0, (3, 4): 2.5}
    for cell in seeds:
        blocked[cell] = False
    travel = rng.uniform(0.5, 4.0, (len(offsets), size, size))
    travel[rng.random(travel.shape) < 0.1] = np.inf
    grid = FlatGrid((size, size), offsets, blocked)
    seeded = grid.seed(seeds)
    classes = np.zeros((size + 2 * grid.pad, grid.width), dtype=np.int64)
    classes[grid.pad : grid.pad + size, grid.pad : grid.pad + size] = (
        rng.integers(0, 3, (size, size))
    )
    table = rng.uniform(0.5, 4.0, (3, len(offsets)))
    class_flat = classes.reshape(-1).tolist()
    azimuths = np.arange(len(offsets)) * 45.0
    distances = np.array([np.hypot(dr, dc) for dr, dc in offsets])
    ros = rng.uniform(0.1, 1.0, (4, 3))
    ros[1, 0] = 0.0
    dir_ = rng.uniform(0.0, 360.0, (4, 3))
    ecc = rng.uniform(0.0, 0.9, (4, 3))
    return [
        grid.run_uniform(travel[:, 0, 0].tolist(), seeded, horizon=15.0),
        grid.run_table(table.tolist(), class_flat, seeded, 15.0),
        propagate_raster(travel, offsets, seeds, horizon=None, blocked=blocked),
        grid.burn(
            ros[:, :1],
            dir_[:, :1],
            ecc[:, :1],
            azimuths,
            distances,
            [0] * len(class_flat),
            seeded,
            15.0,
        ),
        grid.burn(ros, dir_, ecc, azimuths, distances, class_flat, seeded, 15.0),
    ]


@pytest.fixture(scope="module")
def python_maps() -> list[np.ndarray]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "load", lambda: None)
        return _maps()


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader whose only cache directories lie under ``tmp_path``."""
    monkeypatch.setattr(native, "_loaded", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def _assert_maps(expected: list[np.ndarray]) -> None:
    for want, got in zip(expected, _maps()):
        assert want.tobytes() == got.tobytes()


def _unwritable(root) -> str:
    """A path no directory can be created under (its parent is a file)."""
    blocker = root / "not-a-dir"
    blocker.write_bytes(b"")
    return str(blocker / "cache")


@needs_compiler
def test_native_kernel_loads(fresh_loader, python_maps):
    assert native.load() is not None
    assert native.impl() == "native"
    built = list((fresh_loader / "xdg" / "repro-fastprop").glob("*.so"))
    assert len(built) == 1
    _assert_maps(python_maps)
    # a second process-level load finds the cached build, compiles nothing
    native._loaded = native._UNSET
    assert native.load() is not None
    assert list(built[0].parent.iterdir()) == built


def test_no_compiler_falls_back_to_python(fresh_loader, monkeypatch, python_maps):
    monkeypatch.setattr(native, "compiler", lambda: None)
    assert native.load() is None
    assert native.impl() == "python"
    _assert_maps(python_maps)


def test_unwritable_cache_dirs_fall_back_to_python(
    fresh_loader, monkeypatch, python_maps
):
    bad = _unwritable(fresh_loader)
    monkeypatch.setenv("XDG_CACHE_HOME", bad)
    monkeypatch.setenv("HOME", bad)
    monkeypatch.setattr(tempfile, "tempdir", bad)
    assert native.load() is None
    assert native.impl() == "python"
    _assert_maps(python_maps)


@needs_compiler
def test_unwritable_cache_dir_uses_the_next(fresh_loader, monkeypatch, python_maps):
    monkeypatch.setenv("XDG_CACHE_HOME", _unwritable(fresh_loader))
    assert native.impl() == "native"
    assert list((fresh_loader / "home" / ".cache" / "repro-fastprop").glob("*.so"))
    _assert_maps(python_maps)


@needs_compiler
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_damaged_cached_library_is_rebuilt(fresh_loader, python_maps, damage):
    # a good build elsewhere supplies the name and bytes to damage
    key = native.library_key(native.compiler())
    good = native._build(native.compiler(), fresh_loader, key)
    data = good.read_bytes()
    cache = fresh_loader / "xdg" / "repro-fastprop"
    cache.mkdir(parents=True)
    damaged = cache / good.name
    damaged.write_bytes(
        data[: len(data) // 2] if damage == "truncated" else b"\x7fELF" + bytes(200)
    )
    assert native._cached(cache, key) is None  # never loaded
    assert native.impl() == "native"
    assert native._cached(cache, key) is not None  # rebuilt
    _assert_maps(python_maps)


_WEIGHTS = [1.0, 1.5, 2.0, 2.5, 1.0, 1.5, 2.0, 2.5]
_CHILD = f"""
import hashlib
from repro.engine import native
from repro.engine.fastprop import propagate_uniform
from repro.firelib.propagation import stencil
out = propagate_uniform({_WEIGHTS!r}, (30, 30), stencil(8), [(15, 15)])
print(native.impl(), hashlib.sha256(out.tobytes()).hexdigest())
"""


@needs_compiler
def test_concurrent_first_builds_each_load_a_whole_library(
    tmp_path, monkeypatch
):
    """More processes than cores build into one empty cache at once."""
    monkeypatch.setattr(native, "load", lambda: None)
    expected = hashlib.sha256(
        propagate_uniform(_WEIGHTS, (30, 30), stencil(8), [(15, 15)]).tobytes()
    ).hexdigest()
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    try:
        outputs = [proc.communicate(timeout=120)[0].split() for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0] * 4
    assert outputs == [["native", expected]] * 4
    cache = tmp_path / "repro-fastprop"
    assert list(cache.glob("*.so"))
    assert not list(cache.glob(".*.tmp"))  # no half-written leftovers


def _kernel_calls() -> dict[tuple[str, str], float]:
    """This process's kernel call counters (not series folded from workers)."""
    return {
        (e["labels"]["kernel"], e["labels"].get("impl")): e["value"]
        for e in telemetry().snapshot()
        if e["name"] == "repro_engine_kernel_calls_total"
        and set(e["labels"]) <= {"kernel", "impl"}
    }


@pytest.mark.parametrize("impl", ["native", "python"])
def test_kernel_metrics_name_the_impl(monkeypatch, impl):
    if impl == "python":
        monkeypatch.setattr(native, "load", lambda: None)
    elif not HAS_COMPILER:
        pytest.skip("no C compiler")
    rng = np.random.default_rng(3)
    start = np.zeros((12, 12), dtype=bool)
    start[5:7, 5:7] = True
    terrains = {
        "uniform": Terrain.uniform(12, 12),
        "raster": Terrain(12, 12, slope=rng.uniform(0.0, 30.0, (12, 12))),
    }
    genomes = ParameterSpace().sample(3, 4)
    before = _kernel_calls()
    for terrain in terrains.values():
        problem = PredictionStepProblem(
            terrain=terrain,
            start_burned=start,
            real_burned=start | (rng.random((12, 12)) < 0.2),
            horizon=20.0,
        )
        SimulationEngine.from_problem(problem, backend="vectorized")(genomes)
    after = _kernel_calls()
    grew = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value > before.get(key, 0)
    }
    # one count per deduplicated genome, whatever the mode
    assert grew == {("uniform", impl): len(genomes), ("raster", impl): len(genomes)}


def _libm_cos_probes(n: int) -> np.ndarray:
    """``n`` seeded angles of the kind the kernel's rows take: a stencil
    azimuth minus a heading, in radians."""
    rng = np.random.default_rng(300_000)
    azimuths = [_offset_azimuth_deg(dr, dc) for dr, dc in stencil(16)]
    headings = rng.uniform(0.0, 360.0, n)
    return np.radians(rng.choice(azimuths, n) - headings)


@needs_compiler
def test_cos_guard_passes_where_the_kernel_loads():
    """Where the kernel loads, its libm ``cos`` equals ``np.cos`` on the
    load-time probes and on 300k more seeded row angles."""
    lib = native.load()
    if lib is None:
        pytest.skip("libm cos disagrees with np.cos here: the kernel is off")
    assert native.cos_agrees(lib)
    angles = _libm_cos_probes(300_000)
    got = np.empty_like(angles)
    lib.fastprop_cos(got.ctypes.data, angles.ctypes.data, angles.size)
    assert got.tobytes() == np.cos(angles).tobytes()


def _cos_library(ulps_off: int):
    """A stand-in kernel library whose ``cos`` is ``np.cos``, moved
    ``ulps_off`` ulps up on the middle probe."""

    def fastprop_cos(out, x, n):
        values = np.cos(np.frombuffer((ctypes.c_double * n).from_address(x)))
        for _ in range(ulps_off):
            values[n // 2] = np.nextafter(values[n // 2], np.inf)
        ctypes.memmove(out, values.ctypes.data, values.nbytes)

    return type("CosLibrary", (), {"fastprop_cos": staticmethod(fastprop_cos)})


def test_cos_guard_catches_one_ulp():
    assert native.cos_agrees(_cos_library(0))
    assert not native.cos_agrees(_cos_library(1))


@needs_compiler
def test_cos_mismatch_falls_back_to_python(fresh_loader, monkeypatch, python_maps):
    monkeypatch.setattr(native, "cos_agrees", lambda lib: False)
    assert native.load() is None
    assert native.impl() == "python"
    _assert_maps(python_maps)
