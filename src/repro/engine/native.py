"""Build-on-first-use loader of the native propagation kernel.

:mod:`repro.engine.fastprop` runs its Dijkstra sweeps through the C
kernel in ``fastprop.c`` whenever :func:`load` can provide it. The first
call compiles that file with the interpreter's C compiler (``sysconfig``
``CC``, else ``cc`` on ``PATH``) into a per-user cache directory and
loads it with :mod:`ctypes`; later calls, and later processes, reuse the
cached library. The library name carries a hash of the source, the
compiler command, the flags and the platform, so an edited kernel is
rebuilt, never confused with a stale one, and a digest of the library's
own bytes, checked before loading.

Cache directory: ``$XDG_CACHE_HOME/repro-fastprop``, else
``~/.cache/repro-fastprop``, else ``repro-fastprop`` in the system temp
dir — the first one that works. A build is written under a temporary
name and published with :func:`os.replace`, so concurrent builders (pool
workers starting together) never load a half-written library. A cached
library whose bytes do not match its digest (truncated, corrupt) is
never loaded; a fresh build replaces it.

The kernel computes travel times with libm ``cos`` where the NumPy
path takes ``np.cos``; :func:`load` checks the two bitwise on a fixed
set of probe angles (:func:`cos_agrees`) and refuses a kernel that
disagrees.

When there is no compiler, every build or load fails, or the ``cos``
check fails, :func:`load` returns ``None`` and the kernels run their
Python loops — bitwise the same results, only slower. :func:`impl`
names the one in use.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "SOURCE",
    "FLAGS",
    "LIBS",
    "compiler",
    "cache_dirs",
    "library_key",
    "cos_agrees",
    "load",
    "impl",
]

#: The kernel source, compiled on first use.
SOURCE = Path(__file__).with_name("fastprop.c")
#: Compiler flags. No ``-ffast-math`` and no floating-point contraction:
#: the kernel must add and compare doubles exactly as Python does.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: Libraries linked after the source: the travel rows call libm ``cos``.
LIBS = ("-lm",)

_UNSET = object()
_loaded: object = _UNSET
_lock = threading.Lock()

_ptr, _i64 = ctypes.c_void_p, ctypes.c_int64
_RUN_ARGTYPES = [
    _ptr,  # times (float64[n_cells], updated in place)
    _i64,  # n_cells
    _ptr,  # seed times (float64[n_seeds])
    _ptr,  # seed flat indices (int64[n_seeds])
    _i64,  # n_seeds
    _ptr,  # flat neighbour offsets (int64[n_dirs])
    _i64,  # n_dirs
    _ptr,  # weights (float64[n_classes, n_dirs], or [n_dirs] without classes)
    _ptr,  # per-cell class indices (int64[n_cells]) or NULL
    ctypes.c_double,  # limit
]
_BURN_ARGTYPES = [
    _ptr,  # burned masks (uint8[n_runs, rows, cols], written)
    _i64,  # n_runs
    _ptr,  # initial times (float64[n_cells])
    _i64,  # rows
    _i64,  # cols
    _i64,  # pad
    _i64,  # width (n_cells = (rows + 2 * pad) * width)
    _ptr,  # seed times (float64[n_seeds])
    _ptr,  # seed flat indices (int64[n_seeds])
    _i64,  # n_seeds
    _ptr,  # flat neighbour offsets (int64[n_dirs])
    _i64,  # n_dirs
    _ptr,  # ros (float64[n_runs, n_classes])
    _ptr,  # heading, degrees (float64[n_runs, n_classes])
    _ptr,  # eccentricity (float64[n_runs, n_classes])
    _i64,  # n_classes
    _ptr,  # stencil azimuths, degrees (float64[n_dirs])
    _ptr,  # stencil distances (float64[n_dirs])
    ctypes.c_double,  # spread-rate epsilon
    _ptr,  # per-cell class indices (int64[n_cells])
    ctypes.c_double,  # limit
]
_COS_ARGTYPES = [
    _ptr,  # out (float64[n], written)
    _ptr,  # angles, radians (float64[n])
    _i64,  # n
]


def compiler() -> list[str] | None:
    """The C compiler command to build with, or ``None`` if there is none."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    fallback = shutil.which("cc")
    return [fallback] if fallback else None


def cache_dirs() -> list[Path]:
    """Candidate build-cache directories, in order of preference."""
    dirs = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        dirs.append(Path(xdg) / "repro-fastprop")
    home = os.path.expanduser("~")
    if home != "~":
        dirs.append(Path(home) / ".cache" / "repro-fastprop")
    # The temp dir is shared between users: one directory per user.
    uid = os.getuid() if hasattr(os, "getuid") else ""
    dirs.append(Path(tempfile.gettempdir()) / f"repro-fastprop-{uid}")
    return dirs


def _private(directory: Path) -> bool:
    """Whether only this user can write ``directory``.

    Code loaded from a directory another user can write is code that
    user chose, whatever digest its name carries.
    """
    st = directory.stat()
    owned = not hasattr(os, "getuid") or st.st_uid == os.getuid()
    return owned and not st.st_mode & 0o022


def library_key(cc: list[str]) -> str:
    """Hash of what a build depends on: source, compiler, flags,
    libraries, platform."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*cc, *FLAGS, *LIBS, sys.platform, platform.machine()):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:16]


def _content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cached(directory: Path, key: str) -> Path | None:
    """A cached build of ``key`` whose bytes match the digest in its name.

    Loading a truncated shared object can crash the process (``SIGBUS``)
    instead of failing, so nothing is loaded unverified.
    """
    for path in sorted(directory.glob(f"fastprop-{key}-*.so")):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        if path.stem.rsplit("-", 1)[1] == _content_digest(data):
            return path
    return None


def _build(cc: list[str], directory: Path, key: str) -> Path:
    """Compile into ``directory`` and publish under a verifiable name."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fastprop-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
            check=True,
            capture_output=True,
            timeout=120,
        )
        with open(tmp, "rb") as fh:
            digest = _content_digest(fh.read())
        path = directory / f"fastprop-{key}-{digest}.so"
        os.replace(tmp, path)
        return path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
        entries = (
            (lib.fastprop_run, _RUN_ARGTYPES, ctypes.c_int),
            (lib.fastprop_burn, _BURN_ARGTYPES, ctypes.c_int),
            (lib.fastprop_cos, _COS_ARGTYPES, None),
        )
    except (OSError, AttributeError):
        return None
    for entry, argtypes, restype in entries:
        entry.argtypes = argtypes
        entry.restype = restype
    return lib


def _cos_probes() -> np.ndarray:
    """Fixed probe angles: the range the kernel's rows take, ``(az -
    heading)`` in radians over ``(-2π, 2π)``, seeded, plus exact
    multiples of a quarter turn."""
    rng = np.random.default_rng(0x5EED)
    degrees = rng.uniform(0.0, 360.0, 4096) - rng.uniform(0.0, 360.0, 4096)
    quarters = np.arange(-8, 9) * 90.0
    return np.radians(np.concatenate([degrees, quarters]))


def cos_agrees(lib) -> bool:
    """Whether the kernel's libm ``cos`` equals ``np.cos`` bitwise on
    the fixed probe angles.

    The NumPy path and the reference simulator take ``np.cos``; a
    kernel whose ``cos`` rounds one probe differently could break the
    bitwise parity of its maps, so :func:`load` refuses it.
    """
    probes = _cos_probes()
    got = np.empty_like(probes)
    lib.fastprop_cos(got.ctypes.data, probes.ctypes.data, probes.size)
    return got.tobytes() == np.cos(probes).tobytes()


def _build_and_load() -> ctypes.CDLL | None:
    cc = compiler()
    if cc is None:
        return None
    try:
        key = library_key(cc)
    except OSError:  # the source is not installed
        return None
    for directory in cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(directory):
                continue
            path = _cached(directory, key) or _build(cc, directory, key)
        except (OSError, subprocess.SubprocessError):
            continue  # unwritable directory or failed build
        lib = _open(path)
        if lib is not None:
            return lib if cos_agrees(lib) else None
    return None


def load() -> ctypes.CDLL | None:
    """The native kernel library, built on first use; ``None`` without
    one, or when its ``cos`` disagrees with NumPy's (:func:`cos_agrees`).

    The outcome (library or ``None``) is remembered for the life of the
    process, so a machine without a compiler tries to build once.
    """
    global _loaded
    if _loaded is _UNSET:
        with _lock:
            if _loaded is _UNSET:
                _loaded = _build_and_load()
    return _loaded  # type: ignore[return-value]


def impl() -> str:
    """Which kernel implementation runs: ``"native"`` or ``"python"``."""
    return "python" if load() is None else "native"
