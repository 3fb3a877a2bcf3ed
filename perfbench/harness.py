"""Shared plumbing of the benchmark driver: paths, scratch space,
child processes, statistics, run metadata and the result line.

The benchmark writes only inside the checkout it runs from: every
store, spool and child temp file goes in a private directory under
``.perfbench_tmp/`` (ignored by git), removed when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_SPEC = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def require_program() -> None:
    """Put the program's sources on ``sys.path`` or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run the benchmark "
            "from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmpdir: Path) -> dict:
    """Environment for child processes: program on the path, ``tmpdir``
    as their temp dir, no inherited telemetry settings."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PYTHONPATH"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


class Scratch:
    """A private temporary directory under ``<checkout>/.perfbench_tmp``."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix=f"run{os.getpid()}-", dir=base)
        self.path = Path(self._tmp.name)

    def mkdtemp(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.path))

    def close(self) -> None:
        self._tmp.cleanup()
        try:
            self.path.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass


class Children:
    """Every child process the driver starts; all are killed and
    reaped on close, whatever path leads there."""

    def __init__(self, tmpdir: Path) -> None:
        self._tmpdir = tmpdir
        self._procs: list[subprocess.Popen] = []

    def spawn(self, args: list[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", child_env(self._tmpdir))
        kwargs.setdefault("cwd", str(ROOT))
        proc = subprocess.Popen(args, start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 5.0) -> None:
        """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps."""
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def close(self) -> None:
        for proc in list(reversed(self._procs)):
            self.stop(proc, grace=2.0)


def install_signal_exit() -> None:
    """Turn SIGTERM/SIGHUP into SystemExit so ``finally`` blocks run."""

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _exit)


# ----------------------------------------------------------------------
# statistics
def median(values) -> float:
    values = sorted(float(v) for v in values)
    if not values:
        raise BenchError("median of no samples")
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    values = sorted(float(v) for v in values)
    if not values:
        raise BenchError("percentile of no samples")
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# metadata
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "unix_time": time.time(),
    }


def load_spec() -> dict:
    with open(BENCH_SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def emit(report: dict, metrics: dict, attempted: int, failed: int) -> None:
    """Print the full report, then the one-line result last."""
    spec = load_spec()
    section = "per_layer" if report["meta"]["trace"] else "end_to_end"
    out = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"workload did not measure {name!r}")
        value = float(metrics[name])
        if not math.isfinite(value):
            raise BenchError(f"{name} is not finite: {value!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    report["failed_frac"] = failed / attempted if attempted else 1.0
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": out,
            }
        ),
        flush=True,
    )


class Context:
    """What a workload gets from the driver."""

    def __init__(self, workload, seed, seconds, trace, tiny, scratch, children):
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.tiny = bool(tiny)
        self.scratch = scratch
        self.children = children


def probe_setup(ctx: Context, repeats: int) -> list[float]:
    """Wall seconds of ``repeats`` fresh processes that each import the
    program, build the workload's inputs and start its engine, then
    exit (``run.py --setup-probe``)."""
    args = [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--workload",
        ctx.workload,
        "--seed",
        str(ctx.seed),
        "--setup-probe",
    ]
    if ctx.tiny:
        args.append("--tiny")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = ctx.children.spawn(
            args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            ctx.children.stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.decode()[-2000:]}")
        times.append(time.perf_counter() - start)
    return times
