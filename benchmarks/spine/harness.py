"""The measuring environment: pinned threads, one run at a time, a
scratch directory inside the checkout, host calibration.

Everything here is about the harness, never about the program: the
program is imported only after :func:`pin_threads` has run.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = ROOT / ".spine_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The harness cannot measure here (message says why)."""


def pin_threads() -> None:
    """Pin BLAS / OpenMP to one thread for this process and its children.

    Must run before NumPy is imported: the thread pools read these
    variables once, at load time.
    """
    pinned = all(os.environ.get(name) == "1" for name in THREAD_VARS)
    if "numpy" in sys.modules and not pinned:
        raise HarnessError("pin_threads() called after numpy was imported")
    for name in THREAD_VARS:
        os.environ[name] = "1"


def require_program() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(
            f"no program to measure: {SRC / 'repro'} is missing (the spine "
            "benchmarks the checkout it sits in)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark_json() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
}


def benchmark_json_problems(spec: Dict[str, Any]) -> List[str]:
    """What the driver would refuse in a ``BENCHMARK.json``."""
    problems: List[str] = []
    if set(spec) != _KEYS:
        problems.append(f"keys are {sorted(spec)}, expected {sorted(_KEYS)}")
        return problems
    for section, low, high, keys in (
        ("workloads", 2, 8, {"name", "why"}),
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        entries = spec[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section}: {len(entries)} entries, allowed {low}-{high}")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section}: {entry} does not have exactly {sorted(keys)}")
                continue
            if not NAME_RE.match(entry["name"]):
                problems.append(f"{section}: bad name {entry['name']!r}")
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append(f"{section}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"{section}: bad direction in {entry}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{section}: bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and ("\n" in entry["why"] or len(entry["why"]) > 200):
                problems.append(f"workloads: why of {entry['name']} is not one short line")
    names = [e["name"] for s in ("workloads", "end_to_end", "per_layer") for e in spec[s]]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")
    setup = [e for e in spec["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    return problems


@contextmanager
def exclusive_workdir() -> Iterator[Path]:
    """Hold the spine lock and yield a fresh scratch directory.

    Two spine runs sharing the host's two cores would measure each
    other, so a second run refuses to start instead of queueing.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    lock_path = WORK_ROOT / "lock"
    with open(lock_path, "a+") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            lock.seek(0)
            raise HarnessError(
                f"another spine run holds {lock_path} "
                f"({lock.read().strip() or 'owner unknown'}); wait for it to "
                "finish — concurrent runs would measure each other"
            ) from None
        lock.seek(0)
        lock.truncate()
        lock.write(f"pid {os.getpid()}")
        lock.flush()
        workdir = WORK_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            yield workdir
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            lock.seek(0)
            lock.truncate()


#: Probe reading the normalised times are expressed at: near this
#: sandbox's quiet value; only ratios matter.
REFERENCE_PROBE_S = 0.020


def speed_probe() -> float:
    """How fast is this core right now?  Best of two runs of a fixed
    pure-Python loop (~20 ms each; best-of rejects a pre-emption that
    hits one of them).  Needs nothing imported, so it also brackets
    the import of the program."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_normalised(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` as they would read at the reference probe speed.

    The sandbox's vCPU speed drifts by tens of percent over minutes
    (a fixed workload was measured at IQR/median 0.25-0.30 raw);
    dividing by the probe taken on either side of the measurement
    halves that.  Raw times stay available per layer.
    """
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)


def calibration_seconds(reps: int = 3) -> float:
    """Best wall time of a fixed single-threaded NumPy kernel.

    Sort + prefix sum + gather over 500k doubles — the memory-bound
    shape of the program's own NumPy work, independent of BLAS (the
    kernel idea of ``bench_flow_e2e.calibration_seconds``).
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.standard_normal(500_000)
    index = rng.integers(0, len(data), len(data))
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        out = np.cumsum(np.sort(data, kind="stable"))[index]
        float(out.sum())
        best = min(best, time.perf_counter() - start)
    return best


def host_header() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count() or 1,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark, so that
    :func:`peak_rss_mb` reports the timed series and not the set-up
    (model training peaks far above the flows it serves, and glibc
    keeps the freed pages resident until asked to trim).  Where libc or
    the kernel refuses, the mark keeps covering the whole process."""
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except (OSError, AttributeError):
        pass


def peak_rss_mb() -> float:
    """Largest resident set among this process (since the last reset)
    and its reaped children (for ``serve_closed`` that includes the
    daemon's runner processes, which the daemon reaped before it was
    itself reaped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
