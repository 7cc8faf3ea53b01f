"""Statistics, /proc readers and host diagnostics for the benchmark.

Everything here is independent of the library under test, so the
benchmark's own tests can exercise it without running a workload.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import re
import signal
import time

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_TICK = os.sysconf("SC_CLK_TCK")


def valid_name(name: str) -> bool:
    """Metric/workload name rule: ``[A-Za-z0-9_.-]``, leading alphanumeric, <= 64."""
    return bool(NAME_RE.fullmatch(name))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(samples, beyond: int = 10) -> tuple[float, int, int]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n_beyond)``, where the value is the
    linearly interpolated percentile (so p50 is the median) and
    ``n_beyond`` counts the samples strictly greater than it.  When not
    even the median has ``beyond`` samples above it, the median is returned
    with its (short) count, so callers can report how thin the tail is.
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("tail of an empty sample")
    for pct in range(99, 50, -1):
        value = float(np.percentile(values, pct))
        above = int(np.count_nonzero(values > value))
        if above >= beyond:
            return value, pct, above
    value = float(np.percentile(values, 50))
    return value, 50, int(np.count_nonzero(values > value))


def job_failure(state: str | None, result: dict | None) -> str | None:
    """Why a campaign job counts as failed, or ``None`` when it succeeded.

    A job fails when it was rejected, did not reach ``done``, or reached
    ``done`` carrying ``nonfinite_fields`` (the service sanitizes NaN
    results to ``null`` and still marks the job ``done``).
    """
    if state == "rejected":
        return "rejected"
    if state != "done":
        return f"ended {state!r}"
    if result is None:
        return "done without a result"
    if result.get("nonfinite_fields"):
        return "non-finite result: " + ", ".join(result["nonfinite_fields"])
    series = result.get("analysis_rmse")
    if not series or any(v is None or not math.isfinite(v) for v in series):
        return "non-finite analysis RMSE"
    return None


# -- /proc readers --------------------------------------------------------- #
def proc_cpu_s(pid: int | str = "self") -> float:
    """utime + stime of one process, in seconds (0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def workers_cpu_s() -> dict[int, float]:
    """CPU seconds of every live child process, by pid."""
    return {pid: proc_cpu_s(pid) for pid in worker_pids()}


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """Worker CPU spent between two snapshots (workers born since count fully)."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def child_pids() -> list[int]:
    """Every process whose parent is this one, by a scan of /proc."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Pool workers are ``multiprocessing`` children.  The first shared-memory
    segment also starts the ``multiprocessing`` resource tracker, a plain
    subprocess that would otherwise outlive this process by a moment and
    stay behind unreaped; closing its pipe makes it exit.  Anything else
    still listed as a child in /proc is sent SIGTERM, then SIGKILL.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + timeout
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                with contextlib.suppress(ChildProcessError):
                    if os.waitpid(pid, os.WNOHANG)[0] == 0:
                        continue
                pids.remove(pid)
            time.sleep(0.01)


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mib() -> float:
    """Parent VmHWM plus the VmHWM of every live worker."""
    return vm_hwm_mib() + sum(vm_hwm_mib(pid) for pid in worker_pids())


def wchar() -> int:
    """Bytes this process has passed to write-type syscalls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def steal_jiffies() -> int:
    """Host-wide steal time from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


# -- host diagnostics (reported, never gated, never used to rescale) ------- #
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def reference_kernel_s(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-numpy kernel (matmul + FFT + sort)."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    field = rng.standard_normal((2, 64, 64))
    vec = rng.standard_normal(200_000)
    times = []
    for _ in range(repeats + 1):  # the first round warms caches and is dropped
        start = time.perf_counter()
        for _ in range(4):
            a @ a
            np.fft.irfft2(np.fft.rfft2(field), s=field.shape[-2:])
        np.sort(vec)
        times.append(time.perf_counter() - start)
    return median(times[1:])


def host_info() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
