"""Lightweight timing helpers for the benchmark harness and profiler.

Besides the generic :class:`Timer` and :class:`Stopwatch`, this module
provides :class:`BenchRecorder`, the per-cycle wall-time recorder wired
through the OSSE cycling driver (:func:`repro.da.cycling.run_osse`) and the
kernel benchmarks.

``BENCH_*.json`` format
-----------------------
The benchmark suite (``benchmarks/run_all.py`` or ``pytest -m bench``)
writes one JSON object per file at the repository root through
:meth:`BenchRecorder.write_json`::

    {
      "benchmark": "<name>",           # e.g. "analysis-kernels"
      "created_unix": <float seconds>, # stamp of the recording run
      "array_backend": "<name>",       # backend the kernels ran on
      "sections": {                    # BenchRecorder.report(): one per
        "<section>": {                 # timed section
          "total_s": <float>, "mean_s": <float>, "count": <int>,
          "per_cycle_s": [<float>, ...]
        }, ...
      },
      "<entry>": {                     # one object (or list) per measured
        "...case metadata...": ...,    # case: grid, members, config, ...
        "<path>_s": <float>,           # wall times of the compared paths
        "<ratio>": <float>,            # BenchRecorder.speedup ratios, e.g.
                                       # "batching_speedup"
        "note": "<text>"               # what the numbers show, and why
      }, ...
    }

Entry names, their timing keys and which entries carry a ``note`` or
``speedup_note`` are fixed per file; ``scripts/smoke.sh`` (step 5) checks
that every required key is present, that each named note is a non-empty
string, and that a recorded ``array_backend`` is non-empty.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Timer", "Stopwatch", "BenchRecorder", "best_of"]


def best_of(fn, repeats: int = 3):
    """Best-of-N wall time in seconds and the last return value of ``fn``.

    The standard measurement loop of the kernel benchmarks: the minimum over
    a few repeats filters out scheduler noise on shared hosts, and the value
    is returned so accuracy-parity checks reuse the timed call.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


class Timer:
    """Context manager measuring wall-clock time of a code block.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.start


@dataclass
class Stopwatch:
    """Accumulating stopwatch with named laps.

    Used by the real-time workflow to attribute wall time to the two
    sequential scalability tasks of the paper (online ViT training and EnSF
    execution) plus the forecast step.
    """

    laps: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _open: dict[str, float] = field(default_factory=dict)

    def start(self, name: str) -> None:
        """Start timing the lap ``name``."""
        self._open[name] = time.perf_counter()

    def stop(self, name: str) -> float:
        """Stop the lap ``name`` and return the elapsed time of this lap."""
        if name not in self._open:
            raise KeyError(f"lap {name!r} was never started")
        dt = time.perf_counter() - self._open.pop(name)
        self.laps[name] = self.laps.get(name, 0.0) + dt
        self.counts[name] = self.counts.get(name, 0) + 1
        return dt

    def total(self) -> float:
        """Total accumulated time over all laps."""
        return float(sum(self.laps.values()))

    def mean(self, name: str) -> float:
        """Mean time per occurrence of lap ``name``."""
        if self.counts.get(name, 0) == 0:
            raise KeyError(f"lap {name!r} has no recorded occurrences")
        return self.laps[name] / self.counts[name]

    def fractions(self) -> dict[str, float]:
        """Fraction of total time spent in each lap (sums to 1 when nonempty)."""
        total = self.total()
        if total == 0.0:
            return {name: 0.0 for name in self.laps}
        return {name: value / total for name, value in self.laps.items()}


class BenchRecorder:
    """Per-cycle wall-time recorder for the DA cycling hot paths.

    Unlike :class:`Stopwatch` (which only accumulates totals), the recorder
    keeps the full per-occurrence time series of every named section, so an
    OSSE run can report how forecast and analysis cost evolve cycle by cycle
    and the benchmark harness can persist the breakdown (see the module
    docstring for the on-disk format).

    Examples
    --------
    >>> rec = BenchRecorder()
    >>> with rec.section("analysis"):
    ...     _ = sum(range(100))
    >>> rec.counts()["analysis"]
    1
    """

    def __init__(self) -> None:
        self.sections: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        """Record one occurrence of section ``name``."""
        self.sections.setdefault(name, []).append(float(seconds))

    @contextmanager
    def section(self, name: str):
        """Context manager timing one occurrence of section ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    # -- queries ----------------------------------------------------------- #
    def per_cycle(self, name: str) -> list[float]:
        """All recorded occurrences of section ``name`` (seconds)."""
        return list(self.sections.get(name, []))

    def totals(self) -> dict[str, float]:
        """Total seconds per section."""
        return {name: float(sum(vals)) for name, vals in self.sections.items()}

    def counts(self) -> dict[str, int]:
        """Number of occurrences per section."""
        return {name: len(vals) for name, vals in self.sections.items()}

    def mean(self, name: str) -> float:
        """Mean seconds per occurrence of section ``name``."""
        vals = self.sections.get(name)
        if not vals:
            raise KeyError(f"section {name!r} has no recorded occurrences")
        return float(sum(vals) / len(vals))

    def snapshot(self) -> dict[str, int]:
        """Per-section occurrence counts; pass to :meth:`report` as ``since``."""
        return {name: len(vals) for name, vals in self.sections.items()}

    def report(self, since: dict[str, int] | None = None) -> dict:
        """JSON-ready breakdown: totals, means, counts and per-cycle series.

        ``since`` (a :meth:`snapshot` taken earlier) restricts the report to
        occurrences recorded after the snapshot, so a recorder shared across
        several runs can still attribute timing to each run individually.
        """
        out = {}
        for name, vals in self.sections.items():
            vals = vals[since.get(name, 0):] if since else vals
            if not vals:
                continue
            out[name] = {
                "total_s": float(sum(vals)),
                "mean_s": float(sum(vals) / len(vals)),
                "count": len(vals),
                "per_cycle_s": [float(v) for v in vals],
            }
        return out

    @staticmethod
    def speedup(reference_seconds: float, optimized_seconds: float) -> float:
        """Speedup factor of an optimised path over its reference."""
        if optimized_seconds <= 0.0:
            raise ValueError("optimized_seconds must be positive")
        return float(reference_seconds) / float(optimized_seconds)

    def write_json(self, path, benchmark: str, **extra) -> dict:
        """Write ``{"benchmark": ..., <report>, <extra>}`` to ``path``.

        Returns the written payload.  ``extra`` entries take precedence over
        the recorder's own section report, letting callers attach speedup
        records in the documented ``BENCH_*.json`` layout.
        """
        payload = {
            "benchmark": benchmark,
            "created_unix": time.time(),
            "sections": self.report(),
        }
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload
