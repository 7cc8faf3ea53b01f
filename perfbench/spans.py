"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public entry points of the library's layers (see
:meth:`Instrumentation.install`) with timing spans.  Nothing under ``src/`` is modified:
the wrappers are installed by attribute replacement when a traced run
starts and removed when it ends.

Span model
----------
A span has a name, start and end (``time.perf_counter``), a parent span
(the innermost open span on the same thread) and a key: the cycle index on
cycling workloads, the job name on ``campaign``.  Its *self time* is its
duration minus the time covered by its children.  Self times of one
thread's spans therefore partition that thread's wall time, which is what
lets the per-layer table add up to the cycle wall time.

Pool workers are forked from the traced parent, so they inherit the
wrappers.  A worker keeps per-layer self times locally and flushes them
into a shared-memory accumulator when its outermost span closes.  The
parent reads the accumulator before and after each executor gather and
credits the worker time to the layers, divided by the number of workers
the gather used (they run concurrently); the gather span's own self time
shrinks by the same amount.  This keeps the decomposition additive while
still showing which layer the pool spent its time in.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

# Layer slots shared with pool workers: self-time seconds for the timed
# layers, plain totals for the counters.
WORKER_SLOTS = (
    "sqg.forecast_s",
    "sqg.member_steps",
    "vit.forecast_s",
    "letkf.solve_s",
    "ensf.analysis_s",
    "ensf.sample_s",
    "ensf.score_calls",
)
_SLOT = {name: i for i, name in enumerate(WORKER_SLOTS)}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    key: object = None
    thread: str = ""
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    ``spans`` is a flat list whose ``parent`` fields index into it.  Used
    to cross-check the incremental accounting done while tracing.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(max(0.0, span.duration - covered))
    return out


class Tracer:
    """Collects spans in the owning process; accumulates in forked workers."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.key: object = None  # current cycle index (cycling workloads)
        self.apportion_workers = True
        self._local = threading.local()
        self._lock = threading.Lock()
        # Created before any pool is forked, so workers inherit the mapping.
        self._shared = multiprocessing.RawArray("d", len(WORKER_SLOTS))
        self._shared_lock = multiprocessing.Lock()
        self._worker_acc: dict[str, float] = {}

    # -- span stack ------------------------------------------------------- #
    def _stack(self) -> list:
        # A forked worker inherits the forking thread's open spans; its own
        # stack must start empty, so stacks are tagged with their pid.
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid, local.stack = os.getpid(), []
        return local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def in_parent(self) -> bool:
        return os.getpid() == self.pid

    def open(self, name: str) -> tuple:
        stack = self._stack()
        thread = threading.current_thread().name
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1][1] if stack else None,
            key=thread[4:] if thread.startswith("job-") else self.key,
            thread=thread,
        )
        index = None
        if self.in_parent():
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
        entry = (span, index)
        stack.append(entry)
        return entry

    def close(self, entry: tuple, extra_child_s: float = 0.0) -> Span:
        span, _ = entry
        span.end = time.perf_counter()
        span.child_s += extra_child_s
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0].child_s += span.duration
        if not self.in_parent():
            self._accumulate_worker(span, flush=not stack)
        return span

    def count(self, name: str, amount: float) -> None:
        """Add to a counter on the innermost open span (dropped outside any span)."""
        entry = self.current()
        if entry is None:
            return
        counts = entry[0].counts
        counts[name] = counts.get(name, 0.0) + amount

    # -- worker side ------------------------------------------------------ #
    def _accumulate_worker(self, span: Span, flush: bool) -> None:
        acc = self._worker_acc
        slot = span.name + "_s"
        if slot in _SLOT:
            acc[slot] = acc.get(slot, 0.0) + span.self_s
        for name, amount in span.counts.items():
            if name in _SLOT:
                acc[name] = acc.get(name, 0.0) + amount
        if flush and acc:
            with self._shared_lock:
                for name, amount in acc.items():
                    self._shared[_SLOT[name]] += amount
            acc.clear()

    def worker_totals(self) -> list[float]:
        with self._shared_lock:
            return list(self._shared)


class Instrumentation:
    """Installs and removes the tracing wrappers on the library's layers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        # Worker time credited to layers, keyed by gather span index.
        self.worker_credit: dict[int, dict[str, float]] = {}

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span_wrapper(self, owner, attr: str, name: str, counter=None, skip_inside=None):
        """Wrap ``owner.attr`` in a span; ``counter(result, *args)`` adds a count."""
        tracer = self.tracer
        original = owner.__dict__[attr]

        def wrapped(*args, **kwargs):
            current = tracer.current()
            if skip_inside is not None and current is not None and current[0].name == skip_inside:
                return original(*args, **kwargs)
            entry = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    tracer.count(*counter(result, *args, **kwargs))
                return result
            finally:
                tracer.close(entry)

        wrapped.__wrapped__ = original
        self._replace(owner, attr, wrapped)

    def count_wrapper(self, owner, attr: str, name: str) -> None:
        tracer = self.tracer
        original = owner.__dict__[attr]

        def wrapped(*args, **kwargs):
            tracer.count(name, 1.0)
            return original(*args, **kwargs)

        wrapped.__wrapped__ = original
        self._replace(owner, attr, wrapped)

    def gather_wrapper(self, owner, attr: str, shards) -> None:
        """Executor entry point: a gather span plus worker-time apportioning."""
        tracer = self.tracer
        credit = self.worker_credit
        original = owner.__dict__[attr]

        def wrapped(executor, *args, **kwargs):
            if not tracer.in_parent():
                return original(executor, *args, **kwargs)
            before = tracer.worker_totals() if tracer.apportion_workers else None
            entry = tracer.open("executor.gather")
            try:
                return original(executor, *args, **kwargs)
            finally:
                extra = 0.0
                span, index = entry
                stats = getattr(executor, "last_payload_stats", None)
                if stats is not None:
                    span.counts["executor.pickle_bytes"] = float(sum(stats["job_bytes_shipped"]))
                    span.counts["executor.shm_bytes"] = float(stats["shared_segment_bytes"])
                    executor.last_payload_stats = None
                if before is not None:
                    after = tracer.worker_totals()
                    used = max(1, min(executor.n_workers, shards(executor, *args)))
                    delta = {n: a - b for n, a, b in zip(WORKER_SLOTS, after, before) if a != b}
                    gather_s = time.perf_counter() - span.start - span.child_s
                    spent = sum(v for n, v in delta.items() if n.endswith("_s")) / used
                    scale = min(1.0, gather_s / spent) if spent > 0 else 1.0
                    credit[index] = {
                        n: (v / used * scale if n.endswith("_s") else v) for n, v in delta.items()
                    }
                    extra = spent * scale
                tracer.close(entry, extra_child_s=extra)

        wrapped.__wrapped__ = original
        self._replace(owner, attr, wrapped)

    def install(self) -> "Instrumentation":
        from repro.core import ensf, score, sde
        from repro.da import letkf
        from repro.hpc import ensemble_parallel as ep
        from repro.models import sqg
        from repro.surrogate import training, vit
        from repro.workflow import engine, scheduler

        def member_steps(_result, model, state, n_steps=1, **_):
            shape = getattr(state, "shape", ())
            members = shape[0] if len(shape) == 2 else 1
            return "sqg.member_steps", float(members * n_steps)

        def checkpoint_bytes(_result, ckpt, path, **_):
            return "checkpoint.bytes", float(os.path.getsize(path))

        def member_shards(executor, model_or_filter, ensemble, *_, **__):
            m = len(ensemble)
            return max(1, m // executor.min_members_per_worker)

        def block_shards(executor, fn, jobs, *_, **__):
            return len(jobs)

        self.span_wrapper(scheduler, "lorenz96_ensf_job", "job.runner")
        self.span_wrapper(engine.TruthStage, "run", "sqg.truth")
        for attr in ("forecast", "forecast_device"):
            self.span_wrapper(sqg.SQGModel, attr, "sqg.forecast",
                              counter=member_steps, skip_inside="sqg.truth")
        self.span_wrapper(vit.SQGViTSurrogate, "forecast", "vit.forecast")
        self.span_wrapper(training.OnlineTrainer, "update", "vit.train")
        self.span_wrapper(letkf.LETKF, "analyze", "letkf.analysis")
        self.span_wrapper(letkf.LETKF, "analyze_parallel", "letkf.analysis")
        self.span_wrapper(letkf.LETKF, "geometry", "letkf.geometry")
        self.span_wrapper(letkf, "solve_local_batch", "letkf.solve")
        self.span_wrapper(ensf.EnSF, "analyze", "ensf.analysis")
        self.span_wrapper(ensf.EnSF, "analyze_members", "ensf.analysis")
        self.span_wrapper(engine.EnSFWorkflowAnalysisStage, "analyze", "ensf.analysis")
        self.span_wrapper(sde.ReverseSDESampler, "sample", "ensf.sample")
        self.count_wrapper(score.MonteCarloScoreEstimator, "score_into", "ensf.score_calls")
        self.span_wrapper(engine.EngineCheckpoint, "save", "checkpoint.save",
                          counter=checkpoint_bytes)
        self.gather_wrapper(ep.EnsembleExecutor, "map_states", member_shards)
        self.gather_wrapper(ep.EnsembleExecutor, "analyze_ensf", member_shards)
        self.gather_wrapper(ep.EnsembleExecutor, "map_blocks", block_shards)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
