"""The four benchmark workloads, driven through the library's public API.

Each workload builds its inputs from the seed, sets up ``SETUP_REPEATS``
times (the last set-up is the one that gets timed, so warm caches, FFT
plans and the spawned pool carry into the measurement), then runs for the
requested number of seconds and returns a :class:`Measurement`.

Cycle boundaries come from a ``CycleEngine`` ``on_cycle`` callback:
``run_osse`` and ``RealTimeDAWorkflow`` build their engine through a
module-level ``CycleEngine`` name, which the benchmark points at a subclass
that chains one extra callback.  The callback stops an open-ended run by
raising :class:`StopRun` once the time budget is spent.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metrics import cpu_delta, job_failure, peak_rss_mib, wchar, workers_cpu_s

SETUP_REPEATS = 3
WARMUP_CYCLES = 1  # cycle 0 builds the LETKF geometry and spawns the pool; cycle 1 is steady
MIN_CYCLES = 20  # timed cycles: enough for a tail percentile with 10 beyond it
SCORED_CYCLES = WARMUP_CYCLES + MIN_CYCLES  # RMSE window, identical every run
OPEN_ENDED = 10**6  # n_cycles for runs that StopRun ends

GRID = 64
MEMBERS = 20
STEPS_PER_CYCLE = 12
SPINUP_STEPS = 100
SQG_RMSE_BOUND = 5.0  # K: five times the observation error means a lost filter

CAMPAIGN_RUNNER = "repro.workflow.scheduler:lorenz96_ensf_job"
CAMPAIGN_PARAMS = {"dim": 12, "n_cycles": 10, "ensemble_size": 8, "n_sde_steps": 6}
CAMPAIGN_OUTSTANDING = 4  # closed loop: jobs kept in flight == max_queued
WARMUP_JOBS = 8
MIN_JOBS = 120
SCORED_JOBS = 120  # RMSE window: enough jobs that the mean barely depends on the seed
L96_RMSE_BOUND = 5.0
ORACLE_JOBS = 3
POLL_S = 0.002

WORKLOADS = ("letkf-serial", "letkf-pool", "vit-ensf-pool", "campaign")


class StopRun(Exception):
    """Raised from the cycle callback to end an open-ended run."""


@dataclass
class Measurement:
    kind: str  # "cycles" or "jobs"
    setup_s: list[float]
    window_s: float
    cpu_s: float  # parent + workers over the window
    peak_rss_mib: float
    cycle_s: list[float]  # per timed cycle wall time
    cycles: int  # cycles completed in the window
    rmse_series: dict  # reference key -> series compared across runs
    analysis_rmse: float
    attempted: int
    failures: list[str]  # failed operations (cycles or jobs)
    cpu_cycle_s: list[float] = field(default_factory=list)  # per-cycle CPU (cycling)
    job_s: list[float] = field(default_factory=list)
    jobs: int = 0
    worker_cpu_s: float = 0.0
    wchar_bytes: int = 0
    timed_keys: list = field(default_factory=list)  # tracer keys inside the window
    events: dict = field(default_factory=dict)  # per-job timestamps (campaign)
    retries: dict = field(default_factory=dict)
    n_workers: int = 0
    checks: list[str] = field(default_factory=list)  # passed-check notes
    check_failures: list[str] = field(default_factory=list)  # failed output checks


class CycleClock:
    """Cycle boundary marks: ``(thread name, cycle index, perf_counter)``."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.marks: list[tuple[str, int, float]] = []
        self.on_mark = None  # called as on_mark(record, now); may raise StopRun
        self._lock = threading.Lock()

    def __call__(self, record) -> None:
        now = time.perf_counter()
        with self._lock:
            self.marks.append((threading.current_thread().name, record.cycle, now))
        if self.tracer is not None and threading.current_thread() is threading.main_thread():
            self.tracer.key = record.cycle + 1
        if self.on_mark is not None:
            self.on_mark(record, now)


@contextlib.contextmanager
def clocked_engines(clock: CycleClock):
    """Point the cycling entry points' ``CycleEngine`` at a subclass that also calls ``clock``."""
    from repro.da import cycling
    from repro.workflow import realtime
    from repro.workflow.engine import CycleEngine

    class ClockedCycleEngine(CycleEngine):
        def __init__(self, *, on_cycle=None, **kwargs):
            def chained(record):
                if on_cycle is not None:
                    on_cycle(record)
                clock(record)

            super().__init__(on_cycle=chained, **kwargs)

    saved = cycling.CycleEngine, realtime.CycleEngine
    cycling.CycleEngine = realtime.CycleEngine = ClockedCycleEngine
    try:
        yield
    finally:
        cycling.CycleEngine, realtime.CycleEngine = saved


# --------------------------------------------------------------------------- #
# Cycling workloads
# --------------------------------------------------------------------------- #
def _sqg_truth(seed: int):
    from repro.core.observations import IdentityObservation
    from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg

    model = SQGModel(SQGParameters(nx=GRID, ny=GRID))
    truth0 = model.flatten(spinup_sqg(model, n_steps=SPINUP_STEPS, rng=seed))
    operator = IdentityObservation(model.state_size, obs_error_var=1.0)  # R = I
    return model, truth0, operator


def _executor(trace: bool):
    from repro.hpc.ensemble_parallel import EnsembleExecutor

    return EnsembleExecutor(n_workers=2, payload_stats=trace)


def build_letkf(seed: int, pool: bool, trace: bool):
    """SQG 64x64x2 + LETKF (cutoff 2000 km, RTPS 0.3), serial or on the pool."""
    from repro.da.cycling import OSSEConfig, run_osse
    from repro.da.letkf import LETKF, LETKFConfig
    from repro.da.localization import LocalizationConfig

    model, truth0, operator = _sqg_truth(seed)
    letkf = LETKF(
        model.grid,
        LETKFConfig(localization=LocalizationConfig(cutoff=2.0e6), rtps_factor=0.3),
    )
    executor = _executor(trace) if pool else None
    config = OSSEConfig(
        n_cycles=OPEN_ENDED,
        steps_per_cycle=STEPS_PER_CYCLE,
        ensemble_size=MEMBERS,
        seed=seed,
        apply_model_error_to_truth=False,  # see README: keeps the RMSE seed-stable
    )

    def run():
        run_osse(model, model, letkf, operator, truth0, config, executor=executor)

    return run, executor


def build_vit_ensf(seed: int, trace: bool):
    """Pretrained ViT surrogate + member-parallel EnSF + online training."""
    from repro.core.ensf import EnSFConfig
    from repro.surrogate.presets import laptop_preset
    from repro.surrogate.training import OfflineTrainer, TrainingConfig, TrajectoryDataset
    from repro.surrogate.vit import VisionTransformer
    from repro.utils.random import SeedSequenceFactory
    from repro.workflow.realtime import RealTimeDAWorkflow

    seeds = SeedSequenceFactory(seed)
    model, truth0, operator = _sqg_truth(seed)
    shape = model.grid.shape
    dataset = TrajectoryDataset.from_model(
        model, truth0, n_pairs=16, steps_per_pair=STEPS_PER_CYCLE, grid_shape=shape
    )
    network = VisionTransformer(
        laptop_preset(image_size=GRID, patch_size=8, depth=2, embed_dim=64, num_heads=4),
        rng=seeds.rng("vit-init"),
    )
    trainer = OfflineTrainer(
        network, TrainingConfig(epochs=2, batch_size=8), rng=seeds.rng("vit-training")
    )
    trainer.fit(dataset)
    surrogate = trainer.build_surrogate(dataset, shape, STEPS_PER_CYCLE)
    executor = _executor(trace)
    workflow = RealTimeDAWorkflow(
        surrogate=surrogate,
        truth_model=model,
        operator=operator,
        ensf_config=EnSFConfig(n_sde_steps=50),
        training_config=TrainingConfig(online_iterations=2),
        executor=executor,
        seed=seed,
    )
    rng = seeds.rng("initial-ensemble")
    ensemble = truth0[None, :] + 2.0 * rng.standard_normal((MEMBERS, model.state_size))

    def run():
        workflow.run(truth0, ensemble, n_cycles=OPEN_ENDED, steps_per_cycle=STEPS_PER_CYCLE)

    return run, executor


def run_cycling(workload: str, seed: int, seconds: float, tracer=None) -> Measurement:
    trace = tracer is not None
    if workload == "vit-ensf-pool":
        build, family = (lambda: build_vit_ensf(seed, trace)), "vit-ensf"
    else:
        pool = workload == "letkf-pool"
        build, family = (lambda: build_letkf(seed, pool, trace)), "letkf"

    setups: list[float] = []
    clock = CycleClock(tracer)
    with clocked_engines(clock):
        for rep in range(SETUP_REPEATS):
            last = rep == SETUP_REPEATS - 1
            clock.marks.clear()
            if tracer is not None:
                tracer.key = None  # set-up spans belong to no cycle
            started = time.perf_counter()
            run, executor = build()
            state: dict = {}
            records: list = []

            def on_mark(record, now, state=state, records=records, last=last):
                records.append(record)
                if record.cycle == WARMUP_CYCLES - 1:
                    setups.append(now - started)
                    if not last:
                        raise StopRun
                if len(records) < WARMUP_CYCLES or "rss" in state:
                    return
                workers = sum(workers_cpu_s().values())
                state.setdefault("marks", []).append((now, time.process_time(), workers))
                timed = len(records) - WARMUP_CYCLES
                if timed >= MIN_CYCLES and now - state["marks"][0][0] >= seconds:
                    state["rss"] = peak_rss_mib()
                    raise StopRun

            clock.on_mark = on_mark
            try:
                run()
            except StopRun:
                pass
            finally:
                clock.on_mark = None
            if not last and executor is not None:
                executor.close()

    marks = np.array(state["marks"])  # (wall, parent CPU, worker CPU) per boundary
    cycle_s = list(np.diff(marks[:, 0]))
    cpu_cycle_s = list(np.diff(marks[:, 1] + marks[:, 2]))
    worker_cpu = float(marks[-1, 2] - marks[0, 2])
    retries = 0
    if executor is not None:
        retries = executor.fault_log.summary().get("retry", 0)
        n_workers = executor.n_workers
        executor.close()
    else:
        n_workers = 0

    series = [float(r.analysis_rmse) for r in records[:SCORED_CYCLES]]
    failures = [
        f"cycle {r.cycle}: analysis RMSE {r.analysis_rmse!r}"
        for r in records
        if not (math.isfinite(r.analysis_rmse) and r.analysis_rmse < SQG_RMSE_BOUND)
    ]
    return Measurement(
        kind="cycles",
        setup_s=setups,
        window_s=float(marks[-1, 0] - marks[0, 0]),
        cpu_s=float(sum(cpu_cycle_s)),
        peak_rss_mib=state["rss"],
        cycle_s=cycle_s,
        cpu_cycle_s=cpu_cycle_s,
        cycles=len(cycle_s),
        rmse_series={f"{family}-{seed}": series},
        analysis_rmse=float(np.mean(series)),
        attempted=len(records),
        failures=failures,
        worker_cpu_s=worker_cpu,
        timed_keys=[r.cycle for r in records[WARMUP_CYCLES:]],
        retries={"executor": retries},
        n_workers=n_workers,
    )


# --------------------------------------------------------------------------- #
# Campaign
# --------------------------------------------------------------------------- #
def job_seed(seed: int, index: int) -> int:
    return (seed * 100_003 + index) % (2**31)


def direct_l96_rmse(params: dict) -> list[float]:
    """The job's OSSE through ``run_osse`` directly: no service, pool or checkpoints."""
    from repro.core.ensf import EnSF, EnSFConfig
    from repro.core.observations import IdentityObservation
    from repro.da.cycling import OSSEConfig, run_osse
    from repro.models.lorenz96 import Lorenz96

    dim, seed = int(params["dim"]), int(params["seed"])
    model = Lorenz96(dim=dim)
    truth0 = model.spinup(50, rng=seed)
    operator = IdentityObservation(dim, obs_error_var=0.5)
    filter_ = EnSF(EnSFConfig(n_sde_steps=int(params["n_sde_steps"])), rng=seed + 5)
    config = OSSEConfig(
        n_cycles=int(params["n_cycles"]),
        steps_per_cycle=2,
        ensemble_size=int(params["ensemble_size"]),
        seed=seed,
    )
    result = run_osse(model, model, filter_, operator, truth0, config)
    return [float(v) for v in result.analysis_rmse]


class ClosedLoop:
    """Keeps ``CAMPAIGN_OUTSTANDING`` jobs in flight on one service."""

    def __init__(self, service, seed: int, prefix: str) -> None:
        self.service = service
        self.seed = seed
        self.prefix = prefix  # set-up repetitions reuse job seeds, never names
        self.index = 0
        self.outstanding: dict[str, int] = {}
        self.submitted: dict[str, float] = {}
        self.done: dict[str, float] = {}
        self.params: dict[str, dict] = {}
        self.order: list[str] = []
        self.rejected: list[str] = []

    def fill(self) -> None:
        while len(self.outstanding) < CAMPAIGN_OUTSTANDING:
            name = f"{self.prefix}j{self.index:05d}"
            params = dict(CAMPAIGN_PARAMS, seed=job_seed(self.seed, self.index))
            self.submitted[name] = time.perf_counter()
            tenant = ("tenant-a", "tenant-b")[self.index % 2]
            state = self.service.submit(name, CAMPAIGN_RUNNER, params=params, tenant=tenant)
            self.params[name] = params
            self.order.append(name)
            self.index += 1
            if state == "rejected":
                self.rejected.append(name)
                self.done[name] = time.perf_counter()
            else:
                self.outstanding[name] = self.index - 1

    def poll(self) -> list[str]:
        """Names observed terminal since the last poll."""
        finished = []
        for name in list(self.outstanding):
            if self.service.state(name) in ("done", "failed", "rejected"):
                self.done[name] = time.perf_counter()
                del self.outstanding[name]
                finished.append(name)
        return finished

    def run_until(self, stop) -> None:
        """Refill and poll until ``stop(finished_count)`` is true."""
        count = 0
        while True:
            self.fill()
            time.sleep(POLL_S)
            count += len(self.poll())
            if stop(count):
                return

    def drain(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while self.outstanding and time.perf_counter() < deadline:
            time.sleep(POLL_S)
            self.poll()


def run_campaign(seed: int, seconds: float, outdir: Path, tracer=None) -> Measurement:
    from repro.workflow.scheduler import ExperimentService, ServiceConfig

    trace = tracer is not None
    clock = CycleClock()
    setups: list[float] = []
    base = outdir / f"campaign-{seed}"
    with clocked_engines(clock):
        for rep in range(SETUP_REPEATS):
            started = time.perf_counter()
            workdir = base / f"rep{rep}"
            shutil.rmtree(workdir, ignore_errors=True)
            executor = _executor(trace)
            service = ExperimentService(
                workdir / "journal.json",
                executor=executor,
                config=ServiceConfig(max_queued=CAMPAIGN_OUTSTANDING),
            )
            service.start()
            loop = ClosedLoop(service, seed, prefix=f"r{rep}-")
            loop.run_until(lambda n: n >= WARMUP_JOBS)
            setups.append(time.perf_counter() - started)
            if rep < SETUP_REPEATS - 1:
                loop.drain()
                service.close()
                executor.close()

        clock.marks.clear()
        t0, cpu0, w0, wc0 = time.perf_counter(), time.process_time(), workers_cpu_s(), wchar()
        in_window: list[str] = []

        def stop(_count):
            now = time.perf_counter()
            in_window.extend(n for n, t in loop.done.items() if t >= t0 and n not in seen)
            seen.update(in_window)
            return len(in_window) >= MIN_JOBS and now - t0 >= seconds

        seen: set[str] = set(loop.done)
        loop.run_until(stop)
        t1, cpu1, w1, wc1 = time.perf_counter(), time.process_time(), workers_cpu_s(), wchar()
        rss = peak_rss_mib()
        window_marks = [m for m in clock.marks if t0 <= m[2] <= t1]
        loop.drain()
        service.close()

    # Cycle intervals inside jobs: consecutive marks of one job thread.  A
    # job's first cycle also pays its model spin-up, so it is not a sample.
    by_thread: dict[str, list[float]] = {}
    for thread, _, t in window_marks:
        by_thread.setdefault(thread, []).append(t)
    cycle_s = [float(d) for ts in by_thread.values() for d in np.diff(ts)]

    states = {name: service.state(name) for name in loop.order}
    failures = []
    for name in loop.order:
        reason = job_failure(states[name], service.result(name))
        if reason is not None:
            failures.append(f"{name}: {reason}")

    scored = [n for n in loop.order[:SCORED_JOBS] if states[n] == "done"]
    series = {n: service.result(n)["analysis_rmse"] for n in scored}
    job_means = [float(np.mean(s)) for s in series.values() if None not in s]
    analysis_rmse = float(np.mean(job_means)) if job_means else math.nan
    check_failures = []
    if not (math.isfinite(analysis_rmse) and analysis_rmse < L96_RMSE_BOUND):
        check_failures.append(f"campaign analysis RMSE {analysis_rmse!r}")

    checks = []
    oracle = [loop.order[0], loop.order[SCORED_JOBS // 2], in_window[-1]][:ORACLE_JOBS]
    for name in oracle:
        got = (service.result(name) or {}).get("analysis_rmse")
        want = direct_l96_rmse(loop.params[name])
        if got != want:
            check_failures.append(f"{name}: service RMSE differs from the direct run_osse oracle")
        checks.append(f"oracle {name}: {'bit-identical' if got == want else 'MISMATCH'}")

    retries = {
        "executor": executor.fault_log.summary().get("retry", 0)
        + sum(service.job_fault_log(n).summary().get("retry", 0) for n in in_window),
        "service": sum(service.job_fault_log(n).summary().get("job-retry", 0) for n in in_window),
    }
    n_workers = executor.n_workers
    executor.close()
    shutil.rmtree(base, ignore_errors=True)
    worker_cpu = cpu_delta(w0, w1)
    return Measurement(
        kind="jobs",
        setup_s=setups,
        window_s=t1 - t0,
        cpu_s=cpu1 - cpu0 + worker_cpu,
        peak_rss_mib=rss,
        cycle_s=cycle_s,
        cycles=len(window_marks),
        rmse_series={f"campaign-{seed}": series},
        analysis_rmse=analysis_rmse,
        attempted=len(loop.order),
        failures=failures,
        job_s=[loop.done[n] - loop.submitted[n] for n in in_window],
        jobs=len(in_window),
        worker_cpu_s=worker_cpu,
        wchar_bytes=wc1 - wc0,
        timed_keys=list(in_window),
        events={n: (loop.submitted[n], loop.done[n]) for n in in_window},
        retries=retries,
        n_workers=n_workers,
        checks=checks,
        check_failures=check_failures,
    )
