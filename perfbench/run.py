"""Cycle-level data-assimilation benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload letkf-serial --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and ends with a table of their metrics.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with every layer wrapped in timing spans and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output check passed.  Run records, span
dumps and the RMSE reference series go under ``.perfbench/`` in the
repository root.  See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "analysis_rmse": "K",
    "cycles_per_s": "1/s",
    "cycle_p50_s": "s",
    "cycle_tail_s": "s",
    "cpu_s_per_cycle": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s_per_job": "s",
}
PER_LAYER = {
    "sqg.truth_s": "s",
    "sqg.forecast_s": "s",
    "sqg.member_steps": "count",
    "vit.forecast_s": "s",
    "vit.train_s": "s",
    "letkf.analysis_s": "s",
    "letkf.solve_s": "s",
    "letkf.geometry_s": "s",
    "ensf.analysis_s": "s",
    "ensf.sample_s": "s",
    "ensf.score_calls": "count",
    "executor.gather_s": "s",
    "executor.worker_cpu_s": "s",
    "executor.idle_frac": "fraction",
    "executor.pickle_bytes": "B",
    "executor.shm_bytes": "B",
    "executor.retries": "count",
    "engine.self_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "B",
    "service.queue_wait_s": "s",
    "service.overhead_s": "s",
    "service.write_bytes": "B",
    "service.retries": "count",
}
BLOCK = 5  # cycles per throughput block on cycling workloads
# Wall-clock layers: their self times add up to the cycle (or runner) wall.
WALL_LAYERS = [n for n, u in PER_LAYER.items() if u == "s" and n != "executor.worker_cpu_s"]


def _since_process_start() -> float:
    """Seconds since this interpreter was started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(m, import_s: float) -> tuple[dict, list[str]]:
    from metrics import median, tail

    setup = import_s + median(m.setup_s)
    cycle_tail, cycle_pct, cycle_beyond = tail(m.cycle_s)
    if m.kind == "cycles":
        # Medians over blocks of consecutive cycles and over per-cycle CPU:
        # a burst of host steal moves one block, not the run's figure.
        blocks = [m.cycle_s[i : i + BLOCK] for i in range(0, len(m.cycle_s) - BLOCK + 1, BLOCK)]
        cycles_per_s = median([len(b) / sum(b) for b in blocks])
        cpu_per_cycle = median(m.cpu_cycle_s)
    else:
        cycles_per_s = m.cycles / m.window_s
        cpu_per_cycle = m.cpu_s / m.cycles
    values = {
        "setup_s": (setup, len(m.setup_s)),
        "peak_rss_mib": (m.peak_rss_mib, 1),
        "analysis_rmse": (m.analysis_rmse, 1),
        "cycles_per_s": (cycles_per_s, m.cycles),
        "cycle_p50_s": (median(m.cycle_s), len(m.cycle_s)),
        "cycle_tail_s": (cycle_tail, len(m.cycle_s)),
        "cpu_s_per_cycle": (cpu_per_cycle, m.cycles),
    }
    notes = [f"cycle_tail_s is p{cycle_pct} ({cycle_beyond} samples beyond it)"]
    if m.kind == "jobs":
        job_tail, job_pct, job_beyond = tail(m.job_s)
        values.update(
            jobs_per_s=(m.jobs / m.window_s, m.jobs),
            job_p50_s=(median(m.job_s), len(m.job_s)),
            job_tail_s=(job_tail, len(m.job_s)),
            cpu_s_per_job=(m.cpu_s / m.jobs, m.jobs),
        )
        notes.append(f"job_tail_s is p{job_pct} ({job_beyond} samples beyond it)")
    else:
        # A cycling workload's unit of work is the cycle: one observation
        # batch in, one analysis out.  Its job metrics are its cycle metrics.
        for job, cycle in (
            ("jobs_per_s", "cycles_per_s"),
            ("job_p50_s", "cycle_p50_s"),
            ("job_tail_s", "cycle_tail_s"),
            ("cpu_s_per_job", "cpu_s_per_cycle"),
        ):
            values[job] = values[cycle]
        notes.append("job_* equal cycle_* on cycling workloads (one cycle is one job)")
    return values, notes


def per_layer(m, tracer, instrumentation) -> tuple[dict, list[str]]:
    """Per-cycle (or per-job) layer totals from the traced spans."""
    units = set(m.timed_keys)
    n = len(m.cycle_s) if m.kind == "cycles" else m.jobs
    totals = {name: 0.0 for name in PER_LAYER}
    root_s = gather_wall = 0.0
    runner: dict = {}
    for index, span in enumerate(tracer.spans):
        if span.key not in units:
            continue
        if span.name == "job.runner":
            runner[span.key] = span
            totals["engine.self_s"] += span.self_s
            continue
        totals[span.name + "_s"] += span.self_s
        for name, amount in span.counts.items():
            totals[name] += amount
        for name, amount in instrumentation.worker_credit.get(index, {}).items():
            totals[name] += amount
        if span.name == "checkpoint.save":
            totals["checkpoint.saves"] += 1
        elif span.name == "executor.gather":
            gather_wall += span.duration
        if span.parent is None:
            root_s += span.duration
    if m.kind == "cycles":
        totals["engine.self_s"] = sum(m.cycle_s) - root_s
    else:
        waits = [runner[k].start - m.events[k][0] for k in runner]
        overheads = [m.events[k][1] - runner[k].end for k in runner]
        totals["service.queue_wait_s"] = sum(waits)
        totals["service.overhead_s"] = sum(overheads)
        totals["service.write_bytes"] = max(
            0.0, m.wchar_bytes - totals["checkpoint.bytes"] - totals["executor.pickle_bytes"]
        )
        totals["service.retries"] = m.retries.get("service", 0)
    totals["executor.worker_cpu_s"] = m.worker_cpu_s
    totals["executor.retries"] = m.retries.get("executor", 0)
    values = {name: (total / n, n) for name, total in totals.items()}
    capacity = gather_wall * m.n_workers
    idle = max(0.0, 1.0 - m.worker_cpu_s / capacity) if capacity > 0 else 0.0
    values["executor.idle_frac"] = (idle, n)

    wall = sum(values[name][0] for name in WALL_LAYERS)
    if m.kind == "cycles":
        mean_cycle = sum(m.cycle_s) / len(m.cycle_s)
        p50 = sorted(m.cycle_s)[len(m.cycle_s) // 2]
        notes = [
            f"layer self times sum to {wall:.4f} s/cycle: {wall / mean_cycle:.4f} x mean cycle, "
            f"{wall / p50:.4f} x median cycle"
        ]
    else:
        mean_job = sum(m.job_s) / len(m.job_s)
        notes = [
            f"layer self times sum to {wall:.4f} s/job: {wall / mean_job:.4f} x mean job latency"
        ]
    return values, notes


def check_reference(series: dict) -> list[str]:
    """Bit-compare RMSE series with earlier runs of the same inputs, or record them."""
    failures = []
    store = OUT / "rmse"
    store.mkdir(parents=True, exist_ok=True)
    for key, value in series.items():
        path = store / f"{key}.json"
        if path.exists():
            reference = json.loads(path.read_text())
            if key.startswith("campaign-"):
                shared = set(reference) & set(value)
                same = all(reference[k] == value[k] for k in shared)
            else:
                same = reference == value
            if not same:
                failures.append(f"RMSE series {key} differs from an earlier run of the same seed")
        else:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(value))
            os.replace(tmp, path)
    return failures


def tracing_overhead(workload: str, cycles_per_s: float) -> str:
    """Traced throughput against the median of the recorded untraced runs."""
    from metrics import median

    runs = list((OUT / "runs").glob(f"{workload}-s*-trace0.json"))
    if not runs:
        return "tracing overhead: no untraced run of this workload recorded yet"
    untraced = median(
        [json.loads(p.read_text())["metrics"]["cycles_per_s"]["value"] for p in runs]
    )
    return (
        f"tracing overhead: traced {cycles_per_s:.4f} vs untraced {untraced:.4f} cycles/s "
        f"({100 * (1 - cycles_per_s / untraced):+.1f} %, median of {len(runs)} untraced runs)"
    )


def run_all(args) -> int:
    """Run every workload in a child process and tabulate the results."""
    import subprocess

    from workloads import WORKLOADS

    results, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
        if lines and lines[-1].startswith("{"):
            results[workload] = json.loads(lines[-1])["metrics"]
    names = list(PER_LAYER if args.trace else END_TO_END)
    print(f"\n{'metric':24s}" + "".join(f"{w:>15s}" for w in results))
    for name in names:
        row = "".join(f"{results[w][name]['value']:15.6g}" for w in results)
        print(f"{name:24s}{row}  {(PER_LAYER if args.trace else END_TO_END)[name]}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from metrics import host_info, reference_kernel_s, steal_jiffies
    from workloads import WORKLOADS, run_campaign, run_cycling

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
            file=sys.stderr,
        )
        return 2

    import repro.da.cycling  # noqa: F401  (imports are part of set-up time)
    import repro.workflow.realtime  # noqa: F401
    import repro.workflow.scheduler  # noqa: F401

    import_s = _since_process_start()
    steal0 = steal_jiffies()
    kernel_before = reference_kernel_s()

    tracer = instrumentation = None
    if args.trace:
        from spans import Instrumentation, Tracer

        tracer = Tracer()
        # Concurrent campaign jobs share the worker accumulator, so only
        # single-stream cycling workloads apportion worker time per gather.
        tracer.apportion_workers = args.workload != "campaign"
        instrumentation = Instrumentation(tracer).install()

    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "campaign":
            m = run_campaign(args.seed, args.seconds, OUT, tracer)
        else:
            m = run_cycling(args.workload, args.seed, args.seconds, tracer)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()

    host = host_info()
    host.update(
        steal_jiffies=steal_jiffies() - steal0,
        reference_kernel_before_s=kernel_before,
        reference_kernel_after_s=reference_kernel_s(),
    )

    failures = m.failures + m.check_failures + check_reference(m.rmse_series)
    e2e, notes = end_to_end(m, import_s)
    if tracer is None:
        values, unit_of = e2e, END_TO_END
    else:
        values, layer_notes = per_layer(m, tracer, instrumentation)
        unit_of = PER_LAYER
        notes += layer_notes + [tracing_overhead(args.workload, e2e["cycles_per_s"][0])]
    for name, (value, _) in values.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")

    unit = "cycle" if m.kind == "cycles" else "job"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"window={m.window_s:.2f}s {m.cycles} cycles {m.jobs} jobs")
    for name, (value, count) in values.items():
        print(f"  {name:24s} {value:14.6g} {unit_of[name]:8s} n={count}")
    print(f"  failed_frac              {len(m.failures) / max(1, m.attempted):14.6g} "
          f"         n={m.attempted} (failed {unit}s / attempted)")
    for line in notes + m.checks:
        print(f"  note: {line}")
    print("  host: " + json.dumps(host, sort_keys=True))
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": {n: {"value": v, "unit": unit_of[n], "n": c} for n, (v, c) in values.items()},
        "end_to_end": {n: v for n, (v, _) in e2e.items()},
        "samples": {"setup_s": m.setup_s, "cycle_s": m.cycle_s, "job_s": m.job_s},
        "import_s": import_s,
        "host": host,
        "notes": notes + m.checks,
        "failures": failures,
        "recorded_at": time.time(),
    }
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    if tracer is not None:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"{args.workload}-s{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "key": span.key, "thread": span.thread,
                    "self_s": span.self_s, "counts": span.counts,
                }) + "\n")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(m.attempted),
        "failed": len(m.failures),
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, (v, _) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    from metrics import stop_children  # the script's directory is on sys.path

    try:
        status = main()
    finally:
        # Every path out, a failed check or an exception too, leaves no
        # pool worker or resource tracker behind.
        stop_children()
    sys.exit(status)
