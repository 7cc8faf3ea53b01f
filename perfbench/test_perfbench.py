"""Tests for the benchmark's own helpers (no workload is run).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- tail percentile -------------------------------------------------------- #
def test_tail_picks_highest_percentile_with_ten_beyond():
    value, pct, beyond = metrics.tail(range(1, 101))
    assert (pct, beyond) == (90, 10)
    assert value == pytest.approx(90.1)


def test_tail_on_twenty_samples_is_the_median():
    samples = list(range(20))
    value, pct, beyond = metrics.tail(samples)
    assert pct in (50, 51, 52)  # every qualifying percentile leaves exactly 10 beyond
    assert beyond == 10
    assert value >= metrics.median(samples)


def test_tail_reports_a_short_count_when_too_few_samples():
    value, pct, beyond = metrics.tail(list(range(15)))
    assert pct == 50
    assert beyond == 7
    assert value == metrics.median(range(15))


def test_tail_counts_ties_conservatively():
    value, pct, beyond = metrics.tail([1.0] * 30 + [2.0] * 10)
    assert beyond == 10 and 1.0 <= value < 2.0
    with pytest.raises(ValueError):
        metrics.tail([])


# -- span self-time arithmetic ---------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_times_partition_the_wall(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()
    outer = tracer.open("letkf.analysis")
    clock.now = 2.0
    child = tracer.open("letkf.solve")
    clock.now = 5.0
    tracer.close(child)
    clock.now = 6.0
    geometry = tracer.open("letkf.geometry")
    clock.now = 7.0
    tracer.close(geometry)
    clock.now = 10.0
    tracer.close(outer)

    by_name = {s.name: s.self_s for s in tracer.spans}
    assert by_name == {"letkf.analysis": 6.0, "letkf.solve": 3.0, "letkf.geometry": 1.0}
    assert sum(by_name.values()) == tracer.spans[0].duration
    assert spans.self_times(tracer.spans) == [6.0, 3.0, 1.0]
    assert tracer.spans[1].parent == 0 and tracer.spans[2].parent == 0


def test_worker_credit_shrinks_the_gather_self_time(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()
    gather = tracer.open("executor.gather")
    clock.now = 4.0
    span = tracer.close(gather, extra_child_s=3.0)
    assert span.self_s == 1.0


def test_self_times_use_the_union_of_overlapping_children():
    parent = spans.Span("job.runner", 0.0, 10.0)
    a = spans.Span("checkpoint.save", 1.0, 4.0, parent=0)
    b = spans.Span("executor.gather", 3.0, 6.0, parent=0)  # overlaps a
    assert spans.self_times([parent, a, b]) == [5.0, 3.0, 3.0]


def test_spans_on_other_threads_do_not_nest():
    tracer = spans.Tracer()
    outer = tracer.open("sqg.truth")
    seen = {}

    def other():
        entry = tracer.open("checkpoint.save")
        seen["parent"] = entry[0].parent
        tracer.close(entry)

    thread = threading.Thread(target=other, name="job-j00001")
    thread.start()
    thread.join()
    tracer.close(outer)
    assert seen["parent"] is None
    assert tracer.spans[1].key == "j00001"


# -- failure counting -------------------------------------------------------- #
def test_rejected_and_unfinished_jobs_fail():
    assert metrics.job_failure("rejected", None) == "rejected"
    assert "failed" in metrics.job_failure("failed", None)
    assert metrics.job_failure("done", None) == "done without a result"


def test_done_job_with_nonfinite_result_fails():
    # What the service journals for a diverged job: NaN sanitized to null,
    # the job still marked done.
    result = {"analysis_rmse": [0.5, None], "final_rmse": None,
              "nonfinite_fields": ["analysis_rmse[1]", "final_rmse"]}
    reason = metrics.job_failure("done", result)
    assert reason.startswith("non-finite result")
    assert metrics.job_failure("done", {"analysis_rmse": [0.5, math.inf]}) is not None


def test_healthy_job_passes():
    assert metrics.job_failure("done", {"analysis_rmse": [0.5, 0.4]}) is None


def test_failures_are_counted_not_averaged():
    jobs = [("done", {"analysis_rmse": [0.5]})] * 5 + [
        ("done", {"analysis_rmse": [None], "nonfinite_fields": ["analysis_rmse[0]"]}),
        ("rejected", None),
    ]
    failed = [j for j in jobs if metrics.job_failure(*j) is not None]
    assert len(failed) == 2


# -- names ------------------------------------------------------------------- #
def test_metric_and_workload_names_are_valid():
    from workloads import WORKLOADS

    for name in (*run.END_TO_END, *run.PER_LAYER, *WORKLOADS):
        assert metrics.valid_name(name), name
    for unit in (*run.END_TO_END.values(), *run.PER_LAYER.values()):
        assert metrics.UNIT_RE.fullmatch(unit), unit
    for bad in ("", "cycle p50", "p50/s", "-lead", "x" * 65, "ünit"):
        assert not metrics.valid_name(bad)


def test_benchmark_json_matches_the_program():
    from workloads import WORKLOADS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert bench["command"] == ["python3", "perfbench/run.py"]


# -- process teardown ------------------------------------------------------- #
def test_stop_children_reaps_workers_and_the_resource_tracker():
    # In a fresh interpreter: stop_children() kills every child of the
    # process that calls it, which must not be the test runner.
    import subprocess

    script = f"""
import multiprocessing, sys, time
from multiprocessing import shared_memory
sys.path.insert(0, {str(HERE)!r})
import metrics
worker = multiprocessing.Process(target=time.sleep, args=(60,))
worker.start()
segment = shared_memory.SharedMemory(create=True, size=4096)  # starts the tracker
segment.close()
segment.unlink()
before = len(metrics.child_pids())
metrics.stop_children()
print(before, len(metrics.child_pids()))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.split() == ["2", "0"]
