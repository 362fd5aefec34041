"""Tests of the benchmark itself: job lists, metrics, failure counting, tracing."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bergdpp import cli  # noqa: E402

E2E_METRICS = {"setup_s", "wall_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb", "jobs_failed_frac"}


def _unseeded(jobs):
    """Job argv with the --seed value blanked, as a multiset."""
    return Counter(re.sub(r"--seed \d+", "--seed ?", " ".join(j.argv)) for j in jobs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_pure_function_of_workload_and_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)
    # the seed reseeds, it never changes what work a pass does
    assert _unseeded(workloads.build(name, 7).jobs) == _unseeded(workloads.build(name, 8).jobs)
    # a single caller: every command that takes --workers gets 1
    plan = workloads.build(name, 7)
    for job in (*plan.jobs, *plan.warmups, *plan.inputs):
        if "--seed" in job.argv:
            assert job.argv[job.argv.index("--workers") + 1] == "1"


def test_every_reference_job_has_stored_values():
    references = json.loads((BENCH / "references.json").read_text())
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 3)
        for job in (*plan.jobs, *plan.warmups):
            if job.check == "reference":
                assert " ".join(job.argv) in references


class _EmptyCli:
    """Stand-in for bergdpp.cli: every job exits 0 and writes nothing."""

    @staticmethod
    def run(argv):
        return 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_the_six_end_to_end_metrics_with_units(name):
    jobs = workloads.build(name, 1).jobs
    args = Namespace(workload=name, seed=1, seconds=0.0, trace=0)
    result = worker.timed_loop(_EmptyCli, jobs, {}, args, worker.Yardstick())
    result["peak_rss_mb"] = 1.0
    metrics, lines = run.end_to_end([0.5, 0.6, 0.7], result)
    printed = {line.split()[0]: line.split()[2] for line in lines}
    assert set(printed) == E2E_METRICS
    assert printed == {
        "setup_s": "s", "wall_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
        "peak_rss_mb": "MB", "jobs_failed_frac": "ratio",
    }
    assert set(metrics) == E2E_METRICS - {"jobs_failed_frac"}
    assert all(set(m) == {"value", "unit"} for m in metrics.values())
    # an empty report fails every check
    assert len(result["failures"]) == result["attempted"] >= worker.MIN_JOBS


def test_a_broken_job_is_counted_in_jobs_failed_frac():
    good = workloads.Job("check-trace-fs", ("check", "trace", "--space", "fs", "--k", "3"), "identity")
    # two radial nodes cannot resolve rank 4, so the Gram is degenerate (exit 3)
    broken = workloads.Job(
        "check-partition-fs", ("check", "partition", "--space", "fs", "--k", "3", "--radial", "1", "--angular", "1"),
        "identity",
    )
    args = Namespace(workload="test", seed=1, seconds=0.0, trace=0)
    result = worker.timed_loop(cli, [good, broken], {}, args, worker.Yardstick())
    result["peak_rss_mb"] = 1.0
    _, lines = run.end_to_end([0.5], result)
    frac = next(line for line in lines if line.split()[0] == "jobs_failed_frac")
    assert float(frac.split()[1]) == pytest.approx(0.5)
    assert all("exit code 3" in failure for failure in result["failures"])


def test_traced_job_writes_the_same_bytes_and_records_spans():
    argv = ("sample", "--space", "fs", "--k", "4", "--reps", "3", "--seed", "5", "--workers", "1")
    plain = worker.run_job(cli, argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_job(cli, argv)
    finally:
        tracer.uninstall()
    assert traced[:2] == plain[:2]
    assert worker.run_job(cli, argv)[:2] == plain[:2]
    # uninstall restores every binding, so later calls record nothing
    count = len(tracer.spans)
    worker.run_job(cli, argv)
    assert len(tracer.spans) == count
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["cli.run.calls"] == 1
    assert layers["sampler.sample_dpp.calls"] == 3
    assert layers["sampler.sample_dpp.points"] == 15
    assert layers["sampler.sample_dpp.proposals"] >= 15
    assert 0.0 < layers["sampler.sample_dpp.accept_ratio"] <= 1.0
    assert all(layers[f"{name}.self_s"] >= 0.0 for name in tracing.SPAN_NAMES)


def test_run_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weighted", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
