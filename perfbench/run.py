"""Benchmark of bergdpp: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-sample --seed 1 --seconds 36 --trace 0

Untraced (--trace 0), the run starts SETUPS workload processes: all but the
last stop after set-up, the last one also runs the timed loop (worker.py).
It reports the end-to-end metrics setup_s, wall_s, job_ms_p50, job_ms_p90
and peak_rss_mb.  wall_s and the job percentiles are scaled to the
reference host speed (see worker.py); the summary shows the raw wall time
beside them.  Traced (--trace 1), one process alternates untraced and
traced passes and the run reports the per-layer metrics and the tracing
overhead.  A summary with units and sample counts, jobs_failed_frac
included, goes to standard output, the full record to perfbench/out/, and
the last line of standard output is the JSON result.  The exit code is not 0
when a workload process fails, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUPS = 5                 # set-ups measured per untraced run; setup_s is their median
SETUP_DEADLINE_S = 60.0    # a set-up-only process is killed after this long
LOOP_GRACE_S = 100.0       # the timed process is killed at --seconds plus this
# One BLAS thread in the workload process, whatever the machine has.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Seconds from spawn to READY, and the worker's result unless setup_only."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(deadline, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready.strip() != "READY":
        raise WorkerFailed(f"workload process exited with code {rc}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    """Metrics {name: {value, unit}} and summary lines with sample counts."""
    lat_ms = sorted(1000.0 * s for s in result["job_seconds"])
    p50 = statistics.median(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    walls = result["pass_walls_s"]
    failed, attempted = len(result["failures"]), result["attempted"]
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups, not scaled"),
        ("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes of {result['jobs_per_pass']} jobs;"
         f" raw {statistics.median(result['raw_pass_walls_s']):.4f} s at speed scale {statistics.median(result['speed_scales']):.3f}"),
        ("job_ms_p50", p50, "ms", f"{len(lat_ms)} jobs"),
        ("job_ms_p90", p90, "ms", f"{len(lat_ms)} jobs, {sum(x > p90 for x in lat_ms)} above p90"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "1 process"),
        ("jobs_failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} jobs"),
    ]
    lines = [f"  {name:<18} {value:>12.4f} {unit:<6} ({note})" for name, value, unit, note in rows]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows[:-1]}
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    passes = len(result["traced_pass_walls_s"])
    lines = [
        f"  per pass, median of {passes} traced passes; spans in {result['spans_file']}",
        f"  reports that differ between passes, traced or not: {result['repeat_mismatches']}"
        f" of {result['attempted']}",
    ]
    lines += [f"  {name:<48} {value:>16.6g} {_layer_unit(name)}" for name, value in layers.items()]
    return metrics, lines


def _layer_unit(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field == "self_s":
        return "s"
    if field in ("accept_ratio", "accept_ratio_expected", "acceptance", "overhead_ratio"):
        return "ratio"
    return {"flops_computed": "flop", "bytes_computed": "B"}.get(field, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(args, True, SETUP_DEADLINE_S)[0])
        setup_s, result = run_worker(args, False, args.seconds + LOOP_GRACE_S)
        setups.append(setup_s)
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics, lines = per_layer(result) if args.trace else end_to_end(setups, result)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"setups_s": setups, **result}) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {result['attempted']} jobs checked")
    print(f"  machine: {json.dumps(result['machine'])}")
    print("\n".join(lines))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
