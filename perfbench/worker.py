"""The workload process: set up, then run the job list in a closed loop.

Started by run.py, never imported by bergdpp.  Set-up imports the package
from the checkout's `src`, builds the job list, writes the input files, and
runs one untimed warm-up per job type; then the worker prints READY.  With
--setup-only it stops there.  Otherwise one caller runs the job list pass
after pass through `bergdpp.cli.run`, starting another pass while it still
fits in --seconds, verifies every output after each pass, and prints one
JSON result line.

Host speed.  On a shared machine the speed of one core drifts by 10-20%
within seconds and between runs.  A fixed yardstick (numpy and plain Python,
no bergdpp) is timed between jobs, and each job's time is scaled by
YARDSTICK_REF_S over the median of the yardstick times around it: the
reported job and pass times are those of a host running at the reference
speed.  The raw times are kept beside them.  Set-up is not scaled: a
yardstick in a fresh process read up to 1.6 times faster than in the loop.

With --trace 1 passes alternate between untraced and traced (tracing.py), so
the result carries the per-layer metrics of the traced passes and their
scaled wall time over that of the untraced ones.  Each job must write the
same bytes in every pass, traced or not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_JOBS = 100           # untraced jobs per run, so that 10 lie above p90
YARDSTICK_REF_S = 0.0024  # yardstick time of the reference host (2-core Xeon, 2.1 GHz)

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Yardstick:
    """A fixed mix of LAPACK, BLAS, elementwise numpy and interpreter work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.vector = rng.standard_normal(100_000)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            np.linalg.slogdet(self.matrix)
            (self.matrix @ self.matrix).sum()
            np.exp(self.vector).sum()
            sum(i * i for i in range(3000))
        return time.perf_counter() - start


def run_job(cli, argv) -> tuple[int, str, float]:
    """(exit code, captured stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue(), time.perf_counter() - start


def run_pass(cli, jobs, yardstick: Yardstick, tracer=None):
    """Per-job (rc, output, raw seconds) of one pass, and each job's speed scale.

    The yardstick runs before every job and after the last one; a job's
    scale is the reference time over the median of the yardstick times
    around it.
    """
    results, yards = [], [yardstick.seconds()]
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, job.argv))
        yards.append(yardstick.seconds())
    # job i ran between yards[i] and yards[i + 1]; one more on each side damps
    # the noise of single yardstick times
    scales = [YARDSTICK_REF_S / statistics.median(yards[max(0, i - 1):i + 3]) for i in range(len(jobs))]
    return results, scales


class Verifier:
    """Checks each job's output, and that its bytes repeat in every pass."""

    def __init__(self, jobs, references: dict):
        self.jobs = jobs
        self.references = references
        self.digests: list[str | None] = [None] * len(jobs)
        self.attempted = 0
        self.repeat_mismatches = 0
        self.failures: list[str] = []

    def check_pass(self, results) -> None:
        for index, (job, (rc, text, _)) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests[index] is None:
                self.digests[index] = digest
            problem = checks.verify(job, rc, text, self.references)
            if digest != self.digests[index]:
                self.repeat_mismatches += 1
                problem = problem or "report bytes differ from the first pass"
            if problem is not None:
                self.failures.append(f"job {index} ({' '.join(job.argv)}): {problem}")


def timed_loop(cli, jobs, references, args, yardstick: Yardstick) -> dict:
    """Passes until the next one would overrun --seconds and MIN_JOBS jobs ran.

    A traced run alternates an untraced and a traced pass.
    """
    verifier = Verifier(jobs, references)
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}   # scaled pass walls, keyed by traced
    raw_walls, scales, latencies, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            first = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                results, job_scales = run_pass(cli, jobs, yardstick, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            raw = [seconds for _, _, seconds in results]
            scaled = [seconds * scale for seconds, scale in zip(raw, job_scales)]
            walls[traced].append(sum(scaled))
            verifier.check_pass(results)
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans, first))
            else:
                raw_walls.append(sum(raw))
                scales.append(sum(scaled) / sum(raw))
                latencies += scaled
        elapsed = time.perf_counter() - start
        cycle = sum(statistics.median(w) / statistics.median(scales) for w in walls.values() if w)
        enough = tracer is not None or len(raw_walls) * len(jobs) >= MIN_JOBS
        if elapsed + cycle > args.seconds and enough:
            break
    result = {
        "jobs_per_pass": len(jobs),
        "pass_walls_s": walls[False],
        "raw_pass_walls_s": raw_walls,
        "speed_scales": scales,
        "job_seconds": latencies,
        "attempted": verifier.attempted,
        "repeat_mismatches": verifier.repeat_mismatches,
        "failures": verifier.failures,
    }
    if tracer is not None:
        metrics = tracing.median_metrics(layers)
        metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics["trace.spans_per_pass"] = len(tracer.spans) / len(layers)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(spans_file)
        result.update(
            traced_pass_walls_s=walls[True], layers=metrics, spans_file=str(spans_file.relative_to(ROOT))
        )
    return result


def set_up(workload: str, seed: int, workdir: Path):
    """Import bergdpp, build the jobs, write inputs, warm up.

    Returns the cli module, the resolved jobs of one pass and the references.
    """
    src = ROOT / "src"
    if not (src / "bergdpp" / "cli.py").is_file():
        raise SystemExit(f"error: no bergdpp sources under {src}")
    sys.path.insert(0, str(src))
    from bergdpp import cli

    plan = workloads.build(workload, seed)
    samples = str(workdir / "samples.json")

    def resolve(job):
        argv = tuple(samples if a == workloads.SAMPLES_FILE else a for a in job.argv)
        return workloads.Job(job.kind, argv, job.check)

    references = checks.load_references()
    for job in (*plan.inputs, *plan.warmups):
        job = resolve(job)
        rc, text, _ = run_job(cli, job.argv)
        problem = checks.verify(job, rc, text, references)
        if problem is not None:
            raise SystemExit(f"error: set-up job {' '.join(job.argv)} failed: {problem}")
    return cli, [resolve(job) for job in plan.jobs], references


def _machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cli, jobs, references = set_up(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = timed_loop(cli, jobs, references, args, Yardstick())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = _machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
