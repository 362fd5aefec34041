"""Run every workload once and print each run's summary.

    python3 perfbench/report.py --seed 1 --seconds 36 [--trace]

Untraced, each workload prints setup_s, wall_s, job_ms_p50, job_ms_p90,
peak_rss_mb and jobs_failed_frac with units and sample counts; with
--trace it prints the per-layer metrics and the tracing overhead instead.
The exit code is the number of workloads whose run failed or had a failed job.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bad = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        bad += proc.returncode != 0 or not json.loads(lines[-1])["correct"]
    return bad


if __name__ == "__main__":
    sys.exit(main())
