"""Regenerate perfbench/references.json from the current bergdpp.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

The references are the values of every deterministic job (Job.check ==
"reference") of every workload, warm-ups included.  Those jobs take no seed,
so one seed covers them all.  Regenerate only when a change to bergdpp is
meant to move these values, and say so with the change.
"""

from __future__ import annotations

import json
import sys

import worker
from checks import REFERENCES, observe, reference_key
from workloads import WORKLOADS, build


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    from bergdpp import cli

    references = {}
    for name in WORKLOADS:
        plan = build(name, 0)
        for job in (*plan.jobs, *plan.warmups):
            if job.check != "reference" or reference_key(job.argv) in references:
                continue
            rc, text, _ = worker.run_job(cli, job.argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(job.argv)} exited with code {rc}")
            values = {key: value for key, (value, _) in observe(job.argv, text).items()}
            references[reference_key(job.argv)] = values
            print(f"{reference_key(job.argv)}: {values}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
