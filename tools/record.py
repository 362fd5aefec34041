"""Byte record of the CLI: sha256 digests of every benchmark job and README command.

    python tools/record.py --seeds 1,2 --out record.json
    python tools/record.py --compare parent.json change.json

Recording runs, for each seed and each workload of perfbench/workloads.py,
every set-up input, warm-up and timed job in that order (one pass), then
every command of the README's sh blocks in README order, read by
tests/test_readme.py's _commands().  Each job runs in-process through
bergdpp.cli.run with one BLAS thread.  A workload at a seed and the README
each run in a fresh temporary directory, so a file one job writes is there
for the jobs after it; the samples path replaces SAMPLES_FILE ("@samples")
in the argv, and "@samples" replaces the path in every output.  The record
holds, per job, the exit code and the sha256 of stdout, stderr and each
file the job wrote or changed.

bergdpp is imported from PYTHONPATH when that holds one, else from this
checkout's src/.  So a record of another commit runs from a checkout of it
(a git worktree) with PYTHONPATH=<checkout>/src; the job lists and README
commands are always this checkout's.  --compare lists the jobs whose
streams differ, and the jobs that only one record has, and exits 1 if there
are any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
if importlib.util.find_spec("bergdpp") is None:
    sys.path.insert(0, str(ROOT / "src"))
sys.path += [str(ROOT / "perfbench"), str(ROOT / "tests")]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _files(workdir: Path, samples: str) -> dict[str, str]:
    """Digest of each file under workdir, its text with the samples path normalised."""
    return {
        str(path.relative_to(workdir)): _sha(path.read_bytes().replace(samples.encode(), b"@samples"))
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }


def _run(cli, argv, workdir: Path, samples: str) -> dict:
    """Exit code and stream digests of one in-process CLI call."""
    before = _files(workdir, samples)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # recorded, not raised: a crash is one more output
            code = f"raised {type(exc).__name__}"
            print(repr(exc), file=sys.stderr)
    after = _files(workdir, samples)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(samples, "@samples")),
        "stderr": _sha(err.getvalue().replace(samples, "@samples")),
        "files": {name: digest for name, digest in after.items() if before.get(name) != digest},
    }


def _workload_jobs(workload: str, seed: int):
    import workloads

    plan = workloads.build(workload, seed)
    for stage, jobs in (("input", plan.inputs), ("warmup", plan.warmups), ("timed", plan.jobs)):
        for i, job in enumerate(jobs):
            yield f"{workload} seed {seed} {stage} {i}", job.argv, {}


def _readme_jobs():
    from test_readme import _commands

    for i, (_, env, words) in enumerate(_commands()):
        yield f"readme {i}", words, env


def _record_suite(cli, jobs, records: dict) -> None:
    """Run one suite's jobs in order in a fresh directory, adding each job's digests to records."""
    from workloads import SAMPLES_FILE

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        samples = str(workdir / "samples.json")
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for name, argv, env in jobs:
                key = f"{name}: {' '.join(argv)}"
                if argv[0] == "echo":  # echo <text> > <file>, as tests/test_readme.py writes it
                    Path(argv[-1]).write_text(" ".join(argv[1:-2]) + "\n")
                    continue
                argv = [samples if a == SAMPLES_FILE else a for a in argv]
                with mock.patch.dict(os.environ, env):
                    records[key] = _run(cli, argv[1:] if argv[0] == "bergdpp" else argv, workdir, samples)
        finally:
            os.chdir(cwd)


def record(seeds: list[int]) -> dict:
    import workloads
    from bergdpp import cli

    records: dict = {}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            _record_suite(cli, _workload_jobs(workload, seed), records)
    _record_suite(cli, _readme_jobs(), records)
    return {"bergdpp": str(Path(cli.__file__).resolve().parent), "seeds": seeds, "jobs": records}


def compare(a: dict, b: dict) -> list[str]:
    """One line per job that differs: the streams that differ, or the record that lacks it."""
    lines = []
    for key in [*a["jobs"], *(k for k in b["jobs"] if k not in a["jobs"])]:
        if key not in b["jobs"] or key not in a["jobs"]:
            lines.append(f"{key}: only in {'A' if key in a['jobs'] else 'B'}")
            continue
        x, y = a["jobs"][key], b["jobs"][key]
        streams = [s for s in ("exit", "stdout", "stderr") if x[s] != y[s]]
        names = sorted(set(x["files"]) | set(y["files"]))
        streams += [f"file {n}" for n in names if x["files"].get(n) != y["files"].get(n)]
        if streams:
            lines.append(f"{key}: {', '.join(streams)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="comma-separated workload seeds (default 1,2)")
    parser.add_argument("--out", default=None, help="record file (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = parser.parse_args(argv)
    # read when numpy loads its BLAS, which the first import of bergdpp does
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(set(a['jobs']) | set(b['jobs']))} jobs differ"]))
        return 1 if lines else 0
    start = time.perf_counter()
    result = record([int(s) for s in args.seeds.split(",")])
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    print(f"{len(result['jobs'])} jobs from {result['bergdpp']} in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
