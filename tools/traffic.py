"""Traffic of the CLI: the code of bergdpp that no benchmark job or README command runs.

    python tools/traffic.py --seeds 1

Runs the suites that tools/record.py records (every set-up input, warm-up
and timed job of each workload of perfbench/workloads.py at each seed, then
the README commands), in-process and in the same order, under a line tracer
(sys.settrace) that follows only the files of the bergdpp package.  Then it
prints, per module, the functions that no job entered and the lines of the
functions it entered that no job ran.

A line counts as a statement when a function's bytecode holds it (the code
objects of the compiled module, nested functions, lambdas and
comprehensions included), less each function's def line, which runs no
statement of its own.  Module and class bodies run at import, before
tracing starts, so they are not counted.  A process spawned by --workers
runs untraced, but no job of the suites spawns one.  Traced, the suites
take several times their untraced time; bergdpp is imported as
tools/record.py imports it.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import record  # noqa: E402  (sets the paths of bergdpp, perfbench and the tests)


def _code_objects(code: types.CodeType):
    """The code objects nested in code, at any depth: class bodies, functions, lambdas, comprehensions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def _statements(path: Path) -> dict[types.CodeType, set[int]]:
    """Each function code object of the module at path, with the lines its bytecode holds.

    A class body, which runs at import, is the one code object without
    CO_OPTIMIZED; its methods are functions of their own.
    """
    module = compile(path.read_text(), str(path), "exec")
    return {
        code: {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
        for code in _code_objects(module) if code.co_flags & inspect.CO_OPTIMIZED
    }


def trace(suites) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """Run each suite, a list of record.py jobs, under the tracer; restores the caller's trace function.

    Returns the (file, line) pairs run and the (file, def line) pairs of the
    code objects entered, for the files of the bergdpp package.
    """
    from bergdpp import cli

    package = str(Path(cli.__file__).parent)  # as the code objects name their files
    lines: set[tuple[str, int]] = set()
    entered: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    caller = sys.gettrace()
    sys.settrace(calls)
    try:
        for jobs in suites:
            record._record_suite(cli, jobs, {})
    finally:
        sys.settrace(caller)
    return lines, entered


def idle(lines, entered) -> dict[str, tuple[list[str], list[int]]]:
    """Per module of bergdpp: the functions never entered, and the unrun lines of the ones entered."""
    from bergdpp import cli

    out = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        name = str(path)
        functions, unrun = [], []
        for code, statements in _statements(path).items():
            if (name, code.co_firstlineno) not in entered:
                if not code.co_name.startswith("<"):  # lambdas and comprehensions count as lines
                    functions.append(f"{code.co_qualname} ({code.co_firstlineno})")
                continue
            unrun += [line for line in statements if (name, line) not in lines]
        out[path.name] = (functions, sorted(set(unrun)))
    return out


def _ranges(numbers: list[int]) -> str:
    """1, 2, 3, 7 as '1-3, 7'."""
    spans: list[list[int]] = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds (default 1)")
    args = parser.parse_args(argv)
    # read when numpy loads its BLAS, which the first import of bergdpp does
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    import workloads

    suites = [
        list(record._workload_jobs(workload, int(seed)))
        for seed in args.seeds.split(",") for workload in workloads.WORKLOADS
    ]
    lines, entered = trace([*suites, list(record._readme_jobs())])
    for module, (functions, unrun) in idle(lines, entered).items():
        print(f"{module}: {len(functions)} functions not entered, {len(unrun)} lines not run")
        if functions:
            print(f"  functions: {', '.join(functions)}")
        if unrun:
            print(f"  lines: {_ranges(unrun)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
