"""tools/traffic.py: a traced job list records the lines it ran, and the caller's tracer comes back."""

import importlib.util
import inspect
import sys
import time
from pathlib import Path

from bergdpp import quadrature

_SPEC = importlib.util.spec_from_file_location(
    "traffic", Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

# two unweighted jobs: the Ginibre grid takes the tail edge, never the weighted edge search
JOBS = [
    ("partition", ("check", "partition", "--space", "ginibre", "--n", "20"), {}),
    ("sample", ("sample", "--space", "fs", "--k", "3", "--reps", "2", "--seed", "1"), {}),
]


def _line(function, text: str) -> tuple[str, int]:
    """(file, line) of the first source line of function that holds text."""
    lines, first = inspect.getsourcelines(function)
    return function.__code__.co_filename, first + next(i for i, line in enumerate(lines) if text in line)


def test_two_traced_jobs_run_the_tail_edge_and_not_the_weighted_search():
    def caller(frame, event, arg):  # a tracer of the caller's, which must come back
        return None

    before = sys.gettrace()
    start = time.perf_counter()
    sys.settrace(caller)
    try:
        lines, entered = traffic.trace([JOBS])
        assert sys.gettrace() is caller
    finally:
        sys.settrace(before)
    assert time.perf_counter() - start < 2.0
    assert _line(quadrature._ginibre_edge, "return t0") in lines  # psi is None
    assert _line(quadrature._ginibre_edge, "top, S = ") not in lines
    # _ginibre_edge was entered, so its search lines are listed; its weighted helpers never were
    functions, unrun = traffic.idle(lines, entered)["quadrature.py"]
    assert _line(quadrature._ginibre_edge, "top, S = ")[1] in unrun
    assert any(f.startswith("_ginibre_edge.<locals>.log_g (") for f in functions)
