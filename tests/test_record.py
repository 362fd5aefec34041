"""tools/record.py: the byte record is the same in any directory, and a comparison names the stream."""

import copy
import importlib.util
import os
from pathlib import Path

from bergdpp import cli

_SPEC = importlib.util.spec_from_file_location(
    "record", Path(__file__).resolve().parents[1] / "tools" / "record.py"
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

JOBS = [
    ("write", ("sample", "--space", "fs", "--k", "2", "--reps", "3", "--seed", "1", "--out", "@samples"), {}),
    ("read", ("stats", "counts", "--samples", "@samples", "--region", "disk:1"), {}),
    ("seed from the environment", ("bergdpp", "stats", "circular", "--space", "ginibre", "--n", "5", "--reps", "2"),
     {"BERGDPP_SEED": "5"}),
]


def _suite() -> dict:
    records = {}
    record._record_suite(cli, JOBS, records)
    return records


def test_record_is_the_same_in_every_temporary_directory(monkeypatch):
    # the stats counts report names its samples file, written as @samples
    monkeypatch.delenv("BERGDPP_SEED", raising=False)
    first, second = _suite(), _suite()
    assert "BERGDPP_SEED" not in os.environ
    assert first == second
    assert [entry["exit"] for entry in first.values()] == [0, 0, 0]
    assert list(first["write: " + " ".join(JOBS[0][1])]["files"]) == ["samples.json"]
    assert all(not entry["files"] for key, entry in first.items() if not key.startswith("write"))


def test_compare_names_the_streams_that_differ():
    a = {"jobs": _suite()}
    b = copy.deepcopy(a)
    assert record.compare(a, b) == []
    key, read = ("{}: {}".format(name, " ".join(argv)) for name, argv, _ in JOBS[:2])
    b["jobs"][key]["files"] = {"samples.json": "0" * 64}
    b["jobs"][key]["exit"] = 2
    b["jobs"]["extra: x"] = b["jobs"][key]
    # a report's numbers are recorded at their paths, a samples file's are not
    assert a["jobs"][key]["numbers"] == []
    numbers = a["jobs"][read]["numbers"]
    i = next(i for i, (path, _) in enumerate(numbers) if path.endswith(" predicted_mean"))
    path, old = numbers[i]
    assert path.startswith("stdout:") and float(old) > 0.0
    b["jobs"][read]["stdout"] = "0" * 64
    b["jobs"][read]["numbers"][i][1] = "7.5"
    assert record.compare(a, b) == [
        f"{key}: exit, file samples.json",
        f"{read}: stdout",
        f"  {path}: {old} \u2192 7.5",
        "extra: x: only in B",
    ]


def test_numbers_are_found_with_the_words_before_them():
    text = 'trace = 3.000000000 (rank 3, error 1.2e-15)\n  "z": -0.5,\n  "v": "0.1.0"\n'
    assert record._numbers("stdout", text) == [
        ["stdout:1 trace", "3.000000000"], ["stdout:1 rank", "3"], ["stdout:1 error", "1.2e-15"],
        ["stdout:2 z", "-0.5"],
    ]
    assert record._numbers("stdout", '{"schema": "bergdpp.samples/1", "x": 1.5}') == []
