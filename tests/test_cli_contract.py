"""The CLI contract as a property: every argument list ends in exit 0, 2 or 3.

Argument lists are drawn from build_parser() itself, so a new subcommand or
flag is covered as soon as it is added: each leaf subcommand, each of its
flags with small sizes and adversarial values (0, negatives, 1e308, nan,
inf, empty strings, malformed weights, regions, lists, points and samples
files).  --workers is never above 1.  The space flags come after --space:
those its kind reads are drawn 9 times in 10, the others about 1 in 10.
Warnings are errors, so a printed Python warning fails the property.

On exit 0 the report, on stdout or in the --out file, is strict JSON, the
intensity CSV or the check lines (test_readme._report_fault), stderr is
empty, and every space flag given is one its kind reads (no --k beside
--ks).  Otherwise stderr is one `error:` or `numerical failure:` line, or
argparse's usage message ending in its own error line.
"""

import argparse
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergdpp.cli import build_parser, run
from bergdpp.spaces import SPACE_KEYS
from test_readme import _report_fault

GOOD_WEIGHTS = [
    "r2/(1+r2)", "0.2/(1+r2)", "r2_1/(1+r2_1)", "log(1+r2_1)", "(1-r2)/2", "re_1/(1+r2)",
    "re_1/(1+r2_1)", "r2_1*r2_2/(1+r2_1)", "re_1/(1+r2_1)+im_2*im_2/(1+r2_2)", "2+re_1/(1+r2_1)",
]
BAD_WEIGHTS = ["1e308*r2", "1e300*r2", "exp(exp(r2))", "log(r2-1)", "-r2", "r2_3", "im_2",
               "nan", "(", "", "r2 +", "x"]
# (good, bad) values per flag dest; a flag not named here draws from its type's lists
VALUES = {
    "space": (["fs", "ginibre", "product"], ["torus", ""]),
    "k": (["1", "2", "3"], ["0", "-1", "1e308", ""]),
    "n": (["1", "3", "5"], ["0", "-1", "nan"]),
    "mults": (["1", "1,2", "2", "1,1"], ["0", "-1", "", "1,,2", "a", "1e308"]),
    "ks": (["1", "2,3", "1,3"], ["0", "-1", "", "nan", "2,a"]),
    "t": (["0,0.5", "0.3", "1,-0.5"], ["nan", "0,-inf", "1e308", "", "a", "0,,1"]),
    "reps": (["1", "2", "3"], ["0", "-1"]),
    "seed": (["1", "7"], ["0", "-1", "nan"]),
    "workers": (["1"], ["0", "-1"]),
    "mcmc_steps": (["5", "12", "30"], ["0", "-1"]),
    "burn_in": (["0", "2"], ["40", "-1"]),
    "thin": (["1", "3"], ["0", "-1"]),
    "proposal_scale": (["0.5", "2"], ["0", "-1", "1e308", "nan", "inf", ""]),
    "bins": (["3", "1"], ["0", "-1"]),
    "extent": (["2", "0.5"], ["0", "-1", "1e308", "nan", "inf", ""]),
    "s_nodes": (["16", "24"], ["0", "-1"]),
    "radial": (["4", "8"], ["1", "0", "-1"]),
    "angular": (["4", "8"], ["1", "0", "-1"]),
    "region": (["disk:1.0", "annulus:0.5:1.5", "full", "disk:1.0xdisk:1.0"],
               ["disk:1e308", "disk:-1", "annulus:2:1", "disk:nan", "", "x"]),
    "out": (["@report"], ["missing/out.json", ""]),  # @report: out.csv for intensity, else out.json
    "gram_csv": (["gram.csv"], ["missing/gram.csv"]),
    "samples": (["good.json"], ["huge.json", "short.json", "weighted.json", "broken.json",
                                "list.json", "missing.json", ""]),
    "points": (["points.json"], ["huge_points.json", "empty_points.json", "text_points.json",
                                 "broken.json", "missing.json"]),
}
BY_TYPE = {
    int: (["1", "2"], ["0", "-1", "nan"]),
    float: (["0.5"], ["0", "-1", "1e308", "nan", "inf", "-inf", ""]),
    None: (GOOD_WEIGHTS, BAD_WEIGHTS),
}
# flags that most runs need: drawn more often than other optional flags
COMMON_FLAGS = {"space", "seed", "region"}
# the space flags, by dest, and the space-block key each one gives
SPACE_FLAGS = {"k": "k", "n": "N", "mults": "multiplicities"}
_ARGPARSE_ERROR = re.compile(r"bergdpp( \S+)*: error: .*")


def _leaves(parser, words=()):
    """(words, parser) of each leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*words, name))
            return
    yield words, parser


def _flags(parser):
    return [a for a in parser._actions if a.option_strings and a.dest not in ("help", "version")]


LEAVES = list(_leaves(build_parser()))


def _reads(kind, dest: str, family: bool) -> bool:
    """Whether a space of this kind reads the space flag dest; a --ks family sets k itself."""
    return SPACE_FLAGS[dest] in SPACE_KEYS.get(kind, ()) and not (family and dest == "k")


@st.composite
def argv(draw):
    """A leaf subcommand with flags drawn from its parser; one value in five is a bad one."""
    words, parser = draw(st.sampled_from(LEAVES))
    out = list(words)
    kind, family = None, any(action.dest == "ks" for action in _flags(parser))
    for action in _flags(parser):
        share = 9 if action.required else 7 if action.dest in COMMON_FLAGS else 3
        if action.dest == "samples":  # which clashes with the fresh-draw flags
            share = 2
        if action.dest in SPACE_FLAGS:  # drawn after --space
            share = 8 if _reads(kind, action.dest, family) else None
        drawn = draw(st.integers(0, 9))
        # required always, the kind's space flags 9 in 10, common 8 in 10, others 4 in
        # 10; another kind's 1 in 10, on the top value, not the bottom one hypothesis favours
        if drawn > share if share is not None else drawn < 9:
            continue
        good, bad = VALUES.get(action.dest, BY_TYPE.get(action.type, BY_TYPE[None]))
        for _ in range(draw(st.integers(1, 2)) if action.dest == "region" else 1):
            value = draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 4 else good))
            if value == "@report":
                value = "out.csv" if words == ("stats", "intensity") else "out.json"
            out += [action.option_strings[0], value]
        if action.dest == "space":
            kind = out[-1]
    return out


def _write_inputs(tmp_path: Path) -> None:
    assert run(["sample", "--space", "fs", "--k", "2", "--reps", "3", "--seed", "1",
                "--out", str(tmp_path / "good.json")]) == 0
    good = json.loads((tmp_path / "good.json").read_text())
    files = {
        "huge.json": {**good, "configurations": [
            {**c, "points": [[1e200, 1e200]] * 3} for c in good["configurations"]]},
        "short.json": {**good, "configurations": [{**c, "points": c["points"][:1]}
                                                  for c in good["configurations"]]},
        "weighted.json": {**good, "config": {**good["config"], "weight_expr": "r2"}},
        "list.json": [1, 2],
        "points.json": {"points": [[0.3, 0.1], [-0.2, 0.4]]},
        "huge_points.json": {"points": [[1e300, 0.0]]},
        "empty_points.json": {"points": []},
        "text_points.json": {"points": [["a", 0.1]]},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "broken.json").write_text('{"points": [[0.1,')


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BERGDPP_SEED", raising=False)
    _write_inputs(tmp_path)
    return tmp_path


@settings(max_examples=1000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv())
def test_every_argument_list_keeps_the_cli_contract(inputs, words):
    for name in ("out.json", "out.csv", "gram.csv", "stdout.csv"):
        (inputs / name).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(words)
    lines = stderr.getvalue().splitlines()
    assert code in (0, 2, 3), (words, code)
    if code == 0:
        assert lines == [], words
        # every space flag is read by its kind: --space's, or good.json's fs
        flags = {word: value for word, value in zip(words, words[1:]) if word.startswith("--")}
        kind, family = flags.get("--space", "fs"), "--ks" in flags
        assert all(_reads(kind, dest, family) for dest in SPACE_FLAGS if f"--{dest}" in flags), words
        report = ["bergdpp", *words]
        if words[:2] == ["stats", "intensity"] and "--out" not in words:
            # the intensity CSV on stdout, read as the CSV file it would be
            Path("stdout.csv").write_text(stdout.getvalue())
            report, stdout = [*report, "--out", "stdout.csv"], io.StringIO()
        assert _report_fault(report, stdout.getvalue()) is None, words
    elif lines and lines[0].startswith("usage: "):
        assert code == 2 and _ARGPARSE_ERROR.fullmatch(lines[-1]), (words, lines)
    else:
        assert len(lines) == 1, (words, lines)
        assert lines[0].startswith("error: " if code == 2 else ("numerical failure: ", "error: ")), (
            words, lines)
