"""The README's commands run as documented.

Every `bergdpp` command in a fenced sh block of README.md runs in-process,
in README order, in one temporary directory, so that a file one command
writes (samples.json, points.json) is there when a later command reads it.
Line continuations are joined, a leading `BERGDPP_SEED=<n>` sets the seed
variable for that command, and an `echo '<text>' > <file>` line writes the
file.  Each command must exit 0.  Its report, on stdout or in its --out
file, must be strict JSON (no NaN or Infinity), the intensity CSV with a
strict-JSON config line, or, for `check`, the documented text lines.
"""

import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

from bergdpp.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"

# the text lines of `check partition`, `check gram` and `check trace`
_CHECK_LINE = re.compile(
    r"(log )?Z = \S+"
    r"|(log )?N! = \S+ \(relative error \S+\)"
    r"|max \|G - I\| = \S+"
    r"|gram written to \S+"
    r"|trace = \S+ \(rank \d+, error \S+\)"
)


def _commands():
    """(line, environment, words) of each command line of the README's sh blocks."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            env = {}
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                name, value = words.pop(0).split("=", 1)
                env[name] = value
            if words[:1] in (["bergdpp"], ["echo"]):
                yield line, env, words


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _report_fault(words, stdout: str) -> str | None:
    """What is wrong with a command's report, or None."""
    out = words[words.index("--out") + 1] if "--out" in words else None
    if out is not None and stdout:
        return f"printed {stdout!r} beside --out"
    text = Path(out).read_text() if out is not None else stdout
    if words[1] == "check":
        bad = [line for line in text.splitlines() if not _CHECK_LINE.fullmatch(line)]
        return f"undocumented lines {bad}" if bad or not text else None
    if out is not None and out.endswith(".csv"):
        head, *rows = text.splitlines()
        _strict_json(head.split(" config=", 1)[1])
        body = list(csv.reader(rows))
        for row in body[1:]:
            list(map(float, row))  # every cell a number: float raises ValueError otherwise
        return None if head.startswith("# schema=bergdpp.") and len(body) > 1 else "not a report CSV"
    return None if "schema" in _strict_json(text) else "a JSON report without a schema"


def test_readme_commands_run_as_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = list(_commands())
    assert sum(words[0] == "bergdpp" for _, _, words in commands) >= 15
    faults = []
    for line, env, words in commands:
        if words[0] == "echo":
            assert words[-2] == ">", line
            Path(words[-1]).write_text(" ".join(words[1:-2]) + "\n")
            continue
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(words[1:])
        if code != 0:
            faults.append(f"{line}: exit {code}: {stderr.getvalue().strip()}")
            continue
        try:
            fault = _report_fault(words, stdout.getvalue())
        except (ValueError, IndexError, OSError) as exc:
            fault = repr(exc)
        if fault is not None:
            faults.append(f"{line}: {fault}")
    assert faults == []
