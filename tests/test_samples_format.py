"""The samples-file format lives in bergdpp.cli alone.

cli writes a samples report (_samples_json) and reads it back
(_load_samples) as one (reps, N, dim) point array, so no other library
module spells a key of that file: not as a dict-display key, not as a
subscript, and not as the key of a .get or .pop call.  The samplers return
point arrays, and the writer alone decides a configuration's origin and
mcmc_step, so no other module declares a field or passes a keyword argument
of those names either.
"""

import ast
from pathlib import Path

import pytest

import bergdpp

SRC = Path(bergdpp.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))
KEYS = {"points", "log_density", "origin", "mcmc_step", "configurations"}
FIELDS = {"origin", "mcmc_step"}


def _is_key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in KEYS


def _key_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(_is_key(k) for k in node.keys if k is not None):
            yield node
        elif isinstance(node, ast.Subscript) and _is_key(node.slice):
            yield node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "pop", "setdefault")
            and node.args
            and _is_key(node.args[0])
        ):
            yield node


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli.py"])
def test_no_samples_file_key_outside_cli(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    found = [f"{name}:{node.lineno}: {ast.unparse(node)[:80]}" for node in _key_uses(tree)]
    assert found == []


def test_the_guard_sees_the_keys_cli_uses():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    seen = {ast.unparse(node) for node in _key_uses(tree)}
    assert "entry['points']" in seen
    assert "data.get('configurations')" in seen


def _field_uses(tree):
    """Class-body fields and keyword arguments named origin or mcmc_step."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                if any(isinstance(t, ast.Name) and t.id in FIELDS for t in targets):
                    yield stmt
        elif isinstance(node, ast.keyword) and node.arg in FIELDS:
            yield node


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli.py"])
def test_no_samples_file_field_outside_cli(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    found = [f"{name}:{node.lineno}: {ast.unparse(node)[:80]}" for node in _field_uses(tree)]
    assert found == []


def test_the_field_guard_sees_fields_and_keywords():
    tree = ast.parse("class C:\n    origin: str\n    mcmc_step = None\nC(origin='exact')\n")
    assert [ast.unparse(node) for node in _field_uses(tree)] == [
        "origin: str", "mcmc_step = None", "origin='exact'"
    ]
