"""The factor kinds are told apart in bergdpp.spaces alone.

ModelSpace.factors answers every per-factor question, so no other library
module compares a space's kind (or the CLI's --space) to a string, except
cli.py, which parses them; and no module outside spaces reaches for a
private attribute of a space or a factor.
"""

import ast
import re
from pathlib import Path

import pytest

import bergdpp

SRC = Path(bergdpp.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def _is_kind(node) -> bool:
    """x.kind, or args.space."""
    if not isinstance(node, ast.Attribute):
        return False
    return node.attr == "kind" or (
        node.attr == "space" and isinstance(node.value, ast.Name) and node.value.id == "args"
    )


def _has_string(node) -> bool:
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in ast.walk(node))


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("spaces.py", "cli.py")])
def test_no_kind_comparison_outside_spaces_and_cli(name):
    tree = _tree(name)
    # names bound to a kind, as in `kind = space.kind`, count as the kind itself
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_kind(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            kind = any(_is_kind(x) or (isinstance(x, ast.Name) and x.id in aliases) for x in operands)
            if kind and any(_has_string(x) for x in operands):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def _private_members() -> set[str]:
    """Underscore-prefixed (not dunder) methods and attributes of the classes in spaces.py."""
    names = set()
    for cls in ast.walk(_tree("spaces.py")):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "spaces.py"])
def test_no_private_space_or_factor_attribute_outside_spaces(name):
    private = _private_members()
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and (node.attr in private or re.search(r"space|factor", ast.unparse(node.value)))
    ]
    assert found == []
