"""The factor kinds are told apart in bergdpp.spaces alone.

ModelSpace.factors answers every per-factor question, so no other library
module compares a space's kind (or the CLI's --space) to a string, except
cli.py, which parses them; and no module outside spaces reaches for a
private attribute of a space or a factor.  The product structure is used
in quadrature alone: outside it and the spaces and exprs that define them,
no module splits a space, a grid or a weight into factors.  cli.py builds
its spaces from a space block, as a samples file's space is built, and calls
no kind's builder.
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


# the names that split a product into its factors
FACTOR_SPLITS = {"factor_space", "factor", "factor_weights", "factored_weights", "_factored_weights"}


def _name(node) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("quadrature.py", "spaces.py", "exprs.py")])
def test_no_factor_split_outside_quadrature(name):
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(_tree(name))
        if (isinstance(node, ast.Call) and _name(node.func) in FACTOR_SPLITS)
        or (isinstance(node, ast.ImportFrom) and any(a.name in FACTOR_SPLITS for a in node.names))
    ]
    assert found == []


def test_cli_builds_spaces_only_through_space_from_config():
    # the CLI turns its space flags into a space block and builds it as a
    # samples file's block is built, so the kinds' builders are not called there
    builders = {"make_fubini_study", "make_ginibre", "make_product"}
    found = [
        f"cli.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(_tree("cli.py"))
        if (isinstance(node, ast.Call) and _name(node.func) in builders)
        or (isinstance(node, ast.ImportFrom) and any(a.name in builders for a in node.names))
    ]
    assert found == []
