"""No library module writes another object's private state.

An underscore attribute belongs to the object that owns it: a module of
src/bergdpp assigns to one, or to an item of one, only on self.  A cache
that one object fills in another's private dict hides a second code path
for the same value.
"""

import ast
from pathlib import Path

import pytest

import bergdpp

SRC = Path(bergdpp.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _targets(node):
    """The targets a statement assigns to, tuples and starred targets unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _foreign_private(target) -> bool:
    """x._a = ... or x._a[i]... = ..., with x anything but the name self."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return (
        isinstance(target, ast.Attribute)
        and target.attr.startswith("_")
        and not (isinstance(target.value, ast.Name) and target.value.id == "self")
    )


@pytest.mark.parametrize("name", MODULES)
def test_no_module_writes_a_private_attribute_of_another_object(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}"
        for node in ast.walk(tree)
        if any(_foreign_private(target) for target in _targets(node))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("path._grams[t] = part", True),
        ("other._cache = {}", True),
        ("self.part._x = 1", True),
        ("a, b._n = 1, 2", True),
        ("g._d[0][1] += 1", True),
        ("self._grams[t] = part", False),
        ("self._n: int = 0", False),
        ("path.grams[t] = part", False),
        ("x = path._grams[t]", False),
    ],
)
def test_the_guard_tells_foreign_private_writes_apart(source, flagged):
    (node,) = ast.parse(source).body
    assert any(_foreign_private(target) for target in _targets(node)) == flagged
