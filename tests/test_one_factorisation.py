"""A Gram is factored once, in quadrature, and read through GramMatrix.whiten.

gram() judges the scaled Gram S by its eigenvalues, and the dense route's
map reads one Cholesky factor of S (GramMatrix.cholesky) through whiten.  No
module names an eigendecomposition (eigh) or a formed map (transform), and
no module other than quadrature factors a matrix by Cholesky or reads that
factor, so a second decomposition or a second reader of the factor cannot
come back unseen.
"""

import ast
from pathlib import Path

import pytest

import bergdpp

SRC = Path(bergdpp.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _names(name: str):
    """(line, identifier) for every name, attribute and imported name of a module."""
    for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name)):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_no_second_decomposition_or_formed_map(name):
    found = [f"{name}:{line}: {ident}" for line, ident in _names(name) if ident in ("eigh", "transform")]
    assert found == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "quadrature.py"])
def test_cholesky_only_in_quadrature(name):
    found = [f"{name}:{line}: {ident}" for line, ident in _names(name) if ident == "cholesky"]
    assert found == []


def test_the_guard_sees_what_it_forbids():
    # the walk finds the cholesky call and the cached factor in quadrature itself
    assert {ident for _, ident in _names("quadrature.py")} >= {"cholesky", "whiten", "eigvalsh"}
