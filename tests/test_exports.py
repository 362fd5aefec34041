"""Every exported name resolves, so deleted code cannot linger in __all__;
every exported name is defined in the module that exports it, so no module
re-exports another's; the package root re-exports nothing: names are
imported from the submodules that define them; and every public definition
is read somewhere in the library, so test-only code lives in tests/."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import bergdpp

MODULES = ["bergdpp"] + [
    f"bergdpp.{info.name}" for info in pkgutil.iter_modules(bergdpp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def _defined_names(module) -> set[str]:
    """Names the module binds at top level by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_own_module(name):
    # a re-export hides where a name lives: import each name from its module
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if attr not in _defined_names(module)] == []


def test_package_root_binds_only_version():
    # importing a submodule binds it on the package; any other public name is a re-export
    extra = [
        key for key, value in vars(bergdpp).items()
        if not key.startswith("_") and getattr(value, "__name__", None) != f"bergdpp.{key}"
    ]
    assert extra == []
    assert not hasattr(bergdpp, "__all__")
    assert bergdpp.__version__


SRC = Path(__file__).resolve().parents[1] / "src" / "bergdpp"
README = Path(__file__).resolve().parents[1] / "README.md"

# public names that no library module reads, kept on purpose
UNREAD_BY_DESIGN = {
    "reweighted_evaluator": "perfbench's tracer times it; it gains a library caller or moves to the tests",
    "kernel_matrix": "the correlation matrix [B(x_a, x_b)] itself, whose determinants kernel_det takes",
    "rescaled_correlation": "the rescaled m-point correlation of the scaling theorem, one group set of _rescaled",
}


def _library_use_names() -> set[str]:
    """The names the README's "Library use" block reads."""
    text = README.read_text()
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.S | re.M).group(1)
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(ast.parse(block))
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_definition_is_read_in_the_library():
    # a public function, class or method that no module of src/ names beyond
    # its own definition is test-only code: it belongs in tests/
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}", m.name) for m in node.body if isinstance(m, ast.FunctionDef)
                ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    exempt = _library_use_names() | UNREAD_BY_DESIGN.keys()
    unread = [
        f"{owner}.{name}" for owner, name in defined
        if not name.startswith("_") and name not in read and name not in exempt
    ]
    assert unread == []
