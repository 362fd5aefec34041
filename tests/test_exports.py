"""Every exported name resolves, so deleted code cannot linger in __all__;
every exported name is defined in the module that exports it, so no module
re-exports another's; and the package root re-exports nothing: names are
imported from the submodules that define them."""

import ast
import importlib
import inspect
import pkgutil

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
