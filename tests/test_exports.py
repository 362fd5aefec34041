"""Every exported name resolves, so deleted code cannot linger in __all__, and
the package root re-exports nothing: names are imported from the submodules."""

import importlib
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


def test_package_root_binds_only_version():
    # importing a submodule binds it on the package; any other public name is a re-export
    extra = [
        key for key, value in vars(bergdpp).items()
        if not key.startswith("_") and getattr(value, "__name__", None) != f"bergdpp.{key}"
    ]
    assert extra == []
    assert not hasattr(bergdpp, "__all__")
    assert bergdpp.__version__
