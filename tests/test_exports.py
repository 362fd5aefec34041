"""Every exported name resolves, so deleted code cannot linger in __all__."""

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
