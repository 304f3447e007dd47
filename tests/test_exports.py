"""The package's export lists name only what exists."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import metastab

MODULES = sorted(info.name for info in pkgutil.iter_modules(metastab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"metastab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"metastab.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(metastab))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"metastab.{module_name}")
        assert getattr(metastab, name) is getattr(module, name)
