"""The package's export lists name only what exists."""

import importlib
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
    # the package resolves its exports lazily from one table
    table = metastab._EXPORTS
    assert table
    names = [name for names in table.values() for name in names]
    assert metastab.__all__ == names
    for module_name, module_names in table.items():
        module = importlib.import_module(f"metastab.{module_name}")
        for name in module_names:
            assert getattr(metastab, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        metastab.no_such_name
