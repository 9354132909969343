"""The package namespaces: each public name loads its defining module on first access."""

import importlib
import sys
import types

import pytest


@pytest.mark.parametrize("name", ["hypergroups", "hypergroups.families"])
def test_each_public_name_resolves_to_its_defining_modules_object(name, monkeypatch):
    package = importlib.import_module(name)
    for attr in package.__all__:
        if not attr.startswith("__"):  # drop the cached binding, so the lookup runs again
            monkeypatch.delitem(vars(package), attr, raising=False)
    for attr in package.__all__:
        value = getattr(package, attr)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{name}.{attr}"]
        elif not attr.startswith("__"):
            assert value.__module__.startswith(name + ".")
            assert getattr(sys.modules[value.__module__], attr) is value
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_the_package_modules_resolve_as_modules():
    import hypergroups

    for attr in ("catalog", "families", "jsonio"):
        assert getattr(hypergroups, attr) is importlib.import_module(f"hypergroups.{attr}")
