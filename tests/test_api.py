"""The package's public names: every name in each module's __all__, and in
citysim.__all__, resolves and is listed once, so a name deleted from a
module cannot stay exported."""

import importlib
import pkgutil

import pytest

import citysim

MODULES = sorted(m.name for m in pkgutil.iter_modules(citysim.__path__))


@pytest.mark.parametrize("name", ["citysim", *(f"citysim.{m}" for m in MODULES)])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(
        n for n in exported if exported.count(n) > 1
    )
    assert [n for n in exported if not hasattr(module, n)] == []
