"""The package's public names: every name in each module's __all__, and in
citysim.__all__, resolves and is listed once, so a name deleted from a
module cannot stay exported. And every name a module imports is used, so
an import cannot outlive the code that needed it. And only
core.require_array freezes an array."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_dir_lists_the_names_read_on_first_use():
    # The lazy names are not in the package's globals until first read.
    assert {"kmeans", "BimatrixGame", "verify_equilibrium"} <= set(dir(citysim))
    assert dir(citysim) == sorted(dir(citysim))


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_every_imported_name_is_used(name):
    # A name counts as used when the module reads it or lists it in __all__,
    # as the package's __init__ does with what it re-exports.
    tree = ast.parse((Path(citysim.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("citysim" if name == "__init__" else f"citysim.{name}")
    assert sorted(imported - read - set(module.__all__)) == []


@pytest.mark.parametrize("name", MODULES)
def test_only_require_array_freezes_an_array(name):
    # Every array a value type holds is frozen in core.require_array, after
    # it is copied; a freeze anywhere else could freeze the caller's array.
    tree = ast.parse((Path(citysim.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (name, node.name) == ("core", "require_array"):
            allowed.update(map(id, ast.walk(node)))
    found = [
        f"line {node.lineno}: {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and id(node) not in allowed
        and (
            node.attr == "setflags"
            or (
                node.attr == "writeable"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "flags"
            )
        )
    ]
    assert found == []
