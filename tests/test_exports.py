import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lpblocks

MODULES = sorted(info.name for info in pkgutil.iter_modules(lpblocks.__path__))


def package_reexports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(lpblocks.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(f"lpblocks.{module_name}")
    declared = getattr(module, "__all__", [])
    assert len(set(declared)) == len(declared)
    assert [name for name in declared if not hasattr(module, name)] == []


def test_package_reexports_are_declared():
    pairs = list(package_reexports())
    assert pairs
    stale = [f"{module}.{name}" for module, name in pairs
             if name not in importlib.import_module(f"lpblocks.{module}").__all__]
    assert stale == []
    assert all(hasattr(lpblocks, name) for _, name in pairs)
