import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_and_cli_need_numpy_only(tmp_path):
    # sys.modules[name] = None makes every import of scipy raise ImportError
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lpblocks.cli import main\n"
        "sys.exit(main(['simulate', '--model', 'ar1', '--phi', '0.8', '--burn-in', '20',\n"
        "               '--tail-index', '1.3', '--n', '50', '--out', sys.argv[1]]))\n"
    )
    src = str(Path(lpblocks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "series.txt"
    done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 50
