"""The package's export lists agree with what its modules define."""

import ast
import importlib
import os
import pkgutil

import pytest

import finedrop

MODULES = sorted(m.name for m in pkgutil.iter_modules(finedrop.__path__))


def _exports(module) -> list:
    """A module's __all__, or the public names `from module import *` takes when it has none."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"finedrop.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"finedrop.{name}.__all__ names undefined {missing}"


def test_package_root_reexports_only_exported_names():
    with open(os.path.join(os.path.dirname(finedrop.__file__), "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
    assert imports
    for node in imports:
        module = importlib.import_module(f"finedrop.{node.module}")
        stray = [a.name for a in node.names if a.name not in _exports(module)]
        assert not stray, f"finedrop imports {stray} from {node.module}, which does not export them"
        assert all(getattr(finedrop, a.asname or a.name) is getattr(module, a.name) for a in node.names)
