"""The public surface: each module's ``__all__`` resolves, and the package exports only ``__all__`` names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tasc

MODULES = sorted(info.name for info in pkgutil.iter_modules(tasc.__path__))


def test_modules_found():
    assert {"engine", "evaluate", "panel", "ssm"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"tasc.{name}")
    missing = [item for item in getattr(module, "__all__", []) if not hasattr(module, item)]
    assert not missing, f"tasc.{name}.__all__ names {missing}, which the module does not define"
    namespace: dict = {}
    exec(f"from tasc.{name} import *", namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(tasc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"tasc.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in exported]
        assert not unlisted, f"tasc imports {unlisted} from tasc.{node.module}, whose __all__ omits them"
