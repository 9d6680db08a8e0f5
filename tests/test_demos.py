"""Every name a demo imports from ``tasc`` exists, checked without running the demos."""

import ast
from pathlib import Path

import pytest

import tasc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tasc"
        for alias in node.names
    ]
    assert names, f"{path.name} imports nothing from tasc"
    missing = [name for name in names if not hasattr(tasc, name)]
    assert not missing, f"{path.name} imports {missing} from tasc"
