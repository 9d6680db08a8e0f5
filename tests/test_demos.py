"""Every name a demo imports from ``tasc`` exists, and every demo runs to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tasc

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
