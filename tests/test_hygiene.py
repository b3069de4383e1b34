"""Source hygiene: every name a module of the package imports is used in it.

A stdlib ast scan, so it needs no linter. __init__.py is skipped, since its
imports are the package's re-exports, and so is the __future__ import of
annotations.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "qmeasure")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(path: str) -> list:
    """Names bound by the module's imports that no Name node reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                    "from a.b import c, d\n\nx = np.zeros(c)\n")
    assert unused_imports(str(path)) == ["d", "os"]
