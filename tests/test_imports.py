"""Every name a library module imports is used: referenced in the module's
code or listed in its __all__. The package __init__ re-exports by star
import and is not checked."""
import ast
from pathlib import Path

import pytest

import sheetforge

SOURCES = sorted(p for p in Path(sheetforge.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert _unused_imports(source) == [(2, "pi")]
