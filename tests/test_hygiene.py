"""Every name a module imports is used in it, and every name it exports
is defined (no linter is installed)."""

import ast
import importlib
from pathlib import Path

import pytest

import ssp_seir

MODULES = sorted(
    path
    for path in Path(ssp_seir.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "name", ["ssp_seir"] + [f"ssp_seir.{path.stem}" for path in MODULES]
)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
