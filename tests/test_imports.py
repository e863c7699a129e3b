"""Every name a module imports is read somewhere in that module.

``__init__.py`` is checked apart: it imports names to re-export them, so
what it imports must be exactly what ``__all__`` lists.
"""

import ast
from pathlib import Path

import pytest

import criotq

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "criotq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finder_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert len(set(imported)) == len(imported)
    assert len(set(criotq.__all__)) == len(criotq.__all__)
    assert set(imported) == set(criotq.__all__)
    assert all(hasattr(criotq, name) for name in criotq.__all__)
