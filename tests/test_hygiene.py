"""Source hygiene, checked with the standard library's ``ast``: no module
imports a name it never uses, and the package's public names all resolve."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import prepost

MODULES = sorted(p for p in Path(prepost.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module binds by ``import`` and never reads."""
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


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nos.sep\ne()\n") == ["d (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_public_name_resolves():
    assert [name for name in prepost.__all__ if not hasattr(prepost, name)] == []
    namespace: dict = {}
    exec("from prepost import *", namespace)
    assert set(prepost.__all__) <= set(namespace)
