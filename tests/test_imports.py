"""Every module under ``repro`` imports: a reference to deleted code
fails here in about a second instead of deep inside a Spark test. And
no module imports a name it never uses: a leftover import keeps a dead
dependency looking alive."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def test_modules_found():
    assert "repro.core.terms" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. A name listed in
    ``__all__`` or imported on a line marked ``# noqa: F401`` counts as
    used (a deliberate re-export)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations ("GraphStats") and __all__ entries
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{n} (line {ln})" for n, ln in imported.items() if n not in used)


SOURCES = sorted(Path(repro.__file__).parent.rglob("*.py"))


def test_unused_imports_detected():
    src = "import os\nimport re  # noqa: F401\nfrom typing import List, Dict\nx: 'Dict' = {}\n"
    assert unused_imports(src) == ["List (line 3)", "os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(SOURCES[0].parent.parent).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
