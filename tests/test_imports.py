"""Import hygiene: no module imports a name it never uses, and every
exported name resolves, so a deletion cannot leave a stale import or
export behind."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(path for top in ("src", "tests", "scripts")
                 for path in (ROOT / top).rglob("*.py")
                 # a package's __init__ imports to re-export
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never
    reads as a bare name or as the root of an attribute chain."""
    bound: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", CHECKED, ids=[str(p.relative_to(ROOT)) for p in CHECKED])
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in unused]


def test_unused_import_is_found():
    source = "import numpy as np\nimport os.path\nfrom x import a, b\nprint(a)\n"
    assert unused_imports(source) == [(1, "np"), (2, "os"), (3, "b")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("package", ["circuitforge", "circuitforge.engine"])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
