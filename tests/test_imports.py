"""Import hygiene: no module imports a name it never uses, no private
module-level name in src/ goes unread, and every exported name resolves,
so a deletion cannot leave a stale import, helper or export behind."""

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
SRC = sorted((ROOT / "src").rglob("*.py"))


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


def unread_privates(sources: dict[str, str]) -> list[str]:
    """`where:line: name` of each private (single leading underscore)
    function, class or constant defined at module level in one of
    `sources` that no module of `sources` reads: as a name, an imported
    name, or an attribute of anything but `self` or `cls` (a method of the
    same name does not keep a module-level one alive)."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for where, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(where, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{where}:{line}: {name}" for where, line, name in defined if name not in read]


def test_no_unread_private_in_src():
    assert not unread_privates({str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                                for path in SRC})


def test_unread_private_is_found():
    sources = {"a.py": "_A = 1\n_B, C = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
                       "def _g():\n    pass\n__all__ = []\n",
               "b.py": "from a import _K\nimport a\na._g()\n",
               "c.py": "def _m():\n    pass\nclass D:\n    def _m(self):\n        self._m()\n"}
    assert unread_privates(sources) == ["a.py:2: _B", "a.py:3: _f", "c.py:1: _m"]


@pytest.mark.parametrize("package", ["circuitforge", "circuitforge.engine"])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
