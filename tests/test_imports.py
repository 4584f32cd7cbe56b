"""No module of the package or of the tests imports a name it never reads:
an unused import is a dependency that nothing needs and a place a reader
looks in vain. `__init__.py` is left out, since its imports are its
exports, and so are `__future__` imports, which bind no name."""

import ast

import pytest

from conftest import ROOT

SOURCES = sorted(
    p for p in (ROOT / "src" / "entres").glob("*.py")
    if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Every name an import binds, anywhere in the module, that no
    expression of the module reads, as `name:line`."""
    tree = ast.parse(source)
    bound: list[tuple[str, int]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` binds c
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{name}:{line}" for name, line in bound if name not in read]


def test_the_check_finds_each_kind_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "import re\n"
        "from typing import Iterator, Mapping as M\n"
        "from collections import Counter, deque as dq\n"
        "def f(x: Iterator) -> int:\n"
        "    import math\n"
        "    from heapq import merge\n"
        "    return os.sep + js.dumps(x) + math.pi + Counter(x)\n"
        "re = None\n"
    )
    assert sorted(unused_imports(source)) == [
        "M:6", "dq:7", "merge:10", "re:5",
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES]
)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
