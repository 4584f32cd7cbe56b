"""No function of the package or of the oracles calls itself: recursion
that grows with the input would hit Python's stack limit on deep
instances, so every deep walk runs on an explicit stack."""

import ast

import pytest

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "entres").glob("*.py")) + [
    ROOT / "tests" / "oracles.py"
]


def self_calls(source: str) -> list[str]:
    """Every function (qualified by its enclosing classes and functions)
    whose body calls it by name: `f(...)` in a function f, or
    `self.f(...)` / `cls.f(...)` in a method f."""
    found: list[str] = []
    todo: list[tuple[ast.AST, str]] = [(ast.parse(source), "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}{child.name}."))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == name) or (
                        isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")
                    ):
                        found.append(f"{prefix}{name}:{call.lineno}")
                        break
                todo.append((child, f"{prefix}{name}."))
            else:
                todo.append((child, prefix))
    return found


def test_the_check_finds_each_kind_of_self_call():
    source = (
        "def walk(n):\n"
        "    return [walk(c) for c in n]\n"
        "class T:\n"
        "    def visit(self, n):\n"
        "        def inner(m):\n"
        "            return inner(m)\n"
        "        return self.visit(n) or other.visit(n)\n"
        "    def fine(self, n):\n"
        "        return n.fine()\n"
    )
    assert sorted(self_calls(source)) == [
        "T.visit.inner:6", "T.visit:7", "walk:2",
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES]
)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []
