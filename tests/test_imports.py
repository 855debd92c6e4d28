"""No module of the package imports a name it never uses, checked on the
syntax tree with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pasmpoly"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that it never reads, in
    sorted order.  A name listed in ``__all__`` counts as read, and
    ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_imports_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from operator import add, getitem\n"
              "from .shapes import Partition as P, SkewShape\n"
              "__all__ = ['SkewShape']\n"
              "def f(x: P) -> str:\n"
              "    return os.path.join(str(add(x, 1)))\n")
    assert unused_imports(source) == ["getitem"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text()) == [], path.name
