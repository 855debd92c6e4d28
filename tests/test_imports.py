"""No module of the package imports a name it never uses, no module-level
private name of the package goes unread, and every public function or class
is exported or read, checked on the syntax tree with the stdlib ast
module."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pasmpoly"


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
            for name in ast.literal_eval(node.value)}


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
    return sorted(bound - read - _exported(tree))


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


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain names assigned to."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _references(node: ast.AST) -> Counter:
    """How often each name is read under the node: as a name, as an
    attribute or as an imported name."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (one leading underscore) of the given
    modules that are read nowhere in them outside their own definition, as
    sorted ``module.name``.  Names are matched by name alone, in any
    module."""
    defined, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(_references(tree))
        defined += [(module, name, node) for node in tree.body for name in _bound_names(node)
                    if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}.{name}" for module, name, node in defined
                  if read[name] == _references(node)[name])


def test_unreferenced_private_names_flags_only_dead_helpers():
    sources = {
        "a": ("from . import b\n"
              "from .b import _imported\n"
              "__all__ = ['f']\n"
              "_TABLE: dict = {}\n"
              "_LIMIT = 3\n"
              "def _recursive(k):\n"
              "    return _recursive(k - 1) if k else 0\n"
              "class _Gone:\n"
              "    pass\n"
              "def _helper(x=_LIMIT):\n"
              "    return b._by_attribute + x\n"
              "def f():\n"
              "    return _helper() + _imported()\n"),
        "b": ("_by_attribute = 1\n"
              "_unused, _pair = 2, 3\n"
              "def _imported():\n"
              "    return _pair\n"),
    }
    assert unreferenced_private_names(sources) == [
        "a._Gone", "a._TABLE", "a._recursive", "b._unused"]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unexported_unread_public_names(sources: dict[str, str]) -> list[str]:
    """The module-level public functions and classes (no leading underscore)
    of the given modules that no ``__all__`` of them lists and that are read
    nowhere in them outside their own definition, as sorted
    ``module.name``.  Names are matched by name alone, in any module."""
    defined, read, exported = [], Counter(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(_references(tree))
        exported |= _exported(tree)
        defined += [(module, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
    return sorted(f"{module}.{node.name}" for module, node in defined
                  if node.name not in exported and read[node.name] == _references(node)[node.name])


def test_unexported_unread_public_names_flags_only_test_only_helpers():
    sources = {
        "a": ("from .b import Used, imported\n"
              "__all__ = ['f', 'Exported']\n"
              "def f():\n"
              "    return Used() + imported() + b.by_attribute()\n"
              "class Exported:\n"
              "    pass\n"
              "def recursive(k):\n"
              "    return recursive(k - 1) if k else 0\n"
              "def _private():\n"
              "    pass\n"
              "def helper(x):\n"
              "    return x\n"),
        "b": ("class Used:\n"
              "    pass\n"
              "class Gone:\n"
              "    pass\n"
              "def imported():\n"
              "    return 1\n"
              "def by_attribute():\n"
              "    return 2\n"),
    }
    assert unexported_unread_public_names(sources) == ["a.helper", "a.recursive", "b.Gone"]


def test_every_public_name_is_exported_or_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unexported_unread_public_names(sources) == []
