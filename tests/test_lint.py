"""A stdlib lint of the package: every name a module imports is read."""

import ast
from pathlib import Path

import pytest

import longmap

MODULES = sorted(Path(longmap.__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """The names that ``source`` imports and never reads, with their line
    numbers; a name listed in a literal ``__all__`` counts as read, and
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_lint_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "import math\n"
              "from .a import b, c\n"
              "__all__ = ['c']\n"
              "x = math.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "b")]
