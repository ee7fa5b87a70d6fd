"""A stdlib lint of the package: every name a module imports is read."""

import ast
from pathlib import Path

import pytest

import longmap

MODULES = sorted(Path(longmap.__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """The names that ``source`` imports and never reads, with their line
    numbers; ``from __future__`` imports are exempt."""
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
    # listing a name in __all__ does not read it: a module lists only what
    # it defines
    assert unused_imports(source) == [
        (2, "os"), (3, "osp"), (5, "b"), (5, "c")]


def definitions(tree):
    """The names that the top level of a module defines: its functions,
    classes and assigned names, not those it imports."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return names


def unread_private_names(sources):
    """The (module, name) of each module-level private function, class or
    constant in ``sources``, a map of module names to source text, that no
    source reads, whether by name, by attribute or through ``from ...
    import``; dunder names are exempt."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in definitions(tree)
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[1] not in read)


def test_every_private_name_is_read():
    # the package alone: a helper that only tests read is dead code
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def test_the_lint_sees_an_unread_private_name():
    sources = {
        "a": ("def _spare():\n    pass\n"
              "def _used():\n    return _CONST\n"
              "class _Kept:\n    pass\n"
              "_CONST, _OTHER = 1, 2\n"
              "__all__ = []\n"),
        "b": ("from . import a\n"
              "from .a import _used\n"
              "x = a._Kept\n"
              "a._OTHER = 3\n"),
    }
    assert unread_private_names(sources) == [("a", "_OTHER"), ("a", "_spare")]


def borrowed_names(sources):
    """The (module, line, name) of each name that a module of ``sources``, a
    map of module names to source text, lists in a literal ``__all__`` or
    imports by ``from .m import name`` although the module or m does not
    define it: each name has one home, and every import path leads there."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {module: set(definitions(tree)) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)
                    and isinstance(node.value, (ast.List, ast.Tuple))):
                found += [(module, e.lineno, e.value) for e in node.value.elts
                          if e.value not in defined[module]]
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is not None):
                home = defined.get(node.module, set())
                found += [(module, node.lineno, alias.name)
                          for alias in node.names if alias.name not in home]
    return sorted(found)


def test_every_name_has_one_home():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert borrowed_names(sources) == []


def test_the_lint_sees_a_borrowed_name():
    sources = {
        "a": ("import math\n"
              "from .b import g\n"
              "X = 1\n"
              "def f():\n"
              "    from .b import X, h\n"
              "__all__ = ['X', 'f', 'g', 'math']\n"),
        "b": ("from . import a\n"
              "from .a import X, f, math\n"
              "def h():\n"
              "    pass\n"
              "__all__ = ('h', 'X')\n"),
    }
    assert borrowed_names(sources) == [
        ("a", 2, "g"), ("a", 5, "X"), ("a", 6, "g"), ("a", 6, "math"),
        ("b", 2, "math"), ("b", 5, "X")]


# the modules a numpy-free command loads: the package, its errors, the
# tangle format, the CLI and the closed forms
NUMPY_FREE = ("__init__", "errors", "tangles", "cli", "scalar")


def module_level_imports(source):
    """The (line, module) of each import that runs when ``source`` is
    imported: those outside function bodies, relative ones as ``.name``."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name)
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                dots = "." * child.level
                if child.module is not None:
                    found.append((child.lineno, dots + child.module))
                else:  # from . import name
                    found.extend((child.lineno, dots + alias.name)
                                 for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def numpy_imports(source):
    """The module-level imports of ``source`` that load numpy or scipy, by
    name or through a package module outside NUMPY_FREE."""
    return [(line, name) for line, name in module_level_imports(source)
            if name.split(".")[0] in ("numpy", "scipy")
            or (name.startswith(".") and name.lstrip(".").split(".")[0]
                not in NUMPY_FREE)]


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_modules_import_no_numpy(name):
    path = Path(longmap.__file__).resolve().parent / f"{name}.py"
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


def test_the_lint_sees_a_numpy_import():
    source = ("import math\n"
              "import numpy as np\n"
              "from .tangles import parse\n"
              "from .colorings import star_polygon\n"
              "from . import quandles\n"
              "if math.pi:\n"
              "    from scipy import optimize\n"
              "class A:\n"
              "    import numpy.linalg\n"
              "def f():\n"
              "    import numpy\n"
              "    from .quaternions import rotate\n")
    assert numpy_imports(source) == [
        (2, "numpy"), (4, ".colorings"), (5, ".quandles"), (7, "scipy"),
        (9, "numpy.linalg")]
