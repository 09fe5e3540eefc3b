"""Static checks on the library sources."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stokeslib"


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read as a name."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport mpmath.libmp\nfrom .exactmath import Matrix, mat_rank as mr\nMatrix(mpmath)\n")
    assert unused_imports(tree) == ["mr", "os"]


def private_definitions(tree: ast.Module) -> set:
    """Module-level functions, classes and constants whose names start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read_by(node: ast.AST) -> set:
    """The names one node reads: as a name or an attribute, or imported by name."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {a.name for a in node.names}
    return set()


def read_names(tree: ast.Module) -> set:
    """Names read anywhere in the tree."""
    return set().union(*map(names_read_by, ast.walk(tree)))


def dead_private_names(sources: dict) -> list:
    """module:name for every private definition that no source reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(read_names(t) for t in trees.values()))
    return sorted(f"{name}:{n}" for name, t in trees.items() for n in private_definitions(t) - read)


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_helpers_are_found():
    sources = {
        "a.py": "_LIMIT = 3\n_seen: set = set()\ndef _used():\n    return _LIMIT\nclass _Orphan:\n    pass\n",
        "b.py": "from .a import _used\ndef _self_only():\n    pass\nx = _seen\n__all__ = []\n",
    }
    assert dead_private_names(sources) == ["a.py:_Orphan", "b.py:_self_only"]


def foreign_imports(tree: ast.Module) -> list:
    """Absolute imports of modules outside the standard library and mpmath."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "mpmath"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({n for n in names if n.split(".")[0] not in allowed})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_runtime_dependency_beyond_mpmath(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_imports_are_found():
    tree = ast.parse(
        "import sympy\nimport os.path\nimport mpmath.libmp\nfrom numpy.linalg import det\n"
        "from fractions import Fraction\nfrom . import exactmath\nfrom .bases import BaseFunctor\n"
        "def f():\n    import hypothesis\n"
    )
    assert foreign_imports(tree) == ["hypothesis", "numpy.linalg", "sympy"]



def public_definitions(tree: ast.Module) -> set:
    """Module-level functions and classes, and the methods of those classes, with public names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {n for n in names if not n.startswith("_")}


def names_read_outside_their_definitions(tree: ast.Module) -> set:
    """Names read anywhere in the tree, except inside a definition of the same name."""
    out = set()
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        out |= names_read_by(node) - enclosing
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return out


def dead_public_names(library: dict, tests: dict) -> list:
    """module:name for every public definition of the library that no library
    module (the ``__init__.py`` re-exports aside) and no test reads."""
    trees = {name: ast.parse(text) for name, text in library.items()}
    readers = [t for name, t in trees.items() if name != "__init__.py"] + [ast.parse(t) for t in tests.values()]
    read = set().union(*(names_read_outside_their_definitions(t) for t in readers))
    return sorted(f"{name}:{n}" for name, t in trees.items() for n in public_definitions(t) - read)


def test_no_unread_public_api():
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(__file__).parent.glob("*.py"))}
    assert dead_public_names(library, tests) == []


def test_unread_public_api_is_found():
    library = {
        "__init__.py": "from .a import Shape, helper, orphan\n",
        "a.py": "class Shape:\n    def area(self):\n        return 0\n    def unused(self):\n        return self.unused()\n"
        "def helper():\n    return Shape().area()\ndef orphan():\n    return orphan()\n",
    }
    tests = {"test_a.py": "from stokeslib.a import helper\nhelper()\n"}
    assert dead_public_names(library, tests) == ["a.py:orphan", "a.py:unused"]
