"""Static checks on the library sources."""

import ast
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
