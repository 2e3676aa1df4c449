"""Import hygiene of the package, in place of a linter: every name a module of
``stlmine`` imports is used in that module, listed in its ``__all__``, or
imported on a line marked ``# noqa: F401``.  A deletion that leaves an
import behind fails here."""
import ast
from pathlib import Path

import pytest

import stlmine

MODULES = sorted(Path(stlmine.__file__).resolve().parent.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name that nothing in the module reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []  # (line number, name bound by an import)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"{line}: {name}" for line, name in bound
            if name not in used and "# noqa: F401" not in lines[line - 1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport math  # noqa: F401\nfrom x import a, b\n__all__ = ['b']\n"
    assert unused_imports(source) == ["1: os", "3: a"]
