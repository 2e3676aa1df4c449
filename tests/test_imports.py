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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private function, method, class or
    module-level constant defined in the sources that none of them reads,
    by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return [f"{module}: {name}" for module, name in defined
            if _private(name) and name not in read]


def test_every_private_helper_is_read_in_the_package():
    # reads from tests, demos or perfbench do not keep a helper alive
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []


def test_an_unread_private_helper_is_found():
    sources = {
        "a.py": "_K = 1\n_L = 2\ndef _f():\n    return _K\nclass _C:\n    def _m(self): ...\n"
                "    def _n(self): ...\n    def __init__(self): ...\n",
        "b.py": "from a import _f\n_f()\n_C()._m()\n",
    }
    assert unread_private_names(sources) == ["a.py: _n", "a.py: _L"]
