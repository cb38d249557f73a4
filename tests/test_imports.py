"""Every imported name is read.

A syntax-tree scan of every module under ``src/``, ``tests/``,
``benchmarks/`` and ``examples/``: each name an import binds must be read
somewhere in its module.  Names listed in ``__all__``, whatever a package
``__init__.py`` imports (its re-exports) and names inside string
annotations count as read; an import whose line carries ``# noqa`` is
kept for its side effect (``repro.rng`` loads ``numpy.random`` that way).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def _annotation_names(node: ast.AST) -> set:
    """Names an annotation reads, parsing string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass  # a plain string, not a forward reference
    return names


def unused_imports(path: Path) -> list:
    """``(line, name)`` of every name ``path`` imports and never reads."""
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if ("# noqa" in lines[node.lineno - 1]
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def scan(root: Path) -> list:
    """``path:line: name`` of every unread import under ``root``'s trees."""
    return [f"{path.relative_to(root)}:{line}: {name}"
            for tree in TREES
            for path in sorted((root / tree).rglob("*.py"))
            for line, name in unused_imports(path)]


def test_every_imported_name_is_read():
    assert scan(ROOT) == []
