"""The package's public names: every name in ``inforate.__all__``
resolves, none is listed twice, and every other module-level name is
read somewhere in the package."""

import ast
from pathlib import Path

import inforate


def test_every_public_name_resolves():
    missing = [n for n in inforate.__all__ if not hasattr(inforate, n)]
    assert missing == []


def test_no_public_name_is_listed_twice():
    assert len(inforate.__all__) == len(set(inforate.__all__))


def _bound(stmt):
    """The names a module-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read(stmt):
    """The names a statement reads: loaded names, attributes and the names
    an import takes from a module."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_name_is_read_elsewhere_or_public():
    # a name a module defines counts as read where any other top-level
    # statement of the package reads it; dunder names are Python's
    stmts = [
        (path.name, stmt)
        for path in sorted(Path(inforate.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    readers = {}
    for i, (_, stmt) in enumerate(stmts):
        for name in _read(stmt):
            readers.setdefault(name, set()).add(i)
    unread = [
        f"{module}: {name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _bound(stmt)
        if not name.startswith("__")
        and name not in inforate.__all__
        and not readers.get(name, set()) - {i}
    ]
    assert unread == []
