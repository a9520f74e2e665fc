"""Every module-level private function of heckeb is used somewhere in heckeb.

A private helper (a leading underscore, not a dunder) is no API: when nothing
in the package refers to it outside its own definition, it is dead code.
"""

import ast
from pathlib import Path

import heckeb

SRC = Path(heckeb.__file__).resolve().parent


def _referenced(node):
    """The names a syntax tree reads, as bare names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_dead_private_helpers():
    statements = [
        (path.name, stmt, set(_referenced(stmt)))
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    helpers = [
        (module, stmt)
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    assert any(stmt.name == "_eliminate_mod" for _, stmt in helpers)  # the scan sees heckeb
    dead = [
        "%s:%d %s" % (module, helper.lineno, helper.name)
        for module, helper in helpers
        if not any(helper.name in names for _, stmt, names in statements if stmt is not helper)
    ]
    assert dead == []
