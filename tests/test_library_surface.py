"""Library surface: every top-level function and class in src/todvoice is named
by code in src/todvoice or bench/, is exported in `__all__`, or is a CLI command.

A definition that only tests reach is surface nobody uses; delete it, or give
it a caller. ALLOWED lists the ones kept on purpose, and must match exactly,
so an entry goes once its definition gets a caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todvoice"

# Checks of the paper's invariants that the pipeline does not run yet.
ALLOWED = {"crossturn.reconstruct_value", "synthesis.verify_durations"}


def _names(tree: ast.AST) -> set[str]:
    """Every name the code of tree refers to, imports or reads as an attribute."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _is_command(node: ast.AST) -> bool:
    return any(ast.unparse(dec).startswith("main.command") for dec in getattr(node, "decorator_list", ()))


def test_every_top_level_definition_has_a_caller_outside_tests():
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "bench").glob("*.py")]
    named = set().union(*map(_names, [*modules.values(), *bench]))
    exported = _exported()
    unused = {
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
        and node.name not in exported
        and not _is_command(node)
    }
    assert unused == ALLOWED
