"""Library surface: every top-level function and class in src/todvoice is used
by code in src/todvoice or bench/, is exported in `__all__`, or is a CLI command.

A definition `m.f` counts as used only when some module imports f from m, some
code reads `alias.f` where alias is module m, or code in m outside f itself
reads the name f. An attribute or local variable that happens to be called f
elsewhere does not count. A definition that only tests reach is surface nobody
uses; delete it, or give it a caller. ALLOWED lists the ones kept on purpose,
and must match exactly, so an entry goes once its definition gets a caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todvoice"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}

# Checks of the paper's invariants that the pipeline does not run yet.
ALLOWED = {"crossturn.reconstruct_value"}


def _source_module(node: ast.ImportFrom, importer: str | None) -> str | None:
    """The todvoice module a `from ... import` reads from ("__init__" for the
    package itself), or None for any other package."""
    name = node.module or ""
    if node.level == 1 and importer is not None:
        return name or "__init__"
    if name == "todvoice":
        return "__init__"
    return name.removeprefix("todvoice.") if name.startswith("todvoice.") else None


def _dotted(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _uses(tree: ast.AST, importer: str | None) -> set[str]:
    """The `m.f` this file imports, or reads as an attribute of an alias of module m.
    importer is the file's todvoice module, None for a file outside the package."""
    aliases: dict[str, str] = {}  # local dotted name -> todvoice module
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("todvoice.") and a.name.removeprefix("todvoice.") in MODULES:
                    aliases[a.asname or a.name] = a.name.removeprefix("todvoice.")
        elif isinstance(node, ast.ImportFrom):
            module = _source_module(node, importer)
            for a in node.names if module is not None else ():
                if module == "__init__" and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                else:
                    out.add(f"{module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in aliases:
            out.add(f"{aliases[_dotted(node.value)]}.{node.attr}")
    return out


def _read_in_own_module(tree: ast.Module) -> set[str]:
    """The top-level definitions of tree that its code, outside each one's own body, reads by name."""
    out: set[str] = set()
    for top in tree.body:
        names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        own = getattr(top, "name", None)
        out |= names - {own}
    return out


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _is_command(node: ast.AST) -> bool:
    return any(ast.unparse(dec).startswith("main.command") for dec in getattr(node, "decorator_list", ()))


def _unused() -> set[str]:
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "bench").glob("*.py")]
    used = set().union(
        *(_uses(tree, stem) for stem, tree in modules.items()),
        *(_uses(tree, None) for tree in bench),
        *({f"{stem}.{name}" for name in _read_in_own_module(tree)} for stem, tree in modules.items()),
    )
    exported = _exported()
    return {
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and f"{stem}.{node.name}" not in used
        and node.name not in exported
        and not _is_command(node)
    }


def test_every_top_level_definition_has_a_caller_outside_tests():
    assert _unused() == ALLOWED


def test_a_same_named_attribute_or_local_is_not_a_use():
    code = "import todvoice.cli as c\nfrom todvoice import metrics\nwer = c.main\ncell.wer\nmetrics.edit_distance\n"
    assert _uses(ast.parse(code), None) == {"cli.main", "metrics.edit_distance"}
