"""Every public top-level function and class of the package is reached.

A name counts as reached when some other top-level statement of a file
under src/, scripts/ or bench/ refers to it: as a name, an attribute or
a ``from ... import`` name.  The package's ``__init__.py`` does not
count, since a re-export calls nothing.  A helper that only tests reach
should be deleted, or kept here with the reason a verdict needs it.

Likewise every name that a package module imports at top level is read
in that module; ``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centerpole"

ALLOWED = {
    "export_dimacs": "the DIMACS oracle that the acceptance tests cross-check",
    "is_in_Tn": "the oracle for the paper's T_3 model set in test_tshape",
    "exploratory_cover_survey": "documented in the README",
}


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions(path: Path) -> list[ast.AST]:
    return [
        node
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_definition_is_reached():
    sources = [
        path
        for folder in ("src", "scripts", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    # (file, top-level statement, names it refers to)
    statements = [
        (path, node, _referenced(node))
        for path in sources
        for node in _parse(path).body
    ]
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for definition in _public_definitions(path):
            name = definition.name
            if name in ALLOWED:
                continue
            if not any(
                name in names
                for where, node, names in statements
                if not (where == path and getattr(node, "name", None) == name)
            ):
                unreached.append(f"{path.name}:{name}")
    assert unreached == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = _parse(path)
        bound = set()
        for node in module.body:
            if isinstance(node, ast.Import):
                bound.update(
                    alias.asname or alias.name.partition(".")[0] for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        read = {
            sub.id
            for sub in ast.walk(module)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unused += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert not unused, unused
