"""Every public top-level function, class and alias of the package is reached.

An alias is a top-level assignment of one name to another
(``NAME = other``); it is kept only for its readers, so it must be
reached like a definition.  A name counts as reached when some other
top-level statement of a file under src/, scripts/ or bench/ refers to
it: as a name, an attribute, a ``from ... import`` name, or a string
that a call looks up on an object, as ``getattr(obj, "name")`` and the
benchmark's ``wrap(obj, "name", ...)`` do.  A helper that only tests
reach should be deleted.

Likewise every name that a package module imports at top level is read
in that module; ``from __future__`` imports are exempt.  The package's
``__init__.py`` is held to this too, so it re-exports nothing: a name is
imported from the module that defines it.

And every dataclass field, and every attribute that a class's
``__init__`` sets on ``self``, is read somewhere under src/, scripts/ or
bench/: as ``obj.name`` in a load, or as ``getattr(obj, "name")``.  The
match is by name only, so a read of any object's ``name`` counts for
every class that has one.  State that only tests read should be deleted.

So is every public method and property of a package class, by the same
name-only match.  Dunder and underscore methods are exempt.

And no parameter of a top-level package function has one value: some
call under src/, scripts/ or bench/ passes it something other than the
one literal every other call passes or leaves at its default.  Calls are
matched by name only, like reads.

And no file under src/ or scripts/ reads an underscore attribute of an
object other than ``self``: a private name of another module or of a
library object (argparse's ``parser._actions``) is no interface to lean
on.  Dunders are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centerpole"

def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif (
            isinstance(sub, ast.Call)
            and len(sub.args) >= 2
            and isinstance(sub.args[0], (ast.Name, ast.Attribute))
            and isinstance(sub.args[1], ast.Constant)
            and isinstance(sub.args[1].value, str)
        ):
            names.add(sub.args[1].value)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _sources() -> list[Path]:
    return [
        path
        for folder in ("src", "scripts", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


def _defined_names(node: ast.AST) -> list[str]:
    """The names a top-level statement defines: a function, a class, or
    an alias ``NAME = other``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def _public_definitions(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each public definition or alias."""
    return [
        (name, node.lineno)
        for node in _parse(path).body
        for name in _defined_names(node)
        if not name.startswith("_")
    ]


def test_every_public_definition_is_reached():
    # (file, top-level statement, names it refers to)
    statements = [
        (path, node, _referenced(node))
        for path in _sources()
        for node in _parse(path).body
    ]
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _public_definitions(path):
            if not any(
                name in names
                for where, node, names in statements
                if not (where == path and node.lineno == line)
            ):
                unreached.append(f"{path.name}:{name}")
    assert unreached == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _state(node: ast.ClassDef) -> list[str]:
    """The dataclass fields of a class and the attributes its ``__init__``
    sets on ``self``."""
    names = []
    if _is_dataclass(node):
        names += [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            names += [
                sub.attr
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ]
    return names


def _read_attributes(module: ast.Module) -> set[str]:
    read = set()
    for sub in ast.walk(module):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
        ):
            read.add(sub.args[1].value)
    return read


def test_all_state_is_read():
    read = set().union(*(_read_attributes(_parse(path)) for path in _sources()))
    unread = [
        f"{path.name}:{node.name}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
        for name in _state(node)
        if name not in read
    ]
    assert unread == []


def test_every_public_method_is_read():
    read = set().union(*(_read_attributes(_parse(path)) for path in _sources()))
    unread = [
        f"{path.name}:{node.name}.{stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in read
    ]
    assert unread == []


def _passed(call: ast.Call, function: ast.FunctionDef) -> dict[str, str | None]:
    """What one call passes to each parameter of ``function``: the repr
    of a literal, the repr of the default for a parameter it leaves out,
    or None for anything else.  A call that unpacks ``*`` or ``**``
    passes None to every parameter."""
    params = function.args.posonlyargs + function.args.args
    defaults = dict(zip([p.arg for p in params][::-1], function.args.defaults[::-1]))
    for param, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            defaults[param.arg] = default
    names = [p.arg for p in params + function.args.kwonlyargs]
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        keyword.arg is None for keyword in call.keywords
    ):
        return dict.fromkeys(names)
    given = dict(zip([p.arg for p in params], call.args))
    given.update((keyword.arg, keyword.value) for keyword in call.keywords)
    passed = {}
    for name in names:
        try:
            passed[name] = repr(ast.literal_eval(given.get(name, defaults.get(name))))
        except (ValueError, TypeError, SyntaxError):
            passed[name] = None
    return passed


def test_no_parameter_has_one_value():
    """Such a parameter is a constant and should be one.  A function that
    no call names is left to the reachability test above."""
    calls: dict[str, list[ast.Call]] = {}
    for path in _sources():
        for sub in ast.walk(_parse(path)):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                calls.setdefault(name, []).append(sub)
    fixed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef) or not calls.get(node.name):
                continue
            seen: dict[str, set] = {}
            for call in calls[node.name]:
                for name, value in _passed(call, node).items():
                    seen.setdefault(name, set()).add(value)
            fixed += [
                f"{path.name}:{node.name}({name}={values.pop()})"
                for name, values in seen.items()
                if len(values) == 1 and None not in values
            ]
    assert fixed == []


def _private_reads(module: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each underscore attribute read off an object other
    than ``self``; dunders are exempt."""
    return [
        (sub.lineno, sub.attr)
        for sub in ast.walk(module)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and sub.attr.startswith("_")
        and not (sub.attr.startswith("__") and sub.attr.endswith("__"))
        and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")
    ]


def test_no_private_attribute_of_another_object_is_read():
    reads = [
        f"{path.relative_to(ROOT)}:{line}:{name}"
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in _private_reads(_parse(path))
    ]
    assert reads == []
