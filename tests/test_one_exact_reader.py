"""Only ``geometry`` decides whether a value is an exact rational.

A module of the package other than ``geometry`` that tests a value's
type against ``Fraction``, by ``isinstance`` or by ``type(...) is``,
keeps an exactness policy of its own next to geometry's readers
(``as_point``, ``_exact``, ``clear_denominators``), and the two drift
apart: such a test once refused the point ("1/2", 0) that geometry
reads as (1/2, 0).  There is no allowlist.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "centerpole"


def _names(node: ast.AST) -> set[str]:
    """The class names a type operand mentions: a name, an attribute or
    a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _is_call_of(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def fraction_type_tests(source: str) -> list[int]:
    """Lines that test a value's type against ``Fraction``: an
    ``isinstance`` call, or a comparison of ``type(...)`` with it, as
    ``type(v) is Fraction`` or ``type(v) in (int, Fraction)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _is_call_of(node, "isinstance") and len(node.args) == 2:
            if "Fraction" in _names(node.args[1]):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_call_of(o, "type") for o in operands) and any(
                "Fraction" in _names(o) for o in operands
            ):
                lines.append(node.lineno)
    return lines


def test_the_detector_sees_each_form():
    for source in (
        "isinstance(v, Fraction)",
        "isinstance(v, (int, fractions.Fraction))",
        "type(v) is Fraction",
        "Fraction is not type(v)",
        "type(v) in (int, Fraction)",
    ):
        assert fraction_type_tests(source) == [1], source
    assert fraction_type_tests("isinstance(v, int) and Fraction(v) is not None") == []


def test_only_geometry_tests_a_type_against_fraction():
    found = {
        path.name: fraction_type_tests(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("geometry.py"), "geometry reads exact values; the detector missed it"
    assert {name: lines for name, lines in found.items() if lines} == {}
