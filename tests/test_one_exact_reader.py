"""Only ``geometry`` decides whether a value is an exact rational.

A module of the package other than ``geometry`` that tests a value's
type against ``Fraction``, by ``isinstance`` or by ``type(...) is``,
keeps an exactness policy of its own next to geometry's readers
(``as_point``, ``_exact``, ``clear_denominators``), and the two drift
apart: such a test once refused the point ("1/2", 0) that geometry
reads as (1/2, 0).  There is no allowlist.

Every public entry that reads a rational refuses a zero denominator
the one way ``geometry._to_fraction`` does: a ValueError that names
the value, not ``Fraction``'s ZeroDivisionError.
"""
import ast
from pathlib import Path

import pytest

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


def _zero_denominator_calls():
    """One call per public exact entry, each given "1/0" where it reads
    a rational value."""
    from centerpole import colorings, geometry, tshape

    cone2 = colorings.cone_coloring(colorings.standard_simplex(2))
    cone3 = colorings.cone_coloring(colorings.standard_simplex(3))
    cert = tshape.TShapeCertificate((((1, 0), "1/0"),), {(0, 0): 0})
    return {
        "as_point": lambda: geometry.as_point(["1/0", 1]),
        "_exact": lambda: geometry._exact("1/0"),
        "clear_denominators": lambda: geometry.clear_denominators([["1/2", "1/0"]]),
        "is_t_shaped": lambda: tshape.is_t_shaped([("1/0", 0), (1, 1)]),
        "moment_curve_points": lambda: tshape.moment_curve_points(2, 2, [1, "1/0"]),
        "certificate offset": lambda: cert.verify([(0, 0)]),
        "cone_coloring": lambda: colorings.cone_coloring([(1, 0), (0, 1), ("1/0", -1)]),
        "halfspace_coloring": lambda: colorings.halfspace_coloring(["1/0"]),
        "pair_coloring": lambda: colorings.pair_coloring([0], ["1/0"]),
        "plus2_extension A": lambda: colorings.plus2_extension(
            cone3, [(0, 0, 0, 1), (0, "1/0", 0, 2)]
        ),
        "rule call": lambda: cone2(("1/0", 1)),
        "scan radius": lambda: colorings.symmetric_pair_scan(cone2, [(0, 0)], "1/0", 1, 0),
        "scan centers": lambda: colorings.symmetric_pair_scan(cone2, [(0, "1/0")], 0, 1, 0),
    }


@pytest.mark.parametrize("entry", sorted(_zero_denominator_calls()))
def test_every_exact_entry_refuses_a_zero_denominator_as_a_value_error(entry):
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        _zero_denominator_calls()[entry]()
