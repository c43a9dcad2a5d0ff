"""Helpers shared by the tests that check the integer kernels against
their ``Fraction`` references, and the ``Fraction`` models they use:
the order of hyperplanes and the tree sets T_n."""

from fractions import Fraction
from math import lcm

from centerpole.colorings import ColoringRule


def dot(a, b):
    """The ``Fraction`` dot product of two vectors of one length."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def minus(a, b):
    """The ``Fraction`` difference a - b of two coordinate tuples of one
    length."""
    assert len(a) == len(b), (a, b)
    return tuple(Fraction(x) - y for x, y in zip(a, b))


def scaled(point, m=1):
    """``point`` as the integer pair (z, q) of the trusted entry
    ``ColoringRule.evaluate``: q is m times the lcm of its denominators."""
    q = m * lcm(*(Fraction(v).denominator for v in point))
    return [int(Fraction(v) * q) for v in point], q


def fraction_rule(dim, color_count, color, label=""):
    """A rule whose trusted entry colors the point (z, q) by ``color``
    on its tuple of ``Fraction`` coordinates z/q: the adapter that
    keeps a ``Fraction`` reference in its original form."""
    return ColoringRule(
        dim, color_count, lambda z, q: color(tuple(Fraction(v, q) for v in z)), label
    )


def hyperplane_key(h):
    """The order of hyperplanes: canonical normal, then offset."""
    return h.normal, h.offset


def is_in_Tn(x, n):
    """Exact membership in the tree set T_n inside R^n.

    T_1 is the origin of the line; T_n is the union of the floor
    R^(n-1) x {0} with the product T_(n-1) x R_+ above it.
    """
    if n < 1:
        raise ValueError("T_n membership needs n >= 1")
    coords = [Fraction(v) for v in x]
    if len(coords) != n:
        raise ValueError(f"point has dimension {len(coords)}, expected {n}")
    while len(coords) > 1:
        last = coords.pop()
        if last <= 0:
            return last == 0
    return coords[0] == 0
