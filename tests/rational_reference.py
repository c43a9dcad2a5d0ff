"""Helpers shared by the tests that check the integer kernels against
their ``Fraction`` references."""

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
