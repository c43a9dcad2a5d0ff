"""Helpers shared by the tests that check the integer kernels against
their ``Fraction`` references."""

from fractions import Fraction


def dot(a, b):
    """The ``Fraction`` dot product of two vectors of one length."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
