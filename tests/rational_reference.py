"""Helpers shared by the tests that check the integer kernels against
their ``Fraction`` references, and the ``Fraction`` models they use:
row reduction and the inverse it gives, the primitive pair of a
hyperplane and the tree sets T_n."""

from fractions import Fraction
from math import gcd, lcm

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


def ref_row_reduce(rows):
    """Gauss-Jordan elimination of ``Fraction`` rows in place, dividing
    by each pivot: the rows end in reduced row echelon form.  Returns
    the rank."""
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def ref_matrix_inverse(rows):
    """The ``Fraction`` inverse of a square matrix, from the reduction
    of ``[M | I]``; ValueError if M is singular."""
    n = len(rows)
    work = [
        [Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)]
        for r, row in enumerate(rows)
    ]
    ref_row_reduce(work)
    if any(row[r] != 1 for r, row in enumerate(work)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def primitive_pair(normal, offset):
    """The hyperplane normal . x = offset as the pair the package gives:
    the normal times the one positive or negative rational m that makes
    it a primitive integer vector (gcd 1, first nonzero entry positive),
    and the offset times m, an ``int`` when it is an integer.  Entries
    are read by ``Fraction``; a zero normal raises ValueError."""
    normal = [Fraction(v) for v in normal]
    if not any(normal):
        raise ValueError("hyperplane normal must be nonzero")
    scale = lcm(*(v.denominator for v in normal))
    ints = [int(v * scale) for v in normal]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    offset = Fraction(offset) * scale / g
    return (
        tuple(v // g for v in ints),
        offset.numerator if offset.denominator == 1 else offset,
    )


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
