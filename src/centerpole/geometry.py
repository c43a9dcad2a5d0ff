"""Exact linear algebra for point and hyperplane predicates.

Points, hyperplanes and every returned value are exact rationals;
there is no floating point and no tolerance anywhere.  An exact value
is stored in one canonical form: an ``int`` when it is an integer, and
a ``Fraction`` in lowest terms only when it is not.  As
``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, the form changes no equality, hash,
order or printed value; it only spares integer values a ``Fraction``.
Hyperplanes are kept in a canonical form (first nonzero normal entry is
+1) so that equality, hashing, and deduplication are structural.

The linear algebra itself runs on integers.  Rows are scaled by the lcm
of their denominators (point sets by one common lcm, which keeps their
affine structure) and reduced by one fraction-free Bareiss elimination,
which gives rank, kernel vectors and inverses.  Internally a hyperplane
of integer points is a primitive integer normal (gcd 1, first nonzero
entry positive) with an integer offset.  Spanned hyperplanes are
enumerated by walking their first d-1 points depth-first and updating
the prefix's kernel basis one point at a time, a Bareiss step whose
division by the previous pivot keeps the entries small; no prefix is
eliminated from scratch.  Each later point's hyperplane normal is a
combination of the last two kernel vectors with two dot products as
coefficients, and each hyperplane comes with the bitmask of the points
on it: the union of the d-subsets that span it.  That enumeration and
``containing_hyperplane`` take a point set as its ``clear_denominators``
rows, so a caller scales it once.  ``side_of`` returns a sign, -1, 0 or
1.  A ``RationalPoint`` is its ``coords``, ``dim`` and a cached hash; it
is not a sequence.

Rational inputs are checked once, where they enter: the ``RationalPoint``
and ``Hyperplane`` constructors, ``as_point``, ``clear_denominators``
and the JSON readers keep a coordinate that is exactly an ``int`` and
read any other through ``_to_fraction``, which refuses floats and
bools.  ``as_point`` is the one point reader of ``tshape``,
``colorings`` and ``point_from_json``, and ``_exact`` the one scalar
reader; no other module tests a type against ``Fraction``.  Code past
those points works on the checked values and does not check them again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .cube import LatticePoint

Rational = Fraction | int | str


def _to_fraction(value: Rational) -> Fraction:
    """``value`` as a ``Fraction``.  Floats are inexact and bools are
    not numbers, so both raise TypeError.  A string with an exponent
    ("1e10000000") raises ValueError before ``Fraction`` expands it:
    its cost grows with the exponent, not with the text."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact geometry")
    if isinstance(value, bool):
        raise TypeError("booleans are not allowed in exact geometry")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent strings such as {value[:20]!r} are not allowed")
    return Fraction(value)


def _exact(value: Rational) -> int | Fraction:
    """``value`` in canonical form: an ``int`` as it is, anything else
    read through ``_to_fraction`` and reduced to its numerator when its
    denominator is 1."""
    if type(value) is int:
        return value
    value = _to_fraction(value)
    return value.numerator if value.denominator == 1 else value


def _divide(v: int | Fraction, lead: int | Fraction) -> int | Fraction:
    """The exact quotient ``v / lead`` in canonical form."""
    if type(v) is int and type(lead) is int and not v % lead:
        return v // lead
    return _exact(Fraction(v, lead))


@dataclass(frozen=True, slots=True)
class RationalPoint:
    """An immutable point with exact rational coordinates, each in
    canonical form: an ``int`` for an integer value, else a ``Fraction``.

    The hash of the coordinates is computed once, in ``__post_init__``:
    sets, dicts and certificate checks hash a point many times, and each
    ``Fraction`` hash costs a modular inverse.
    """

    coords: tuple[int | Fraction, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        coords = tuple(map(_exact, self.coords))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", hash(coords))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.coords)


def as_point(x: RationalPoint | LatticePoint | Sequence[Rational]) -> RationalPoint:
    """``x`` itself if it is a ``RationalPoint``; else the coordinates of
    a tuple, a list or a ``LatticePoint``, read through the
    ``RationalPoint`` constructor.  Any other value, a string or a dict
    among them, raises TypeError: iterating it would read its
    characters or keys as coordinates."""
    kind = type(x)
    if kind is RationalPoint:
        return x
    if kind is tuple or kind is list:
        return RationalPoint(x)
    if kind is LatticePoint:
        return RationalPoint(x.coords)
    raise TypeError(f"a point is a list or tuple of coordinates, not {kind.__name__}")


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


@dataclass(frozen=True, slots=True)
class Hyperplane:
    """The solution set of normal . x = offset, in canonical form.

    The stored normal and offset are divided by the normal's first
    nonzero entry, which becomes 1, so two inputs that describe the
    same hyperplane compare and hash equal.  Each stored entry is an
    ``int`` for an integer value, else a ``Fraction``.
    """

    normal: tuple[int | Fraction, ...]
    offset: int | Fraction

    def __post_init__(self) -> None:
        normal = tuple(map(_exact, self.normal))
        offset = _exact(self.offset)
        lead = next((v for v in normal if v), None)
        if lead is None:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(_divide(v, lead) for v in normal))
        object.__setattr__(self, "offset", _divide(offset, lead))

    @property
    def dim(self) -> int:
        return len(self.normal)


def side_of(h: Hyperplane, p: RationalPoint) -> int:
    """Exact side of the hyperplane: the sign of normal . p - offset,
    as -1, 0 or 1.

    The sign is taken on integers.  The sum is kept as ``value / den``
    with one running denominator, built from numerators and denominators
    without a gcd.  Every denominator is positive (an ``int``'s is 1),
    so ``den`` is too, and the sign of ``value`` is the sign of the sum.
    """
    _check_dims(h.dim, p.dim)
    value, den = -h.offset.numerator, h.offset.denominator
    for a, x in zip(h.normal, p.coords):
        if a:
            step = a.denominator * x.denominator
            value = value * step + a.numerator * x.numerator * den
            den *= step
    return (value > 0) - (value < 0)


def _bareiss(rows: list[list[int]]) -> tuple[int, list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    Returns the rank, the pivot columns and the last pivot ``p``.  Row
    r < rank then holds ``p`` at its pivot column and 0 at every other
    pivot column, so ``rows[:rank]`` divided by ``p`` is the reduced row
    echelon form; the rows from ``rank`` on are zero.  Every division is
    exact, because every entry is a minor of the input.
    """
    rank = 0
    pivots: list[int] = []
    prev = 1
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r, row in enumerate(rows):
            if r == rank:
                continue
            f = row[col]
            if f:
                rows[r] = [(p * v - f * w) // prev for v, w in zip(row, prow)]
            elif p != prev:
                rows[r] = [p * v // prev for v in row]
        pivots.append(col)
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots, prev


def clear_denominators(
    rows: Iterable[Sequence[Rational]],
) -> tuple[int, list[list[int]]]:
    """The lcm ``L`` of the denominators of all entries, and the rows
    times ``L`` as integers.  Scaling by ``L > 0`` changes no rank or
    kernel, and on the coordinate rows of a point set it is an
    invertible affine map, so incidence, separation and hull dimensions
    do not change either.  An entry that is not exactly an ``int`` or a
    ``Fraction`` is read through ``_to_fraction``, so a float or a bool
    raises TypeError."""
    rows = [
        [v if type(v) is int or type(v) is Fraction else _to_fraction(v) for v in row]
        for row in rows
    ]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return scale, [
        [v.numerator * (scale // v.denominator) for v in row] for row in rows
    ]


def _differences(points: Sequence[Sequence[int]]) -> list[list[int]]:
    base = points[0]
    return [[a - b for a, b in zip(p, base)] for p in points[1:]]


def _free_columns(pivots: list[int], n_cols: int) -> list[int]:
    return [c for c in range(n_cols) if c not in pivots]


def _kernel_vector(
    rows: list[list[int]], pivots: list[int], p: int, n_cols: int, free: int
) -> list[int]:
    """The kernel vector of Bareiss-reduced rows with ``p`` at the
    non-pivot column ``free`` and 0 at the other non-pivot columns."""
    vec = [0] * n_cols
    vec[free] = p
    for r, c in enumerate(pivots):
        vec[c] = -rows[r][free]
    return vec


def matrix_rank(rows: Iterable[Sequence[Rational]]) -> int:
    return _bareiss(clear_denominators(rows)[1])[0]


def integer_inverse(rows: Sequence[Sequence[Rational]]) -> tuple[int, list[list[int]]]:
    """Exact inverse of a square matrix M as ``(den, rows)``: ``den > 0``
    and integer rows with M^-1 = rows / den.  Bareiss elimination of
    ``[L*M | I]``, with ``L`` the lcm of the denominators, leaves
    ``[p*I | p*(L*M)^-1]``, so M^-1 is ``L`` times the right block over
    ``p``; both are negated when ``p < 0``.  Raises ValueError if the
    matrix is singular."""
    n = len(rows)
    scale, work = clear_denominators(rows)
    for r, row in enumerate(work):
        row.extend(int(i == r) for i in range(n))
    _, pivots, p = _bareiss(work)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    scale = scale if p > 0 else -scale
    return abs(p), [[scale * v for v in row[n:]] for row in work]


def affine_hull_dim(points: Sequence[RationalPoint]) -> int:
    """Dimension of the affine hull: -1 for no points, else the exact
    rank of the difference vectors from the first point."""
    if not points:
        return -1
    base = points[0]
    for p in points[1:]:
        _check_dims(base.dim, p.dim)
    return _bareiss(_differences(clear_denominators(p.coords for p in points)[1]))[0]


def separates(h: Hyperplane, points: Sequence[RationalPoint]) -> bool:
    """True iff some points lie strictly on both sides."""
    sides = {side_of(h, p) for p in points}
    return -1 in sides and 1 in sides


def in_general_position(hyperplanes: Sequence[Hyperplane]) -> bool:
    """Linearly independent normals.  This implies pairwise distinct:
    two equal hyperplanes have equal canonical normals."""
    if not hyperplanes:
        return True
    dim = hyperplanes[0].dim
    for h in hyperplanes[1:]:
        _check_dims(dim, h.dim)
    return matrix_rank([h.normal for h in hyperplanes]) == len(hyperplanes)


def integer_spanned_hyperplanes(
    points: Sequence[Sequence[int]],
) -> list[tuple[tuple[int, ...], int, int]]:
    """Every hyperplane through d affinely independent points of a set
    of integer points in Z^d, d >= 2, as ``(normal, offset, on)`` with
    a primitive normal, deduplicated.  ``on`` is the bitmask of the
    indices of the points on the hyperplane.  No points, or points of a
    lower dimension, raise ValueError.

    The d-subsets are walked depth-first by their first d-1 points (the
    prefix), one point at a time, keeping an integer basis of the kernel
    of the prefix's difference rows from its first point ``base``.  With
    no rows the basis is the d unit vectors.  Adding a point with
    ``r = q - base`` and ``c = K . r`` takes a pivot t with ``c_t != 0``
    and gives the basis ``(c_t K_i - c_i K_t) // prev`` for i != t,
    where ``prev`` is the previous pivot.  This is one step of
    fraction-free elimination (Bareiss 1968): every entry is a minor of
    the rows, and the division is exact by Sylvester's identity.
    Without it the entries would double in length at every level.  If
    ``c = 0``, r lies in the span of the rows, every subset through
    the prefix is affinely dependent, and the subtree is cut.

    A prefix of d-1 independent points leaves a 2-dimensional kernel
    with basis u, w.  For a later point q, the vector
    ``(w.r) u - (u.r) w`` lies in that kernel, so it is orthogonal to
    the prefix rows, and its dot product with r is
    ``(w.r)(u.r) - (u.r)(w.r) = 0``: it is a normal of the hyperplane
    through the prefix and q.  It is zero exactly when ``u.r = w.r = 0``
    (u and w are independent), that is when q is in the prefix's affine
    hull and the d points are dependent.

    ``on`` is the union of the d-subsets that span the hyperplane H, and
    that is every input point on H: a point p on H is affinely
    independent by itself, so it extends to d affinely independent
    points of the input on H (H is spanned, so these points have H as
    their affine hull), and the walk visits every independent d-subset.

    The hyperplanes come sorted by their canonical (normal, offset), as
    tuples: both divided by the normal's first nonzero entry, the lead,
    as in ``Hyperplane``.  No common positive scaling of the points
    changes that order.  It is sorted on integers: each entry
    x = v / lead of the canonical key becomes ``floor(x * 2^K)``, with
    2^K above the square of every lead.  Two canonical entries that
    differ, differ by at least 1 / (lead * lead') > 2^-K, so their floors
    differ in the same direction and the integer keys sort in the same
    order.  Unlike a common multiple of all leads, 2K grows only with the
    largest lead, not with the number of hyperplanes.
    """
    if not points:
        raise ValueError("need at least one point")
    n, d = len(points), len(points[0])
    if d < 2:
        raise ValueError(f"spanned hyperplanes need dimension 2 or more, got {d}")
    found: dict[tuple[tuple[int, ...], int], int] = {}  # (normal, offset) -> on
    # (base, index of the prefix's last point, prefix mask, kernel, pivot)
    stack: list[tuple[Sequence[int], int, int, list[list[int]], int]] = []
    if d == 2:
        stack = [(p, i, 1 << i, [[1, 0], [0, 1]], 1) for i, p in enumerate(points)]
    else:
        # seed with pairs: the generic step from the identity kernel is ~20 % slower
        for i in range(n - d + 1):
            base = points[i]
            for j in range(i + 1, n - d + 2):
                r = [x - y for x, y in zip(points[j], base)]
                t = next((k for k, v in enumerate(r) if v), None)
                if t is None:
                    continue
                # r_t e_k - r_k e_t for k != t: one step from the unit vectors
                kernel = []
                for k in range(d):
                    if k != t:
                        vec = [0] * d
                        vec[k], vec[t] = r[t], -r[k]
                        kernel.append(vec)
                stack.append((base, j, 1 << i | 1 << j, kernel, r[t]))
    while stack:
        base, last, bits, kernel, prev = stack.pop()
        kb = [sum(map(mul, k, base)) for k in kernel]
        if len(kernel) > 2:
            # a k-point prefix has a kernel of d-k+1 vectors; its next
            # point j leaves room for the d-k-1 points of the d-subset
            # after it
            for j in range(last + 1, n - len(kernel) + 2):
                q = points[j]
                c = [sum(map(mul, k, q)) - b for k, b in zip(kernel, kb)]
                t = next((i for i, v in enumerate(c) if v), None)
                if t is None:
                    continue
                ct, kt = c[t], kernel[t]
                reduced = [
                    [(ct * x - ci * y) // prev for x, y in zip(k, kt)]
                    for i, (k, ci) in enumerate(zip(kernel, c))
                    if i != t
                ]
                stack.append((base, j, bits | 1 << j, reduced, ct))
            continue
        (u, w), (ub, wb) = kernel, kb
        for j in range(last + 1, n):
            q = points[j]
            a = sum(map(mul, u, q)) - ub
            b = sum(map(mul, w, q)) - wb
            if not (a or b):
                continue
            normal = [b * x - a * y for x, y in zip(u, w)]
            g = gcd(*normal)
            if next(filter(None, normal)) < 0:
                g = -g
            # the offset is the normal's dot product with base
            key = (tuple([v // g for v in normal]), (b * ub - a * wb) // g)
            found[key] = found.get(key, 0) | bits | 1 << j
    leads = {h: next(filter(None, h[0])) for h in found}
    shift = 2 * max(leads.values(), default=0).bit_length()

    def sort_key(h: tuple[tuple[int, ...], int]) -> tuple[list[int], int]:
        lead = leads[h]
        return [(v << shift) // lead for v in h[0]], (h[1] << shift) // lead

    return [
        (normal, offset, found[normal, offset])
        for normal, offset in sorted(found, key=sort_key)
    ]


def containing_hyperplane(scaled: list[list[int]], scale: int) -> Hyperplane | None:
    """Some hyperplane through every point of a set, or None when the
    points span the whole ambient space.  The set is given as
    ``clear_denominators`` returns its coordinate rows: the points
    times ``scale``, as integers."""
    if not scaled:
        raise ValueError("need at least one point")
    d = len(scaled[0])
    rows = _differences(scaled)
    rank, pivots, p = _bareiss(rows)
    if rank >= d:
        return None
    normal = _kernel_vector(rows, pivots, p, d, _free_columns(pivots, d)[0])
    offset = sum(map(mul, normal, scaled[0]))
    return Hyperplane(tuple(normal), _divide(offset, scale))


def fraction_from_json(text: str | int) -> Fraction:
    """Parse an integer or a fraction string; floats are inexact and refused."""
    try:
        return _to_fraction(text)
    except (TypeError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational {text!r}: {err}") from err


def point_to_json(p: RationalPoint) -> list[str]:
    return [str(v) for v in p.coords]


def point_from_json(row: list[str | int]) -> RationalPoint:
    """A row of integers and fraction strings read through ``as_point``;
    a row that is not a list, a float and a bool raise ValueError."""
    try:
        return as_point(row)
    except (TypeError, ZeroDivisionError) as err:
        raise ValueError(f"bad point {row!r}: {err}") from err


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {"normal": [str(v) for v in h.normal], "offset": str(h.offset)}

