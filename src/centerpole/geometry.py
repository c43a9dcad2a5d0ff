"""Exact linear algebra for point and hyperplane predicates.

Points, hyperplanes and every returned value are exact rationals;
there is no floating point and no tolerance anywhere.  An exact value
is stored in one canonical form: an ``int`` when it is an integer, and
a ``Fraction`` in lowest terms only when it is not.  As
``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``, the form changes no equality, hash,
order or printed value; it only spares integer values a ``Fraction``.
A hyperplane is the pair ``(normal, offset)`` of a primitive integer
normal (gcd 1, first nonzero entry positive) and an exact offset, so
that two pairs for one hyperplane compare and hash equal.  The module
holds no class and imports no other module of the package.

The linear algebra itself runs on integers.  Rows are scaled by the lcm
of their denominators (point sets by one common lcm, which keeps their
affine structure) and reduced by one fraction-free Bareiss elimination,
which gives rank, kernel vectors and inverses.  A hyperplane of the
scaled points keeps its primitive normal, and its offset is an integer.
Spanned hyperplanes are enumerated by walking their first d-1 points
depth-first and updating the prefix's kernel basis one point at a time,
a Bareiss step whose division by the previous pivot keeps the entries
small; no prefix is eliminated from scratch.  Each later point's hyperplane normal is a
combination of the last two kernel vectors with two dot products as
coefficients, and each hyperplane comes with the bitmask of the points
on it: the union of the d-subsets that span it.  They come sorted as
their integer ``(normal, offset)`` tuples.
That enumeration and ``containing_hyperplane`` take a point set as its
``clear_denominators`` rows, so a caller scales it once, and their
offsets are those of the scaled rows.  ``side_of``
returns a sign, -1, 0 or 1.  A rational point is the tuple of its
coordinates, each in that canonical form, as the cube layer's points
are tuples of ints.

Rational inputs are checked once, where they enter: ``as_point``,
``_exact`` and ``clear_denominators`` keep an exact ``int`` and read
any other value through ``_to_fraction``, which refuses floats and
bools (TypeError), exponent strings and zero denominators (ValueError).
``as_point`` is the one point reader, of ``tshape``, ``colorings`` and
``point_from_json`` (``as_point`` with every error as a ValueError that
names the row): it reads a tuple or a list and nothing else.  ``_exact``
is the one scalar reader; no other module tests a type against
``Fraction``.  Code past those points works on the checked tuples and
does not check them again.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction | int | str


def _to_fraction(value: Rational) -> Fraction:
    """``value`` as a ``Fraction``.  Floats are inexact and bools are
    not numbers, so both raise TypeError.  A string with an exponent, a
    digit or point before an E ("1e10000000", not "None"), raises
    ValueError before ``Fraction`` expands it:
    its cost grows with the exponent, not with the text.  So does a
    zero denominator ("1/0"), where ``Fraction`` raises ZeroDivisionError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact geometry")
    if isinstance(value, bool):
        raise TypeError("booleans are not allowed in exact geometry")
    if isinstance(value, str) and re.search(r"[\d.][eE]", value):
        raise ValueError(f"exponent strings such as {value[:20]!r} are not allowed")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{str(value)[:20]!r} has a zero denominator") from None


def _exact(value: Rational) -> int | Fraction:
    """``value`` in canonical form: an ``int`` as it is, anything else
    read through ``_to_fraction`` and reduced to its numerator when its
    denominator is 1."""
    if type(value) is int:
        return value
    value = _to_fraction(value)
    return value.numerator if value.denominator == 1 else value


def _divide(v: int, scale: int) -> int | Fraction:
    """The exact quotient ``v / scale`` of ints, ``scale > 0``, in
    canonical form."""
    q, r = divmod(v, scale)
    return Fraction(v, scale) if r else q


def as_point(x: Sequence[Rational]) -> tuple[int | Fraction, ...]:
    """The coordinate tuple of a point, each coordinate in canonical
    form: a tuple or a list read through ``_exact``.  Any other value, a
    string or a dict among them, raises TypeError: iterating it would
    read its characters or keys as coordinates."""
    kind = type(x)
    if kind is tuple or kind is list:
        return tuple(map(_exact, x))
    raise TypeError(f"a point is a list or tuple of coordinates, not {kind.__name__}")


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def side_of(h: tuple, p: Sequence[int | Fraction]) -> int:
    """Exact side of the hyperplane ``h = (normal, offset)``: the sign
    of normal . p - offset, as -1, 0 or 1."""
    normal, offset = h
    _check_dims(len(normal), len(p))
    value = sum(map(mul, normal, p)) - offset
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
    do not change either.  When every entry is exactly an ``int``, the
    scale is 1 and the rows come back as fresh lists, which the
    elimination may change in place.  Otherwise an entry that is not
    exactly an ``int`` or a ``Fraction`` is read through
    ``_to_fraction``, so a float or a bool raises TypeError."""
    rows = list(rows)
    if all(type(v) is int for row in rows for v in row):
        return 1, [list(row) for row in rows]
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


def affine_hull_dim(points: Sequence[Sequence[Rational]]) -> int:
    """Dimension of the affine hull: -1 for no points, else the exact
    rank of the difference vectors from the first point."""
    if not points:
        return -1
    d = len(points[0])
    for p in points[1:]:
        _check_dims(d, len(p))
    return _bareiss(_differences(clear_denominators(points)[1]))[0]


def separates(h: tuple, points: Sequence[Sequence[int | Fraction]]) -> bool:
    """True iff some points lie strictly on both sides."""
    sides = {side_of(h, p) for p in points}
    return -1 in sides and 1 in sides


def in_general_position(hyperplanes: Sequence[tuple]) -> bool:
    """Linearly independent normals.  This implies pairwise distinct:
    two equal hyperplanes have equal primitive normals."""
    normals = [normal for normal, _ in hyperplanes]
    for normal in normals[1:]:
        _check_dims(len(normals[0]), len(normal))
    return matrix_rank(normals) == len(normals)


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

    The hyperplanes come sorted as Python sorts their integer
    ``(normal, offset)`` tuples: by the primitive normal, then by the
    offset.  That order does not depend on the order of the points.  Nor
    does a common positive scaling of the points change it, the scaling
    ``clear_denominators`` applies: the normals stay and every offset is
    multiplied by the scale.  Nor does an integer translation by t: the
    normals stay and each offset moves by normal . t, the same amount
    for every hyperplane of one normal.
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
    return sorted((normal, offset, on) for (normal, offset), on in found.items())


def containing_hyperplane(scaled: list[list[int]]) -> tuple | None:
    """Some hyperplane through every point of a set, as a primitive pair,
    or None when the points span the whole ambient space.  The set is
    given as ``clear_denominators`` rows, and the integer offset is that
    of those scaled points, as an enumerated hyperplane's is."""
    if not scaled:
        raise ValueError("need at least one point")
    d = len(scaled[0])
    rows = _differences(scaled)
    rank, pivots, p = _bareiss(rows)
    if rank >= d:
        return None
    # the kernel vector with p at the first free column and 0 at the others
    free = next(c for c in range(d) if c not in pivots)
    normal = [0] * d
    normal[free] = p
    for r, c in enumerate(pivots):
        normal[c] = -rows[r][free]
    g = gcd(*normal)
    if next(filter(None, normal)) < 0:
        g = -g
    normal = tuple([v // g for v in normal])
    return normal, sum(map(mul, normal, scaled[0]))


def point_to_json(p: Sequence[int | Fraction]) -> list[str]:
    return [str(v) for v in p]


def point_from_json(row: list[str | int]) -> tuple[int | Fraction, ...]:
    """A row of integers and fraction strings read through ``as_point``,
    with every error it raises as a ValueError that names the row."""
    try:
        return as_point(row)
    except (TypeError, ValueError) as err:
        raise ValueError(f"bad point {row!r}: {err}") from err


def hyperplane_to_json(h: tuple) -> dict:
    normal, offset = h
    return {"normal": [str(v) for v in normal], "offset": str(offset)}

