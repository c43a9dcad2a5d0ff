"""Exact linear algebra for point and hyperplane predicates.

Points, hyperplanes and every returned value are exact rationals
(``Fraction``); there is no floating point and no tolerance anywhere.
Hyperplanes are kept in a canonical form (first nonzero normal entry is
+1) so that equality, hashing, and deduplication are structural.

The linear algebra itself runs on integers.  Rows are scaled by the lcm
of their denominators (point sets by one common lcm, which keeps their
affine structure) and reduced by one fraction-free Bareiss elimination,
which gives rank, kernel vectors and inverses.  Internally a hyperplane
of integer points is a primitive integer normal (gcd 1, first nonzero
entry positive) with an integer offset.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class DegenerateHullError(ValueError):
    """The point set does not span its ambient space."""


Rational = Fraction | int | str


def _to_fraction(value: Rational) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact geometry")
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class RationalPoint:
    """An immutable point with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coords", tuple(_to_fraction(v) for v in self.coords)
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        _check_dims(self.dim, other.dim)
        return RationalPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        _check_dims(self.dim, other.dim)
        return RationalPoint(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RationalPoint":
        return RationalPoint(tuple(-a for a in self.coords))

    def scaled(self, factor: Rational) -> "RationalPoint":
        f = _to_fraction(factor)
        return RationalPoint(tuple(f * a for a in self.coords))

    def __getitem__(self, i: int):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __lt__(self, other: "RationalPoint") -> bool:
        _check_dims(self.dim, other.dim)
        return self.coords < other.coords


def rational_point(*coords: Rational) -> RationalPoint:
    return RationalPoint(tuple(coords))


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    _check_dims(len(a), len(b))
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class HalfspaceSide(Enum):
    NEGATIVE = "negative"
    ON = "on"
    POSITIVE = "positive"


@dataclass(frozen=True, slots=True)
class Hyperplane:
    """The solution set of normal . x = offset, in canonical form.

    The stored normal's first nonzero entry is +1, so two inputs that
    describe the same hyperplane compare and hash equal.
    """

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        normal = tuple(_to_fraction(v) for v in self.normal)
        offset = _to_fraction(self.offset)
        lead = next((v for v in normal if v != 0), None)
        if lead is None:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(v / lead for v in normal))
        object.__setattr__(self, "offset", offset / lead)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def sort_key(self) -> tuple:
        return (self.normal, self.offset)


def side_of(h: Hyperplane, p: RationalPoint) -> HalfspaceSide:
    """Exact side of the hyperplane: sign of normal . p - offset."""
    _check_dims(h.dim, p.dim)
    value = dot(h.normal, p.coords) - h.offset
    if value > 0:
        return HalfspaceSide.POSITIVE
    if value < 0:
        return HalfspaceSide.NEGATIVE
    return HalfspaceSide.ON


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
    do not change either."""
    rows = [
        [v if isinstance(v, (int, Fraction)) else _to_fraction(v) for v in row]
        for row in rows
    ]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return scale, [
        [v.numerator * (scale // v.denominator) for v in row] for row in rows
    ]


def _differences(points: Sequence[Sequence[int]]) -> list[list[int]]:
    base = points[0]
    return [[a - b for a, b in zip(p, base)] for p in points[1:]]


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """The vector divided by its gcd, signed so that its first nonzero
    entry is positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _kernel_vector(
    rows: list[list[int]], pivots: list[int], p: int, n_cols: int
) -> list[int]:
    """A nonzero kernel vector of Bareiss-reduced rows of rank below
    ``n_cols``: ``p`` at the first non-pivot column, 0 at the others."""
    free = next(c for c in range(n_cols) if c not in pivots)
    vec = [0] * n_cols
    vec[free] = p
    for r, c in enumerate(pivots):
        vec[c] = -rows[r][free]
    return vec


def matrix_rank(rows: Iterable[Sequence[Rational]]) -> int:
    return _bareiss(clear_denominators(rows)[1])[0]


def matrix_inverse(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix as adjugate over determinant:
    Bareiss elimination of ``[L*M | I]``, with ``L`` the lcm of the
    denominators, leaves ``[p*I | p*(L*M)^-1]``.  Raises ValueError if
    the matrix is singular."""
    n = len(rows)
    scale, work = clear_denominators(rows)
    for r, row in enumerate(work):
        row.extend(int(i == r) for i in range(n))
    _, pivots, p = _bareiss(work)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(scale * v, p) for v in row[n:]] for row in work]


def affine_hull_dim(points: Sequence[RationalPoint]) -> int:
    """Dimension of the affine hull: -1 for no points, else the exact
    rank of the difference vectors from the first point."""
    if not points:
        return -1
    base = points[0]
    for p in points[1:]:
        _check_dims(base.dim, p.dim)
    return _bareiss(_differences(clear_denominators(p.coords for p in points)[1]))[0]


def is_support_hyperplane(h: Hyperplane, points: Sequence[RationalPoint]) -> bool:
    """True iff the hyperplane meets the set and does not separate it."""
    touched = False
    seen_positive = False
    seen_negative = False
    for p in points:
        side = side_of(h, p)
        if side is HalfspaceSide.ON:
            touched = True
        elif side is HalfspaceSide.POSITIVE:
            seen_positive = True
        else:
            seen_negative = True
    return touched and not (seen_positive and seen_negative)


def separates(h: Hyperplane, points: Sequence[RationalPoint]) -> bool:
    """True iff some points lie strictly on both sides."""
    seen_positive = False
    seen_negative = False
    for p in points:
        side = side_of(h, p)
        if side is HalfspaceSide.POSITIVE:
            seen_positive = True
        elif side is HalfspaceSide.NEGATIVE:
            seen_negative = True
        if seen_positive and seen_negative:
            return True
    return False


def in_general_position(hyperplanes: Sequence[Hyperplane]) -> bool:
    """Pairwise distinct with linearly independent normals."""
    if not hyperplanes:
        return True
    dim = hyperplanes[0].dim
    for h in hyperplanes[1:]:
        _check_dims(dim, h.dim)
    if len(set(hyperplanes)) != len(hyperplanes):
        return False
    return matrix_rank([h.normal for h in hyperplanes]) == len(hyperplanes)


def _integer_hyperplane_through(
    points: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int] | None:
    """``(normal, offset)`` with a primitive normal for the hyperplane
    through d affinely independent integer points of Z^d, or None."""
    rows = _differences(points)
    d = len(points[0])
    rank, pivots, p = _bareiss(rows)
    if rank != d - 1:
        return None
    normal = _primitive(_kernel_vector(rows, pivots, p, d))
    return normal, sum(map(mul, normal, points[0]))


def hyperplane_through(points: Sequence[RationalPoint]) -> Hyperplane | None:
    """The unique hyperplane through d affinely independent points of
    R^d, or None when the points are affinely dependent."""
    d = points[0].dim
    if len(points) != d:
        raise ValueError(f"need exactly {d} points in dimension {d}")
    scale, scaled = clear_denominators(p.coords for p in points)
    found = _integer_hyperplane_through(scaled)
    if found is None:
        return None
    return Hyperplane(found[0], Fraction(found[1], scale))


def integer_spanned_hyperplanes(
    points: Sequence[Sequence[int]],
) -> list[tuple[tuple[int, ...], int]]:
    """Every hyperplane through d affinely independent points of a set
    of integer points in Z^d, as ``(normal, offset)`` with a primitive
    normal, deduplicated.

    The order is that of ``Hyperplane.sort_key``, which no common
    positive scaling of the points changes.  It is sorted on integers:
    each key is the canonical one (normal and offset divided by the lead
    entry) times ``Q``, the lcm of all leads, so it is an integer tuple
    in the same order.
    """
    d = len(points[0])
    found = {
        h
        for subset in combinations(points, d)
        if (h := _integer_hyperplane_through(subset)) is not None
    }
    leads = {h: next(v for v in h[0] if v) for h in found}
    q = lcm(*leads.values())
    return sorted(
        found,
        key=lambda h: (
            tuple(v * (q // leads[h]) for v in h[0]),
            h[1] * (q // leads[h]),
        ),
    )


def spanned_hyperplanes(points: Sequence[RationalPoint]) -> list[Hyperplane]:
    """Every hyperplane through d affinely independent points of the
    full-dimensional input set, deduplicated and sorted canonically."""
    if not points:
        raise DegenerateHullError("no points: hull is empty")
    d = points[0].dim
    if affine_hull_dim(points) != d:
        raise DegenerateHullError(
            "points do not span the ambient space; re-express them in a "
            "frame of their affine hull first"
        )
    scale, scaled = clear_denominators(p.coords for p in points)
    return [
        Hyperplane(normal, Fraction(offset, scale))
        for normal, offset in integer_spanned_hyperplanes(scaled)
    ]


def containing_hyperplane(points: Sequence[RationalPoint]) -> Hyperplane | None:
    """Some hyperplane through every input point, or None when the
    points span the whole ambient space."""
    if not points:
        raise ValueError("need at least one point")
    d = points[0].dim
    scale, scaled = clear_denominators(p.coords for p in points)
    rows = _differences(scaled)
    rank, pivots, p = _bareiss(rows)
    if rank >= d:
        return None
    normal = _kernel_vector(rows, pivots, p, d)
    offset = sum(map(mul, normal, scaled[0]))
    return Hyperplane(tuple(normal), Fraction(offset, scale))


def hull_frame(points: Sequence[RationalPoint]) -> list[RationalPoint]:
    """Re-express the points in exact coordinates of an affine frame of
    their hull: output dimension equals the hull dimension.

    The frame map is an affine bijection between the hull and R^h, so
    incidence, separation, and hull dimensions of subsets are preserved.
    For an empty input the result is empty.
    """
    if not points:
        return []
    scaled = clear_denominators(p.coords for p in points)[1]
    diffs = [[a - b for a, b in zip(p, scaled[0])] for p in scaled]
    basis: list[list[int]] = []
    for vec in diffs:
        if _bareiss([list(b) for b in basis] + [list(vec)])[0] > len(basis):
            basis.append(vec)
    if not basis:
        return [RationalPoint(()) for _ in points]
    return [RationalPoint(tuple(_solve_coordinates(basis, vec))) for vec in diffs]


def _solve_coordinates(basis: list[list[int]], target: list[int]) -> list[Fraction]:
    """Coefficients c with sum(c_j * basis_j) = target; the target is
    known to lie in the span."""
    h = len(basis)
    rows = [[b[i] for b in basis] + [t] for i, t in enumerate(target)]
    rank, pivots, p = _bareiss(rows)
    if h in pivots:
        raise ValueError("target outside the basis span")
    coeffs = [Fraction(0)] * h
    for r, c in enumerate(pivots):
        coeffs[c] = Fraction(rows[r][h], p)
    return coeffs


def fraction_to_json(value: Fraction) -> str:
    return str(value)


def fraction_from_json(text: str | int) -> Fraction:
    """Parse an integer or a fraction string; floats are inexact and refused."""
    try:
        return _to_fraction(text)
    except TypeError as err:
        raise ValueError(f"bad rational {text!r}: {err}") from err


def point_to_json(p: RationalPoint) -> list[str]:
    return [str(v) for v in p.coords]


def point_from_json(row: Iterable[str | int]) -> RationalPoint:
    """Parse integers and fraction strings; floats are inexact and refused."""
    try:
        return RationalPoint(tuple(row))
    except TypeError as err:
        raise ValueError(f"bad point {row!r}: {err}") from err


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {"normal": [str(v) for v in h.normal], "offset": str(h.offset)}


def hyperplane_from_json(data: dict) -> Hyperplane:
    """Parse integers and fraction strings; floats are inexact and refused."""
    try:
        return Hyperplane(tuple(data["normal"]), data["offset"])
    except TypeError as err:
        raise ValueError(f"bad hyperplane {data!r}: {err}") from err
