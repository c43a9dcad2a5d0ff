"""Exact rational linear algebra for point and hyperplane predicates.

Everything here runs on arbitrary-precision rationals; there is no
floating point and no tolerance anywhere.  Hyperplanes are kept in a
canonical form (first nonzero normal entry is +1) so that equality,
hashing, and deduplication are structural.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
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


def _row_reduce(rows: list[list[Fraction]]) -> int:
    """In-place fraction-free-ish Gaussian elimination; returns rank."""
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


def matrix_rank(rows: Iterable[Sequence[Rational]]) -> int:
    work = [[_to_fraction(v) for v in row] for row in rows]
    return _row_reduce(work)


def matrix_inverse(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix: row-reduce ``[M | I]`` to
    ``[I | M^-1]``.  Raises ValueError if the matrix is singular."""
    n = len(rows)
    work = [
        [_to_fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)]
        for r, row in enumerate(rows)
    ]
    _row_reduce(work)
    if any(row[r] != 1 for r, row in enumerate(work)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def affine_hull_dim(points: Sequence[RationalPoint]) -> int:
    """Dimension of the affine hull: -1 for no points, else the exact
    rank of the difference vectors from the first point."""
    if not points:
        return -1
    base = points[0]
    for p in points[1:]:
        _check_dims(base.dim, p.dim)
    rows = [[v for v in (p - base).coords] for p in points[1:]]
    return _row_reduce(rows)


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


def hyperplane_through(points: Sequence[RationalPoint]) -> Hyperplane | None:
    """The unique hyperplane through d affinely independent points of
    R^d, or None when the points are affinely dependent."""
    d = points[0].dim
    if len(points) != d:
        raise ValueError(f"need exactly {d} points in dimension {d}")
    base = points[0]
    rows = [[v for v in (p - base).coords] for p in points[1:]]
    normal = _nullspace_vector(rows, d)
    if normal is None:
        return None
    return Hyperplane(tuple(normal), dot(normal, base.coords))


def _nullspace_vector(rows: list[list[Fraction]], n_cols: int) -> list[Fraction] | None:
    """A nonzero kernel vector when the kernel is one-dimensional,
    else None (rows assumed to have n_cols columns; may be empty)."""
    work = [list(r) for r in rows]
    rank = _row_reduce(work)
    if rank != n_cols - 1:
        return None
    pivot_cols: list[int] = []
    for r in range(rank):
        pivot_cols.append(next(c for c in range(n_cols) if work[r][c] != 0))
    free_col = next(c for c in range(n_cols) if c not in pivot_cols)
    vec = [Fraction(0)] * n_cols
    vec[free_col] = Fraction(1)
    for r, pc in enumerate(pivot_cols):
        vec[pc] = -work[r][free_col]
    return vec


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
    found: set[Hyperplane] = set()
    for subset in combinations(points, d):
        h = hyperplane_through(subset)
        if h is not None:
            found.add(h)
    return sorted(found, key=Hyperplane.sort_key)


def containing_hyperplane(points: Sequence[RationalPoint]) -> Hyperplane | None:
    """Some hyperplane through every input point, or None when the
    points span the whole ambient space."""
    if not points:
        raise ValueError("need at least one point")
    d = points[0].dim
    base = points[0]
    work = [[v for v in (p - base).coords] for p in points[1:]]
    rank = _row_reduce(work)
    if rank >= d:
        return None
    pivot_cols = [next(c for c in range(d) if work[r][c] != 0) for r in range(rank)]
    free_col = next(c for c in range(d) if c not in pivot_cols)
    normal = [Fraction(0)] * d
    normal[free_col] = Fraction(1)
    for r, pc in enumerate(pivot_cols):
        normal[pc] = -work[r][free_col]
    return Hyperplane(tuple(normal), dot(normal, base.coords))


def hull_frame(points: Sequence[RationalPoint]) -> list[RationalPoint]:
    """Re-express the points in exact coordinates of an affine frame of
    their hull: output dimension equals the hull dimension.

    The frame map is an affine bijection between the hull and R^h, so
    incidence, separation, and hull dimensions of subsets are preserved.
    For an empty input the result is empty.
    """
    if not points:
        return []
    base = points[0]
    diffs = [(p - base).coords for p in points]
    basis: list[tuple[Fraction, ...]] = []
    for vec in diffs:
        trial = [list(b) for b in basis] + [list(vec)]
        if _row_reduce(trial) > len(basis):
            basis.append(vec)
    h = len(basis)
    if h == 0:
        return [RationalPoint(()) for _ in points]
    out: list[RationalPoint] = []
    for p in points:
        coords = _solve_coordinates(basis, (p - base).coords)
        out.append(RationalPoint(tuple(coords)))
    return out


def _solve_coordinates(
    basis: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> list[Fraction]:
    """Coefficients c with sum(c_j * basis_j) = target; the target is
    known to lie in the span."""
    n = len(target)
    h = len(basis)
    rows = [[basis[j][i] for j in range(h)] + [target[i]] for i in range(n)]
    rank = _row_reduce(rows)
    coeffs = [Fraction(0)] * h
    for r in range(rank):
        pc = next(c for c in range(h + 1) if rows[r][c] != 0)
        if pc == h:
            raise ValueError("target outside the basis span")
        coeffs[pc] = rows[r][h]
    return coeffs


def fraction_to_json(value: Fraction) -> str:
    return str(value)


def fraction_from_json(text: str | int) -> Fraction:
    return Fraction(text)


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
    return Hyperplane(
        tuple(Fraction(v) for v in data["normal"]), Fraction(data["offset"])
    )
