"""Hypercube combinatorics behind the sandwich constructions.

Vertices of the k-cube ``{0,1}^k``, the three-layer "sandwich" subsets
of ``Z^(1+k)``, the (head, tail-sum) projection, and the L-shaped facet
sets the covering code takes as input.  A cube vertex, a sandwich point
and a facet-set point are each a plain coordinate tuple; ``LatticePoint``
is the checked center type of the certifier and the CLI.

All integer arithmetic is exact.  A ``LatticePoint`` checks its
coordinates when it is built, through ``checked_coordinates``: each
must be an ``int`` in the signed 64-bit range, so results stay portable
to fixed-width consumers.  ``lattice_from_json`` only turns the
constructor's errors into ValueError, and a certifier window trusts the
centers it is given.  Points built inside are not checked: cube
vertices, sandwich points and facet sets are built from 0/1 tuples, and
their constructors trust what the enumeration has just filtered.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import comb
from typing import Iterable, Iterator

_COORD_BOUND = 2**63


class CoordinateOverflowError(OverflowError):
    """A coordinate left the signed 64-bit range the toolkit guarantees."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


def checked_coordinates(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a coordinate tuple.  Raises TypeError unless each is
    an ``int`` (a ``bool`` is not), and CoordinateOverflowError unless
    each lies in the signed 64-bit range."""
    coords = tuple(values)
    for v in coords:
        if type(v) is not int:
            raise TypeError(f"lattice coordinate {v!r} is not an int")
        if not -_COORD_BOUND <= v < _COORD_BOUND:
            raise CoordinateOverflowError(
                f"coordinate {v} outside the signed 64-bit range"
            )
    return coords


@dataclass(frozen=True, slots=True)
class LatticePoint:
    """An immutable integer vector: the checked center type of the
    certifier and the CLI.  The constructor reads ``coords`` through
    ``checked_coordinates``, so a bool, a float or a value outside the
    signed 64-bit range raises there and nowhere later."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", checked_coordinates(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm_inf(self) -> int:
        return max((abs(a) for a in self.coords), default=0)


def cube_points(k: int) -> Iterator[tuple[int, ...]]:
    """All 2^k vertices of the k-cube in lexicographic order."""
    if k < 0:
        raise ValueError("cube dimension must be nonnegative")
    return product((0, 1), repeat=k)


def build_sandwich(k: int, s: int) -> frozenset[tuple[int, ...]]:
    """The (k, s) sandwich: a three-layer subset of Z^(1+k).  A point's
    layer is its first coordinate.

    Layer -1 carries the k-cube vertices of coordinate sum < s, layer 0
    those of sum < k, and layer +1 those of sum > s.
    """
    points: list[tuple[int, ...]] = []
    for p in cube_points(k):
        total = sum(p)
        if total < s:
            points.append((-1,) + p)
        if total < k:
            points.append((0,) + p)
        if total > s:
            points.append((1,) + p)
    return frozenset(points)


def sandwich_size(k: int, s: int) -> int:
    """Cardinality of the (k, s) sandwich: each vertex of coordinate sum
    j counts once per layer it enters."""
    if k < 0:
        raise ValueError("cube dimension must be nonnegative")
    return sum(comb(k, j) * ((j < s) + (j < k) + (j > s)) for j in range(k + 1))


def sandwich_contains(k: int, s: int, point: tuple[int, ...]) -> bool:
    """Exact membership of a coordinate tuple in the (k, s) sandwich
    without building the set."""
    if len(point) != k + 1:
        return False
    tail = point[1:]
    total = tail.count(1)
    if total + tail.count(0) != k:
        return False
    layer = point[0]
    if layer == -1:
        return total < s
    if layer == 0:
        return total < k
    if layer == 1:
        return total > s
    return False


def sigma0(point: tuple[int, ...]) -> tuple[int, int]:
    """Project (x0, x1, ..., xk) to (x0, x1 + ... + xk)."""
    if not point:
        raise DimensionMismatchError("projection needs at least one coordinate")
    return point[0], sum(point[1:])


class LShape(Enum):
    """Which L-shaped triple bounds the (head, tail-sum) image.

    For anchor a, LOWER is {(0,a), (1,a), (1,a+1)} and UPPER is
    {(0,a), (0,a+1), (1,a+1)}.
    """

    LOWER = "lowerL"
    UPPER = "upperL"


def profile_triple(a: int, shape: LShape) -> frozenset[tuple[int, int]]:
    if shape is LShape.LOWER:
        return frozenset({(0, a), (1, a), (1, a + 1)})
    return frozenset({(0, a), (0, a + 1), (1, a + 1)})


@dataclass(frozen=True, slots=True)
class SigmaZeroSet:
    """A subset of the (k+1)-cube confined to one facet whose
    (head, tail-sum) image fits inside an L-shaped triple.

    ``facet_axis`` and ``facet_level`` pin the facet (coordinate
    ``facet_axis`` equals ``facet_level`` on every point); ``anchor``
    and ``shape`` pin the triple.  Every subset of a valid instance is
    again a valid instance with the same parameters.  The constructor
    checks the parameters only; the points are trusted, since
    ``enumerate_maximal_sigma0_sets`` has just chosen them by those tests.
    """

    k: int
    points: frozenset[tuple[int, ...]]
    facet_axis: int
    facet_level: int
    anchor: int
    shape: LShape

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 <= self.facet_axis <= self.k:
            raise ValueError(f"facet axis {self.facet_axis} outside 0..{self.k}")
        if self.facet_level not in (0, 1):
            raise ValueError(f"facet level must be 0 or 1, got {self.facet_level}")
        if not 0 <= self.anchor <= self.k - 1:
            raise ValueError(f"anchor {self.anchor} outside 0..{self.k - 1}")


def enumerate_maximal_sigma0_sets(k: int) -> list[SigmaZeroSet]:
    """All inclusion-maximal facet sets of the (k+1)-cube with an L-shaped profile.

    One entry per (facet axis, facet level, anchor, shape), i.e.
    (k+1) * 2 * k * 2 entries, in that loop order.  Distinct parameter
    tuples may describe equal point sets; duplicates are kept.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    profiled = [(p, sigma0(p)) for p in cube_points(k + 1)]
    out: list[SigmaZeroSet] = []
    for axis in range(k + 1):
        for level in (0, 1):
            # the facet's points filed by image once; a triple is three cells
            cells: dict[tuple[int, int], list[tuple[int, ...]]] = {}
            for p, image in profiled:
                if p[axis] == level:
                    cells.setdefault(image, []).append(p)
            for a in range(k):
                for shape in (LShape.LOWER, LShape.UPPER):
                    triple = profile_triple(a, shape)
                    pts = frozenset().union(*(cells.get(image, ()) for image in triple))
                    out.append(
                        SigmaZeroSet(
                            k=k,
                            points=pts,
                            facet_axis=axis,
                            facet_level=level,
                            anchor=a,
                            shape=shape,
                        )
                    )
    return out


def points_to_json(points: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """Deterministic JSON form: sorted list of coordinate arrays."""
    return sorted([list(p) for p in points])


def lattice_from_json(row: Iterable[int]) -> LatticePoint:
    """One coordinate row read from JSON through the ``LatticePoint``
    constructor, whose TypeError or overflow becomes ValueError."""
    try:
        return LatticePoint(row)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"bad lattice point {row!r}: {err}") from err


def sandwich_to_json(k: int, s: int, points: frozenset[tuple[int, ...]]) -> dict:
    return {
        "k": k,
        "s": s,
        "cardinality": len(points),
        "layers": {
            str(layer): points_to_json(p for p in points if p[0] == layer)
            for layer in (-1, 0, 1)
        },
        "points": points_to_json(points),
    }
