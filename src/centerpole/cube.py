"""Hypercube combinatorics behind the sandwich constructions.

Vertices of the k-cube ``{0,1}^k``, the three-layer "sandwich" subsets
of ``Z^(1+k)``, the (head, tail-sum) projection, and the L-shaped facet
sets the covering code takes as input.  Every point is a plain
coordinate tuple: a cube vertex, a sandwich point, a facet-set point,
and a center of the certifier.

All integer arithmetic is exact.  A center row read from outside goes
through ``checked_coordinates`` once: each coordinate must be an
``int`` in the signed 64-bit range, so results stay portable to
fixed-width consumers, and a certifier window trusts the centers it is
given.  Points built inside are not checked: cube vertices, sandwich
points and facet sets are built from 0/1 tuples, and their constructors
trust what the enumeration has just filtered.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterable, Iterator

_COORD_BOUND = 2**63


def checked_coordinates(row: Iterable[int]) -> tuple[int, ...]:
    """The row as a coordinate tuple, the one checked reader of a center.
    Raises ValueError naming the row unless it is iterable and each value
    is an ``int`` (a ``bool`` is not) in the signed 64-bit range."""
    try:
        coords = tuple(row)
    except TypeError as err:
        raise ValueError(f"bad lattice point {row!r}: {err}") from None
    for v in coords:
        if type(v) is not int:
            problem = f"lattice coordinate {v!r} is not an int"
        elif not -_COORD_BOUND <= v < _COORD_BOUND:
            problem = f"coordinate {v} outside the signed 64-bit range"
        else:
            continue
        raise ValueError(f"bad lattice point {row!r}: {problem}")
    return coords


# The benchmark's witness gate (bench/workloads.py) reads its centers
# through this name.
LatticePoint = checked_coordinates


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
        raise ValueError("projection needs at least one coordinate")
    return point[0], sum(point[1:])


def profile_triple(a: int, shape: str) -> frozenset[tuple[int, int]]:
    """The L-shaped triple that bounds a facet set's (head, tail-sum)
    image.  For anchor a, ``"lowerL"`` is {(0,a), (1,a), (1,a+1)} and
    ``"upperL"`` is {(0,a), (0,a+1), (1,a+1)}."""
    if shape == "lowerL":
        return frozenset({(0, a), (1, a), (1, a + 1)})
    return frozenset({(0, a), (0, a + 1), (1, a + 1)})


@dataclass(frozen=True, slots=True)
class SigmaZeroSet:
    """A subset of the (k+1)-cube confined to one facet whose
    (head, tail-sum) image fits inside an L-shaped triple.

    ``facet_axis`` and ``facet_level`` pin the facet (coordinate
    ``facet_axis`` equals ``facet_level`` on every point); ``anchor``
    and ``shape``, ``"lowerL"`` or ``"upperL"``, pin the triple.  Every
    subset of a valid instance is again a valid instance with the same
    parameters.  The constructor checks the parameters only; the points
    are trusted, since ``enumerate_maximal_sigma0_sets`` has just chosen
    them by those tests.
    """

    k: int
    points: frozenset[tuple[int, ...]]
    facet_axis: int
    facet_level: int
    anchor: int
    shape: str

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 <= self.facet_axis <= self.k:
            raise ValueError(f"facet axis {self.facet_axis} outside 0..{self.k}")
        if self.facet_level not in (0, 1):
            raise ValueError(f"facet level must be 0 or 1, got {self.facet_level}")
        if not 0 <= self.anchor <= self.k - 1:
            raise ValueError(f"anchor {self.anchor} outside 0..{self.k - 1}")
        if self.shape not in ("lowerL", "upperL"):
            raise ValueError(f"shape must be lowerL or upperL, got {self.shape!r}")


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
                for shape in ("lowerL", "upperL"):
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
