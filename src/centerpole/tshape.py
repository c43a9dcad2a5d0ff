"""Deciding whether a finite point set is T-shaped.

The tree sets nest by the recursion T_n = (R^(n-1) x {0}) u
(T_(n-1) x R_+), and a set is T-shaped when some invertible affine map
carries it into R x T_(n-1).  For finite sets this is equivalent to a
cover by hyperplanes in general position, at most one fewer than the
ambient dimension, where each hyperplane must not separate the points
its predecessors left uncovered.  The search restricts candidates to
hyperplanes spanned by input points; that restriction is a recorded
working assumption, cross-checked against every configuration with a
known answer.

The decision runs on integers: the points are scaled once by the lcm
of their denominators, and their spanned hyperplanes are enumerated
once, as primitive integer hyperplanes with the mask of their incident
points.  That enumeration is also the hull test: it returns two or
more hyperplanes exactly when the set spans the space, the only
hyperplane through the set when it spans exactly a hyperplane, and
none when it spans less.  So every set of more than d points costs one
walk of at most C(n, d) d-subsets, a set on one hyperplane too.
``_search_cover`` only searches, mask tests first: it returns the cover
it finds as enumerated triples.  ``is_t_shaped`` builds every
certificate from a cover in one place, dividing only the offsets back
to the points' scale, and re-verifies it on integers by exact
predicates (``in_general_position`` and the sign ``side_of``, taken
once for each hyperplane and point it reaches) that share nothing with
the search's masks.

The module decides and certifies: the known t values, their sampled
check and its random sets live in ``scripts/run_tshape_survey.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .geometry import (
    _divide,
    _exact,
    affine_hull_dim as _affine_hull_dim,
    as_point,
    clear_denominators,
    containing_hyperplane,
    hyperplane_to_json,
    in_general_position,
    matrix_rank,
    point_to_json,
    separates as _separates,
    side_of,
)

# The decision enumerates its candidates through this name, so the traced
# benchmark run, which wraps tshape.spanned_hyperplanes, times the
# enumeration as the spanned-hyperplane layer (bench/tracing.py).
from .geometry import integer_spanned_hyperplanes as spanned_hyperplanes

# Read only by the traced benchmark run, which wraps them as the hull and
# separation layers (bench/tracing.py); no decision calls either, and
# ROADMAP item 7b deletes both with the wrappers.
affine_hull_dim = _affine_hull_dim
separates = _separates


@dataclass(frozen=True)
class TShapeCertificate:
    """A hyperplane cover witnessing T-shapedness.

    ``hyperplanes`` are ``(normal, offset)`` pairs of a primitive
    integer normal and an exact offset, and ``assignment`` sends each
    point to the index of the first hyperplane containing it.
    Verification reads the hyperplanes and the assignment first: a
    normal entry or an assignment value that is not exactly an ``int``,
    or an offset ``_exact`` refuses, raises TypeError, and an assignment
    whose keys are not exactly the distinct points fails.  It then
    re-derives everything from the raw predicates, on integers: the
    points times the lcm of their denominators and each offset times
    the same lcm, which keeps every side.  It checks general position
    of the family, then walks the hyperplanes once, in order, keeping
    the points no earlier hyperplane holds: each such point's sign is
    taken once, the hyperplane fails if the signs hold both -1 and 1
    or a point on it is assigned another index, and the points on it
    are dropped.  A point left after the last hyperplane fails the
    cover.
    """

    hyperplanes: tuple[tuple, ...]
    assignment: dict[tuple[int | Fraction, ...], int]

    def verify(self, points: Sequence) -> bool:
        pts = [as_point(p) for p in points]
        read = [(n, _exact(offset)) for n, offset in self.hyperplanes]
        bad = [type(v).__name__ for n, _ in read for v in n if type(v) is not int]
        if bad:
            raise TypeError(f"a normal entry is an int, not {bad[0]}")
        bad = [type(i).__name__ for i in self.assignment.values() if type(i) is not int]
        if bad:
            raise TypeError(f"an assignment value is an int, not {bad[0]}")
        if self.assignment.keys() != set(pts):
            return False
        scale, scaled = clear_denominators(pts)
        hps = [(n, _exact(offset * scale)) for n, offset in read]
        if not in_general_position(hps):
            return False
        left = list(zip(pts, scaled))
        for i, h in enumerate(hps):
            signs = [side_of(h, row) for _, row in left]
            if -1 in signs and 1 in signs:
                return False
            if any(self.assignment[p] != i for (p, _), s in zip(left, signs) if not s):
                return False
            left = [pair for pair, s in zip(left, signs) if s]
        return not left


@dataclass(frozen=True)
class TShapeResult:
    t_shaped: bool
    certificate: TShapeCertificate | None
    detail: str


def is_t_shaped(points) -> TShapeResult:
    """Decide T-shapedness of a finite rational point set.

    Empty sets are T-shaped outright.  On the line nothing else is.
    Otherwise the spanned hyperplanes are enumerated once, and their
    count is the hull test.  A full-dimensional set has two or more (d+1
    affinely independent points of it span d+1 of them), and
    ``_search_cover`` searches them exhaustively for a cover by at most
    d-1.  A set not spanning its ambient space fits on a single
    hyperplane, a one-element cover: the one enumerated hyperplane, or,
    when it spans less and none is enumerated, the pick of
    ``containing_hyperplane``, whose offset is that of the scaled points,
    as an enumerated one is.  Every cover becomes a certificate here:
    its offsets divided back by the scale, each point assigned the first
    hyperplane whose ``on`` mask holds it, and the whole re-verified
    before a yes answer returns it.
    """
    distinct = list(dict.fromkeys(as_point(p) for p in points))
    if not distinct:
        return TShapeResult(
            True, TShapeCertificate((), {}), "empty set, trivially T-shaped"
        )
    dim = len(distinct[0])
    if dim == 0 or any(len(p) != dim for p in distinct):
        raise ValueError("points must share one ambient dimension of at least 1")
    if dim == 1:
        return TShapeResult(
            False, None, "a nonempty subset of the line is never T-shaped"
        )
    scale, scaled = clear_denominators(distinct)
    candidates = spanned_hyperplanes(scaled)
    if len(candidates) > 1:
        cover = _search_cover(scaled, candidates)
        if cover is None:
            return TShapeResult(
                False, None, "no certificate found under spanned-hyperplane search"
            )
        detail = f"covered by {len(cover)} hyperplanes"
    else:
        # below a hyperplane nothing is enumerated
        everything = (1 << len(distinct)) - 1
        cover = candidates or [(*containing_hyperplane(scaled), everything)]
        detail = "one hyperplane carries the whole set"
    cert = TShapeCertificate(
        hyperplanes=tuple(
            (normal, _divide(offset, scale)) for normal, offset, _ in cover
        ),
        assignment={
            p: next(i for i, (_, _, on) in enumerate(cover) if on >> j & 1)
            for j, p in enumerate(distinct)
        },
    )
    if not cert.verify(distinct):
        raise RuntimeError(f"certificate fails verification: {detail}")
    return TShapeResult(True, cert, detail)


def _independent(normals: list[tuple[int, ...]], normal: tuple[int, ...]) -> bool:
    """Whether ``normal`` keeps the chosen ``normals`` linearly
    independent.  All are primitive with their first nonzero entry
    positive, as the enumeration returns them, and two such normals are
    dependent exactly when they are equal: against one chosen normal
    this is a tuple comparison, against more an exact rank test.  A
    certificate's normals need not be primitive, so its check runs
    ``in_general_position`` instead."""
    if len(normals) < 2:
        return not normals or normals[0] != normal
    return matrix_rank(normals + [normal]) == len(normals) + 1


def _search_cover(
    scaled: list[list[int]], candidates: list[tuple]
) -> list[tuple] | None:
    """Exhaustive cover search over spanned hyperplanes, depth-first in
    the enumeration's order: by primitive integer normal, then offset.
    Returns the chosen ``(normal, offset, on)`` candidates, or None.
    Any fixed order gives the same verdict, as the search is exhaustive;
    the order only picks which cover a "yes" finds, and so, from
    dimension 4 on, how many hyperplanes the ``detail`` counts.

    ``scaled`` holds the points times the lcm of their denominators,
    and ``candidates`` their enumeration: two or more hyperplanes, as
    the points span the space.  Each candidate is a primitive integer
    hyperplane ``n . x = off`` of the scaled points with the bitmask
    ``on`` of the points on it.  The points strictly on each side are
    kept as bitmasks too, computed from the signs of ``n . p - off`` the
    first time the candidate reaches the separation test; most
    candidates never do.  So the cover test and the separation test are
    mask operations.

    A candidate must cover at least one still-uncovered point (a cover
    with an idle hyperplane stays valid after dropping it, so this
    loses nothing), not separate the set of points its predecessors
    left uncovered, and keep the chosen normals linearly independent.
    The tests run in that order, cheapest first: the first two are mask
    operations, and ``_independent`` compares tuples while one normal is
    chosen; only against two or more, from dimension 4 on, is it an
    elimination.  Each test only skips a candidate, so the order changes
    neither which candidates are accepted nor the order they are tried
    in.  When one hyperplane is left in the budget, only a candidate
    that covers the whole residual can finish the cover: any other child
    would find points left and no budget, and return None before it
    reads or writes the memo.  So the last level scans only the
    candidates through the residual's lowest point, and runs no
    separation test, which a hyperplane holding the whole residual
    cannot fail.  Dead (residual, normal-set) states are memoized; a
    branch is also cut when the residual exceeds what the remaining
    budget can cover.

    The memo bounds the work: a state is expanded once (it returns a
    cover or goes into ``dead``), its key depends only on the set of
    candidates chosen, and with a budget of d-1 at most d-2 are chosen
    in an expanded state.  So C candidates give at most the sum over
    j <= d-2 of C(C, j) expansions of at most C tests each: at C = 2^12
    (``cli.MAX_TSHAPE_CANDIDATES``) about 1.7e7 tests in dimension 3 and
    3.4e10 in dimension 4.  The cap bounds the search in dimension 3
    only.
    """
    budget = len(scaled[0]) - 1
    max_cover = max(on.bit_count() for _, _, on in candidates)
    everything = (1 << len(scaled)) - 1
    # (positive, negative) masks of each candidate, once it is tested
    sides: list[tuple[int, int] | None] = [None] * len(candidates)
    # the indices of the candidates through each point, once asked for
    through: list[list[int] | None] = [None] * len(scaled)
    dead: set[tuple[int, frozenset[tuple[int, ...]]]] = set()

    def extend(residual: int, chosen: list[tuple]) -> list[tuple] | None:
        if not residual:
            return chosen
        remaining = budget - len(chosen)
        if remaining <= 0 or residual.bit_count() > remaining * max_cover:
            return None
        normals = [c[0] for c in chosen]
        key = (residual, frozenset(normals))
        if key in dead:
            return None
        if remaining == 1:
            low = (residual & -residual).bit_length() - 1
            if through[low] is None:
                through[low] = [k for k, c in enumerate(candidates) if c[2] >> low & 1]
            for k in through[low]:
                cand = candidates[k]
                if not residual & ~cand[2] and _independent(normals, cand[0]):
                    return chosen + [cand]
            dead.add(key)
            return None
        for k, cand in enumerate(candidates):
            normal, offset, on = cand
            if not on & residual:
                continue
            if sides[k] is None:
                positive = 0
                for i, p in enumerate(scaled):
                    if not on >> i & 1 and sum(map(mul, normal, p)) > offset:
                        positive |= 1 << i
                sides[k] = positive, everything & ~(on | positive)
            positive, negative = sides[k]
            if positive & residual and negative & residual:
                continue
            if not _independent(normals, normal):
                continue
            got = extend(residual & ~on, chosen + [cand])
            if got is not None:
                return got
        dead.add(key)
        return None

    return extend(everything, [])


def moment_curve_points(n: int, count: int, params: Sequence) -> list[tuple]:
    """Points (t, t^2, ..., t^n) for the given parameters.

    Any n+1 of them are affinely independent, so no hyperplane holds
    more than n, which makes large samples hard to cover.  Each
    parameter is read as an exact rational: a float or a bool raises
    TypeError.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    values = [_exact(v) for v in params]
    if count != len(values):
        raise ValueError(f"count={count} but {len(values)} parameters given")
    if len(set(values)) != len(values):
        raise ValueError("parameters must be distinct")
    return [tuple(t**i for i in range(1, n + 1)) for t in values]


def certificate_to_json(cert: TShapeCertificate) -> dict:
    return {
        "hyperplanes": [hyperplane_to_json(h) for h in cert.hyperplanes],
        "assignment": [
            [point_to_json(p), index]
            for p, index in sorted(cert.assignment.items())
        ],
    }
