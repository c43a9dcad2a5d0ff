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
of their denominators, for the hull test and the search alike, and
candidates are primitive integer hyperplanes with the mask of their
incident points from the enumeration.  The points on each side of a
candidate are masked the first time the search asks for them.  Each
candidate is tested by cost: the cover and separation tests are mask
operations and run first, the exact rank test runs last, and at the
last level of the cover only the candidates through the residual's
lowest point are scanned, and only one that covers the whole residual
is tested for rank.  Only the hyperplanes of
a found cover become ``Hyperplane`` objects, and the certificate is
re-verified on the exact rational predicates (the sign ``side_of``
and ``separates``), which share nothing with the search's masks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .geometry import (
    Hyperplane,
    RationalPoint,
    _to_fraction,
    affine_hull_dim,
    as_point,
    clear_denominators,
    containing_hyperplane,
    hyperplane_to_json,
    in_general_position,
    matrix_rank,
    point_to_json,
    separates,
    side_of,
)

# The search enumerates its candidates through this name, so the traced
# benchmark run, which wraps tshape.spanned_hyperplanes, times the
# enumeration as the spanned-hyperplane layer (bench/tracing.py).
from .geometry import integer_spanned_hyperplanes as spanned_hyperplanes

KNOWN_T_VALUES = {1: 1, 2: 3, 3: 6, 4: 12}


@dataclass(frozen=True)
class TShapeCertificate:
    """A hyperplane cover witnessing T-shapedness.

    ``assignment`` sends each point to the index of the first
    hyperplane containing it.  Verification re-derives everything from
    the raw predicates: general position of the family, total coverage
    with first-index assignment, and for each hyperplane the absence of
    points strictly on both sides among those not covered earlier.
    """

    hyperplanes: tuple[Hyperplane, ...]
    assignment: dict[RationalPoint, int]

    def verify(self, points: Sequence[RationalPoint]) -> bool:
        pts = [as_point(p) for p in points]
        hps = list(self.hyperplanes)
        if not in_general_position(hps):
            return False
        firsts = []
        for p in pts:
            first = next((i for i, h in enumerate(hps) if side_of(h, p) == 0), None)
            if first is None or self.assignment.get(p) != first:
                return False
            firsts.append(first)
        for i, h in enumerate(hps):
            residual = [p for p, first in zip(pts, firsts) if first >= i]
            if separates(h, residual):
                return False
        return True


@dataclass(frozen=True)
class TShapeResult:
    t_shaped: bool
    certificate: TShapeCertificate | None
    detail: str


def is_t_shaped(points) -> TShapeResult:
    """Decide T-shapedness of a finite rational point set.

    Empty sets are T-shaped outright.  On the line nothing else is.  A
    set not spanning its ambient space fits on a single hyperplane and
    is T-shaped with that one-element cover.  Full-dimensional sets in
    ambient dimension d get an exhaustive search for a cover by at most
    d-1 spanned hyperplanes; every yes answer carries a certificate
    that has been re-verified before return.
    """
    distinct = list(dict.fromkeys(as_point(p) for p in points))
    if not distinct:
        return TShapeResult(
            True, TShapeCertificate((), {}), "empty set, trivially T-shaped"
        )
    dim = distinct[0].dim
    if dim == 0 or any(p.dim != dim for p in distinct):
        raise ValueError("points must share one ambient dimension of at least 1")
    if dim == 1:
        return TShapeResult(
            False, None, "a nonempty subset of the line is never T-shaped"
        )
    scale, scaled = clear_denominators(p.coords for p in distinct)
    h = containing_hyperplane(scaled, scale)
    if h is not None:
        cert = TShapeCertificate((h,), {p: 0 for p in distinct})
        if not cert.verify(distinct):
            raise RuntimeError("degenerate-hull certificate failed verification")
        return TShapeResult(
            True, cert, "one hyperplane carries the whole set"
        )
    cert = _search_cover(distinct, scaled, scale)
    if cert is None:
        return TShapeResult(
            False, None, "no certificate found under spanned-hyperplane search"
        )
    if not cert.verify(distinct):
        raise RuntimeError("search produced a certificate that fails verification")
    return TShapeResult(
        True, cert, f"covered by {len(cert.hyperplanes)} hyperplanes"
    )


def _search_cover(
    points: list[RationalPoint], scaled: list[list[int]], scale: int
) -> TShapeCertificate | None:
    """Exhaustive cover search over spanned hyperplanes, depth-first in
    canonical hyperplane order.

    ``scaled`` holds the points times ``scale``, the lcm of their
    denominators.  Each candidate is a primitive integer hyperplane
    ``n . x = off`` of the scaled points with the bitmask ``on`` of the
    points on it, as the enumeration returns it.  The points strictly on
    each side are kept as bitmasks too, computed from the signs of
    ``n . p - off`` the first time the candidate reaches the separation
    test; most candidates never do.  So the cover test and the
    separation test are mask operations.

    A candidate must cover at least one still-uncovered point (a cover
    with an idle hyperplane stays valid after dropping it, so this
    loses nothing), not separate the set of points its predecessors
    left uncovered, and keep the chosen normals linearly independent.
    The tests run in that order, cheapest first: the first two are mask
    operations, the rank test is an elimination.  Each test only skips
    a candidate, so the order changes neither which candidates are
    accepted nor the order they are tried in.  When one hyperplane is
    left in the budget, only a candidate that covers the whole residual
    can finish the cover: any other child would find points left and no
    budget, and return None before it reads or writes the memo.  So the
    last level scans only the candidates through the residual's lowest
    point, and runs no separation test, which a hyperplane holding the
    whole residual cannot fail.  Dead (residual, normal-set) states are
    memoized; a branch is also cut when the residual exceeds what the
    remaining budget can cover.
    """
    budget = len(scaled[0]) - 1
    candidates = spanned_hyperplanes(scaled)
    max_cover = max(on.bit_count() for _, _, on in candidates)
    everything = (1 << len(points)) - 1
    # (positive, negative) masks of each candidate, once it is tested
    sides: list[tuple[int, int] | None] = [None] * len(candidates)
    # the indices of the candidates through each point, once asked for
    through: list[list[int] | None] = [None] * len(points)
    dead: set[tuple[int, frozenset[tuple[int, ...]]]] = set()

    def independent(normals: list[tuple[int, ...]], normal: tuple[int, ...]) -> bool:
        return not normals or matrix_rank(normals + [normal]) == len(normals) + 1

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
                if not residual & ~cand[2] and independent(normals, cand[0]):
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
            if not independent(normals, normal):
                continue
            got = extend(residual & ~on, chosen + [cand])
            if got is not None:
                return got
        dead.add(key)
        return None

    cover = extend(everything, [])
    if cover is None:
        return None
    assignment = {
        p: next(i for i, c in enumerate(cover) if c[2] >> j & 1)
        for j, p in enumerate(points)
    }
    return TShapeCertificate(
        hyperplanes=tuple(
            Hyperplane(normal, Fraction(offset, scale)) for normal, offset, _ in cover
        ),
        assignment=assignment,
    )


def moment_curve_points(n: int, count: int, params: Sequence) -> list[RationalPoint]:
    """Points (t, t^2, ..., t^n) for the given parameters.

    Any n+1 of them are affinely independent, so no hyperplane holds
    more than n, which makes large samples hard to cover.  Each
    parameter is read as an exact rational: a float or a bool raises
    TypeError.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    values = [_to_fraction(v) for v in params]
    if count != len(values):
        raise ValueError(f"count={count} but {len(values)} parameters given")
    if len(set(values)) != len(values):
        raise ValueError("parameters must be distinct")
    return [RationalPoint(tuple(t**i for i in range(1, n + 1))) for t in values]


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def _random_configuration(
    rng: random.Random, dim: int, size: int
) -> list[RationalPoint]:
    """Random rational points; resampled until the hull is
    full-dimensional whenever the size allows it."""
    while True:
        pts = [
            RationalPoint(tuple(_random_rational(rng) for _ in range(dim)))
            for _ in range(size)
        ]
        if size <= dim or affine_hull_dim(pts) == dim:
            return pts


def verify_t_value_bounds(n: int, trials: int, seed: int) -> dict:
    """Sampled check of both sides of the known t values.

    Random sets one below the threshold must always come back T-shaped;
    the moment-curve set of size n^2 - n + 1 must not.  Counterexamples
    are listed verbatim in the report.
    """
    if n not in KNOWN_T_VALUES:
        raise ValueError("known t values cover dimensions 1 through 4 only")
    rng = random.Random(seed)
    size = KNOWN_T_VALUES[n] - 1
    failures: list[list[list[str]]] = []
    for _ in range(trials):
        pts = _random_configuration(rng, n, size)
        if not is_t_shaped(pts).t_shaped:
            failures.append([point_to_json(p) for p in pts])
    witness_size = n * n - n + 1
    witness_params = list(range(1, witness_size + 1))
    witness = moment_curve_points(n, witness_size, witness_params)
    witness_result = is_t_shaped(witness)
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "t_value": KNOWN_T_VALUES[n],
        "random_size": size,
        "random_failures": failures,
        "witness_size": witness_size,
        "witness_params": witness_params,
        "witness_t_shaped": witness_result.t_shaped,
        "ok": not failures and not witness_result.t_shaped,
    }


def certificate_to_json(cert: TShapeCertificate) -> dict:
    return {
        "hyperplanes": [hyperplane_to_json(h) for h in cert.hyperplanes],
        "assignment": [
            [point_to_json(p), index]
            for p, index in sorted(
                cert.assignment.items(), key=lambda kv: kv[0].coords
            )
        ],
    }
