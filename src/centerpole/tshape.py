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

The search runs on integers: the points are scaled once by the lcm of
their denominators, candidates are primitive integer hyperplanes, and
every incidence and side test is a sign of a stored integer.  Only the
hyperplanes of a found cover become ``Hyperplane`` objects, and the
certificate is re-verified on the exact rational predicates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .geometry import (
    HalfspaceSide,
    Hyperplane,
    RationalPoint,
    affine_hull_dim,
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


def _as_point(x) -> RationalPoint:
    return x if isinstance(x, RationalPoint) else RationalPoint(tuple(x))


def is_in_Tn(x, n: int) -> bool:
    """Exact membership in the tree set T_n inside R^n.

    T_1 is the origin of the line; T_n is the union of the floor
    R^(n-1) x {0} with the product T_(n-1) x R_+ above it.
    """
    p = _as_point(x)
    if n < 1:
        raise ValueError("T_n membership needs n >= 1")
    if p.dim != n:
        raise ValueError(f"point has dimension {p.dim}, expected {n}")
    return _in_tn(p.coords, n)


def _in_tn(coords: tuple[Fraction, ...], n: int) -> bool:
    if n == 1:
        return coords[0] == 0
    last = coords[-1]
    if last == 0:
        return True
    if last > 0:
        return _in_tn(coords[:-1], n - 1)
    return False


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
        pts = [_as_point(p) for p in points]
        hps = list(self.hyperplanes)
        if not in_general_position(hps):
            return False
        for p in pts:
            first = next(
                (
                    i
                    for i, h in enumerate(hps)
                    if side_of(h, p) is HalfspaceSide.ON
                ),
                None,
            )
            if first is None or self.assignment.get(p) != first:
                return False
        for i, h in enumerate(hps):
            residual = [p for p in pts if self.assignment[p] >= i]
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
    pts = [_as_point(p) for p in points]
    distinct: list[RationalPoint] = []
    seen: set[RationalPoint] = set()
    for p in pts:
        if p not in seen:
            seen.add(p)
            distinct.append(p)
    if not distinct:
        return TShapeResult(
            True, TShapeCertificate((), {}), "empty set, trivially T-shaped"
        )
    dim = distinct[0].dim
    for p in distinct[1:]:
        if p.dim != dim:
            raise ValueError("points must share one ambient dimension")
    if dim == 1:
        return TShapeResult(
            False, None, "a nonempty subset of the line is never T-shaped"
        )
    if affine_hull_dim(distinct) < dim:
        h = containing_hyperplane(distinct)
        cert = TShapeCertificate((h,), {p: 0 for p in distinct})
        if not cert.verify(distinct):
            raise RuntimeError("degenerate-hull certificate failed verification")
        return TShapeResult(
            True, cert, "one hyperplane carries the whole set"
        )
    scale, scaled = clear_denominators(p.coords for p in distinct)
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
    ``n . x = off`` of the scaled points; ``n . p - off`` is computed
    once per (candidate, point), and its signs are kept as bitmasks of
    point indices.  So the cover test and the separation test are mask
    operations.

    A candidate must cover at least one still-uncovered point (a cover
    with an idle hyperplane stays valid after dropping it, so this
    loses nothing), keep the chosen normals linearly independent, and
    not separate the set of points its predecessors left uncovered.
    Dead (residual, normal-set) states are memoized; a branch is also
    cut when the residual exceeds what the remaining budget can cover.
    """
    budget = len(scaled[0]) - 1
    # (normal, offset, on, positive, negative): the last three are masks
    candidates: list[tuple[tuple[int, ...], int, int, int, int]] = []
    for normal, offset in spanned_hyperplanes(scaled):
        on = positive = negative = 0
        for i, p in enumerate(scaled):
            value = sum(map(mul, normal, p)) - offset
            if value > 0:
                positive |= 1 << i
            elif value < 0:
                negative |= 1 << i
            else:
                on |= 1 << i
        candidates.append((normal, offset, on, positive, negative))
    max_cover = max(c[2].bit_count() for c in candidates)
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
        for cand in candidates:
            normal, _, on, positive, negative = cand
            if not on & residual:
                continue
            if chosen and matrix_rank(normals + [normal]) != len(normals) + 1:
                continue
            if positive & residual and negative & residual:
                continue
            got = extend(residual & ~on, chosen + [cand])
            if got is not None:
                return got
        dead.add(key)
        return None

    cover = extend((1 << len(points)) - 1, [])
    if cover is None:
        return None
    assignment = {
        p: next(i for i, c in enumerate(cover) if c[2] >> j & 1)
        for j, p in enumerate(points)
    }
    return TShapeCertificate(
        hyperplanes=tuple(
            Hyperplane(normal, Fraction(offset, scale)) for normal, offset, *_ in cover
        ),
        assignment=assignment,
    )


def moment_curve_points(n: int, count: int, params: Sequence) -> list[RationalPoint]:
    """Points (t, t^2, ..., t^n) for the given parameters.

    Any n+1 of them are affinely independent, so no hyperplane holds
    more than n, which makes large samples hard to cover.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    values = [v if isinstance(v, Fraction) else Fraction(v) for v in params]
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
