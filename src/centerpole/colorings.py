"""Witness colorings over rational spaces.

The cone coloring splits punctured space into the cones over the
facets of a centered simplex.  The extension rules lift a coloring of
X to X x R from one level table: the level t of a point (x, t) is
rescaled, a pinned level (where an added symmetry center or a mirror
image lives) colors x by its own coloring of X, and every other level
takes the constant color of the open band between pinned levels that
holds it.  Every pinned coloring is written in X, with no translation.
Group-multiplicative mirror expressions are specialized to additive
notation throughout: the mirror of x through a is 2a - x.

Every rule is total and exact over rational inputs; the scan harness
samples far points and reports monochromatic symmetric pairs.  Points
enter through ``geometry.as_point`` and the scan radius through
``geometry._exact``; this module has no exactness test of its own.  Every
rule colors a point given as integers: numerators z and one common
denominator q > 0, the point z/q.  Each rule scales its own centers,
levels and matrices to integers once, so the scan draws, mirrors and
colors with no ``Fraction``; one is built only for a reported pair.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .geometry import (
    RationalPoint,
    _exact,
    as_point,
    clear_denominators,
    integer_inverse,
    point_to_json,
)


@dataclass(frozen=True)
class ColoringRule:
    """A total coloring of the points of dimension ``dim`` into colors
    {0..color_count-1}.

    Calling the rule reads its point through ``as_point``: a
    ``RationalPoint``, a ``LatticePoint``, or a tuple or list of exact
    rationals (a float or a bool raises TypeError), which must have the
    stated dimension; the call scales it by the lcm q of its
    denominators.  ``evaluate(z, q)`` is the trusted entry: it takes
    ``dim`` integer numerators z and a denominator q > 0 as given, the
    point z/q, and its color must not depend on which q represents the
    point.  Rules built from other rules, and the scan, call
    ``evaluate`` on values they have checked or built, so a point is
    checked once however deep the rules nest."""

    dim: int
    color_count: int
    evaluate: Callable[[Sequence[int], int], int]
    label: str = ""

    def __call__(self, point) -> int:
        p = as_point(point)
        if p.dim != self.dim:
            raise ValueError(f"point has dimension {p.dim}, rule expects {self.dim}")
        q, (z,) = clear_denominators([p.coords])
        return self.evaluate(z, q)


def standard_simplex(d: int) -> tuple[RationalPoint, ...]:
    """Unit vectors of R^d together with minus their sum."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rows = [tuple(int(i == axis) for i in range(d)) for axis in range(d)]
    return tuple(RationalPoint(row) for row in rows + [(-1,) * d])


def cone_coloring(vertices: Sequence) -> ColoringRule:
    """Color nonzero x by the first facet its positive ray meets.

    ``vertices`` are d+1 affinely independent points of R^d summing to
    zero, read through ``as_point``.  Fewer than two, a vertex of another
    dimension, a nonzero sum and a dependent set (a singular matrix to
    invert) raise ValueError, in that order.

    In barycentric coordinates relative to the simplex, the ray from
    the origin through x exits across facet i exactly when the i-th
    coordinate is minimal, so the color is the smallest index attaining
    the minimum; the origin itself gets color 0.  Antipodal points swap
    minimizers and maximizers of the barycentric vector, which cannot
    share an index, so no pair {x, -x} with x != 0 is monochromatic.

    The argmin runs on integers.  ``integer_inverse`` gives the inverse
    of the vertex matrix as integer rows over a denominator D > 0; for
    the point z/q, row i times (z, q) is D*q times the i-th barycentric
    coordinate.  As D*q > 0, the minimum and every tie sit at the same
    indices as in the rational vector, so the colors are exactly the
    rational ones.
    """
    verts = [as_point(v) for v in vertices]
    d = len(verts) - 1
    if d < 1:
        raise ValueError("a simplex needs at least two vertices")
    if any(v.dim != d for v in verts):
        raise ValueError(f"{len(verts)} vertices must live in dimension {d}")
    matrix = list(zip(*(v.coords for v in verts)))
    if any(map(sum, matrix)):
        raise ValueError("vertices must sum to zero")
    matrix.append((1,) * (d + 1))
    try:
        _, rows = integer_inverse(matrix)
    except ValueError:
        raise ValueError("vertices must be affinely independent") from None

    def evaluate(z: Sequence[int], q: int) -> int:
        if not any(z):
            return 0
        zq = (*z, q)
        bary = [sum(map(mul, row, zq)) for row in rows]
        return bary.index(min(bary))

    return ColoringRule(
        dim=d, color_count=d + 1, evaluate=evaluate, label=f"cone(d={d})"
    )


def halfspace_coloring(center) -> ColoringRule:
    """Two colors split by the sign of the first nonzero coordinate of
    x - center; the center itself gets 0.  No pair {x, 2c - x} with
    x != c is monochromatic.  With the center scaled once, B = D*c, the
    sign of z_i/q - c_i is that of z_i*D - q*B_i."""
    c = as_point(center)
    scale, (base,) = clear_denominators([c.coords])

    def evaluate(z: Sequence[int], q: int) -> int:
        for value, b in zip(z, base):
            diff = value * scale - q * b
            if diff:
                return 1 if diff > 0 else 0
        return 0

    return ColoringRule(
        dim=c.dim, color_count=2, evaluate=evaluate, label="halfspace"
    )


def pair_coloring(a, b) -> ColoringRule:
    """Two colors with no distant monochromatic pair symmetric about
    either a or b.

    Writing x = a + sigma*(b - a) + y with y orthogonal to b - a:
    fractional sigma alternates color with the parity of its floor,
    which flips under both mirrors; integral sigma with y != 0 falls
    back to the halfspace split of y, and y = 0 compares sigma against
    1 so that only x = a and x = b themselves collide.

    The rule runs on integers.  a and b are scaled once by the lcm L of
    their denominators, A = L*a and U = L*(b - a).  For the point
    x = z/q, w = L*z - q*A is q*L*(x - a), sigma = N / (q*U.U) with
    N = w.U, and q*L*y = w - sigma*q*U, whose signs are those of y.
    """
    pa = as_point(a)
    pb = as_point(b)
    if pa.dim != pb.dim:
        raise ValueError(f"dimension mismatch: {pa.dim} vs {pb.dim}")
    if pa == pb:
        raise ValueError("pair witness needs two distinct points")
    scale, (ai, bi) = clear_denominators([pa.coords, pb.coords])
    u = [q - p for p, q in zip(ai, bi)]
    uu = sum(map(mul, u, u))

    def evaluate(z: Sequence[int], q: int) -> int:
        w = [scale * v - q * p for v, p in zip(z, ai)]
        sigma, rest = divmod(sum(map(mul, w, u)), q * uu)
        if rest:
            return 1 if sigma % 2 == 0 else 0
        step = sigma * q
        for value, p in zip(w, u):
            y = value - step * p
            if y:
                return 1 if y > 0 else 0
        return 1 if sigma >= 1 else 0

    return ColoringRule(
        dim=pa.dim, color_count=2, evaluate=evaluate, label="pair"
    )


def _lift(
    base: ColoringRule,
    label: str,
    scale: int | Fraction,
    levels: dict,
    thresholds: tuple,
    band: tuple[int, ...],
) -> ColoringRule:
    """Lift ``base`` to X x R from one level table.

    A point (x, t) whose rescaled level s = scale*t is a key of
    ``levels`` takes that level's coloring of x; any other point takes
    the constant ``band[i]``, i the number of thresholds below s.
    Every threshold is a pinned level, so each band is an open interval.

    The table runs on integers.  Keys and thresholds are scaled once by
    the lcm M of their denominators, and M*scale = S/S' in lowest
    terms.  For the point (z, q), one divmod of z[-1]*S by q*S' gives
    M*s as a quotient and a remainder.  An exact quotient is looked up
    among the scaled keys; otherwise M*s lies strictly between the
    quotient and the next integer, so the thresholds below it are those
    at most the quotient.
    """
    unit = lcm(*(s.denominator for s in levels))
    table = {int(s * unit): level for s, level in levels.items()}
    cuts = tuple(int(s * unit) for s in thresholds)
    scale *= unit
    num, den = scale.numerator, scale.denominator

    def evaluate(z: Sequence[int], q: int) -> int:
        s, rest = divmod(z[-1] * num, q * den)
        if not rest:
            level = table.get(s)
            if level is not None:
                return level(z[:-1], q)
        return band[bisect_right(cuts, s)]

    return ColoringRule(
        dim=base.dim + 1, color_count=base.color_count, evaluate=evaluate, label=label
    )


def _mirror(center: Sequence[int], scale: int, z: Sequence[int], q: int) -> tuple:
    """The point 2c - z/q, c = center/scale, as numerators and denominator."""
    return [2 * c * q - scale * v for c, v in zip(center, z)], scale * q


def plus0_extension(base: ColoringRule) -> ColoringRule:
    """Lift to X x R.  The level table pins level 0 to the base
    coloring; the open half-spaces below and above take colors 0 and 1."""
    if base.color_count < 2:
        raise ValueError("base coloring must use at least 2 colors")
    return _lift(base, f"plus0[{base.label}]", 1, {0: base.evaluate}, (0,), (0, 1))


def plus1_extension(
    base: ColoringRule, aux2: ColoringRule | None = None
) -> ColoringRule:
    """Lift to X x R with one added center at (0, 1).

    The level table pins levels 0, 1, 2 to the base coloring, the
    two-coloring ``aux2`` that witnesses the origin of X, and the
    derived coloring chi2(x) = min({0,1} minus {base(-x)}); the bands
    take constants 2 (below 0), 1 (between 0 and 1) and 0 (above 1).
    The default ``aux2`` is the halfspace witness about the origin.
    """
    if base.color_count < 3:
        raise ValueError("base coloring must use at least 3 colors")
    if aux2 is None:
        aux2 = halfspace_coloring(RationalPoint((0,) * base.dim))
    if aux2.color_count != 2 or aux2.dim != base.dim:
        raise ValueError("aux2 must be a 2-coloring of the base space")
    chi0 = base.evaluate
    levels = {
        0: chi0,
        1: aux2.evaluate,
        2: lambda z, q: min({0, 1} - {chi0([-v for v in z], q)}),
    }
    return _lift(base, f"plus1[{base.label}]", 1, levels, (0, 1), (2, 1, 0))


def plus2_extension(
    base: ColoringRule, A: Sequence, auxes: dict | None = None
) -> ColoringRule:
    """Lift to X x R with two added centers at positive levels.

    The level pair (v, w) picks the case after the standard reductions:
    equal levels rescale to 1; unequal levels rescale so w - v = 1 and
    split on v = 1, v = 2, or generic v.  Each case is a level table
    of its finitely many pinned levels, each a coloring of X built
    from the base and witness colorings and the mirrors 2a - x and
    2b - x through the centers' base points a and b.  All four cases,
    v = 1 among them, are written in X itself, with no translation.
    Every other level takes the color of its band: 3 below level 0,
    then 0 up to v, 1 up to w, and 2 above w.  a and b are scaled once
    to integers, so every mirror is taken on integers.

    ``auxes`` may supply the two-colorings the construction consumes:
    key "pair" (both centers at one level) or keys "a" and "b" (one
    per center, in level order).  Defaults are the pair and halfspace
    witnesses.
    """
    if base.color_count < 4:
        raise ValueError("base coloring must use at least 4 colors")
    if len(A) != 2:
        raise ValueError("exactly two added points are required")
    pts = [as_point(p) for p in A]
    for p in pts:
        if p.dim != base.dim + 1:
            raise ValueError("added points must live in X x R")
        if p.coords[-1] <= 0:
            raise ValueError("added points must sit at positive levels")
    pts.sort(key=lambda p: p.coords[-1])
    if pts[0] == pts[1]:
        raise ValueError("added points must be distinct")
    a = pts[0].coords[:-1]
    b = pts[1].coords[:-1]
    level_a = pts[0].coords[-1]
    level_b = pts[1].coords[-1]
    unit, (ai, bi) = clear_denominators([a, b])
    mirror_a, mirror_b = partial(_mirror, ai, unit), partial(_mirror, bi, unit)
    auxes = auxes or {}
    chi0 = base.evaluate
    band = (3, 0, 1, 2)

    if level_a == level_b:
        scale, v, w = Fraction(1, level_a), 1, 1
        pair = auxes.get("pair") or pair_coloring(a, b)
        if pair.color_count != 2 or pair.dim != base.dim:
            raise ValueError("pair witness must be a 2-coloring of X")
        levels = {
            0: chi0,
            1: pair.evaluate,
            2: lambda z, q: min({0, 1, 2} - {chi0(*mirror_a(z, q)), chi0(*mirror_b(z, q))}),
        }
        case = "levels-equal"
    else:
        scale = Fraction(1, level_b - level_a)
        v = level_a * scale
        w = v + 1
        aux_a = auxes.get("a") or halfspace_coloring(a)
        aux_b = auxes.get("b") or halfspace_coloring(b)
        for aux in (aux_a, aux_b):
            if aux.color_count != 2 or aux.dim != base.dim:
                raise ValueError("center witnesses must be 2-colorings of X")
        if v == 1:
            # 2(a - b) + x, scaled like the mirrors
            step = [2 * (p - r) for p, r in zip(ai, bi)]

            def chi2(z: Sequence[int], q: int) -> int:
                behind = chi0(*mirror_a(z, q))
                ahead = chi0([t * q + unit * r for t, r in zip(step, z)], unit * q)
                fx, fnx = aux_b.evaluate(z, q), aux_b.evaluate(*mirror_b(z, q))
                if fx == fnx:
                    return min({0, 1, 2} - {ahead, behind})
                if behind != fx:
                    return fx
                if fnx != ahead:
                    return min({0, 1, 2} - {fnx, behind})
                return fnx

            levels = {
                0: chi0,
                1: aux_a.evaluate,
                2: chi2,
                3: lambda z, q: 1 - aux_a.evaluate(*mirror_b(z, q)),
                4: lambda z, q: min({0, 1} - {chi0(*mirror_b(z, q))}),
            }
            case = "v=1,w=2"
        elif v == 2:
            levels = {
                0: chi0,
                1: lambda z, q: 1 - aux_b.evaluate(*mirror_a(z, q)),
                2: aux_a.evaluate,
                3: aux_b.evaluate,
                4: lambda z, q: min(
                    {0, 1, 2} - {chi0(*mirror_a(z, q)), aux_a.evaluate(*mirror_b(z, q))}
                ),
                6: lambda z, q: min({0, 1} - {chi0(*mirror_b(z, q))}),
            }
            case = "v=2,w=3"
        else:
            band_at_two = band[bisect_left((0, v, w), 2)]
            levels = {
                0: chi0,
                v: aux_a.evaluate,
                w: lambda z, q: 1 + aux_b.evaluate(z, q),
                2 * v: lambda z, q: min({0, 1, 2} - {chi0(*mirror_a(z, q)), band_at_two}),
                2 * w: lambda z, q: min({0, 1} - {chi0(*mirror_b(z, q))}),
            }
            case = "generic-v"

    return _lift(
        base, f"plus2[{base.label};{case}]", scale, levels, (0, v, w), band
    )


# Each sampled coordinate is n/d with |n| <= SCAN_NUMERATOR_BOUND and
# 1 <= d <= SCAN_MAX_DENOMINATOR; half the coordinates have d = 1.
SCAN_NUMERATOR_BOUND = 100
SCAN_MAX_DENOMINATOR = 10


def _point_json(z: Sequence[int], q: int) -> list[str]:
    return [str(Fraction(v, q)) for v in z]


def symmetric_pair_scan(
    rule: ColoringRule,
    centers: Sequence,
    inner_radius,
    samples: int,
    seed: int,
) -> dict:
    """Sample points far from every center and hunt monochromatic
    symmetric pairs.

    Each sampled x satisfies the max-norm bound against every center;
    for each center c the mirror 2c - x sits at the same distance from
    c, so a shared color is a genuine far violation, reported verbatim.
    Half the sampled coordinates are integers so that exact level sets
    of the extension rules are exercised.

    The scan runs on integers.  The centers and the radius are scaled
    once by the lcm D of their denominators, C = D*c and R = D*r, and
    each sampled coordinate is a pair (n, d).  The far test
    |n/d - c| > r is |n*D - C*d| > R*d.  x reaches the rule as (z, q),
    q the lcm of the d and z = n*(q/d), and the mirror 2c - x as
    (2*C*q - D*z, D*q).  A ``Fraction`` is built only to print a
    violation.  The radius is read through ``_exact``, so a float or a
    bool raises TypeError.  A negative radius, under which a center
    counts as far and is its own mirror, raises ValueError, and so does
    a radius that no sample can clear, as |x - c| <= SCAN_NUMERATOR_BOUND
    + |c| in the max norm.  Both are refused before anything is drawn.

    The draws are those of ``randint(-B, B)``, then ``random()``, then,
    when it is at least 1/2, ``randint(1, M)`` for each coordinate in
    turn, B = SCAN_NUMERATOR_BOUND and M = SCAN_MAX_DENOMINATOR, taken
    from ``getrandbits`` and ``random()`` only.  ``Random.randint(a, b)``
    is ``a`` plus ``getrandbits(k)``, k the bit length of b - a + 1,
    drawn again while it exceeds b - a; the scan does that rejection
    inline, so a seed gives the same points, and the same report, as
    those calls.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    cpts = [as_point(p) for p in centers]
    for c in cpts:
        if c.dim != rule.dim:
            raise ValueError("centers must match the rule's dimension")
    radius = _exact(inner_radius)
    if radius < 0:
        raise ValueError(f"inner radius must be non-negative, got {radius}")
    scale, ((bound,), *scaled) = clear_denominators(
        [(radius,)] + [c.coords for c in cpts]
    )
    low = SCAN_NUMERATOR_BOUND
    top = SCAN_MAX_DENOMINATOR
    for c in scaled:
        if bound >= low * scale + max(map(abs, c), default=0):
            raise ValueError("inner radius leaves no room to sample")
    span = 2 * low + 1
    span_bits = span.bit_length()
    top_bits = top.bit_length()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    coin = rng.random
    evaluate = rule.evaluate
    coordinates = range(rule.dim)
    doubled = [[2 * w for w in c] for c in scaled]
    violations: list[dict] = []
    for _ in range(samples):
        for _attempt in range(10_000):
            ns = []
            ds = []
            for _ in coordinates:
                # randint(-low, low), then randint(1, top) for half of them
                n = getrandbits(span_bits)
                while n >= span:
                    n = getrandbits(span_bits)
                ns.append(n - low)
                if coin() < 0.5:
                    ds.append(1)
                else:
                    d = getrandbits(top_bits)
                    while d >= top:
                        d = getrandbits(top_bits)
                    ds.append(d + 1)
            for c in scaled:
                for n, d, w in zip(ns, ds, c):
                    if abs(n * scale - w * d) > bound * d:
                        break
                else:
                    break  # x is within the radius of c: draw again
            else:
                break  # x is far from every center
        else:
            raise ValueError("inner radius leaves no room to sample")
        q = lcm(*ds)
        z = [n * (q // d) for n, d in zip(ns, ds)]
        color = evaluate(z, q)
        mirror_q = scale * q
        for twice in doubled:
            mirrored = [t * q - scale * v for t, v in zip(twice, z)]
            if evaluate(mirrored, mirror_q) == color:
                violations.append(
                    {
                        "x": _point_json(z, q),
                        "mirror": _point_json(mirrored, mirror_q),
                        "color": color,
                    }
                )
    return {
        "rule": rule.label,
        "centers": [point_to_json(c) for c in cpts],
        "innerRadius": str(radius),
        "samples": samples,
        "violations": violations,
    }
