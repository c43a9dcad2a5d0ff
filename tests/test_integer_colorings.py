"""The integer colorings and scan against the rational ones they replaced.

Every rule colors the integer point (z, q), the point z/q:
``cone_coloring`` takes its argmin over the inverse scaled by the lcm
of its denominators, ``pair_coloring`` takes its floor and signs over
its scaled centers, ``halfspace_coloring`` compares against its scaled
center, and ``symmetric_pair_scan`` draws, compares and mirrors over
the common denominator of its centers and radius.  The code below is
the earlier ``Fraction`` implementation, kept here only as a reference
and turned into (z, q) rules by ``fraction_rule``: barycentric
coordinates as sums of ``Fraction`` products, a pair rule that projects
with ``Fraction`` dot products, a halfspace rule on ``Fraction``
centers, and a scan that draws, compares and mirrors ``Fraction``
coordinates and colors them through the checked entry.  Every color
must be equal to it, and every scan report must serialize to the same
bytes, violations included.  The reference scan draws with ``randint``
and ``random``, so these reports also pin the scan's draw stream.  Every rule kind must also give one color
to every (z, q) that represents one point.
"""
import json
import random
from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centerpole import colorings
from centerpole.colorings import (
    ColoringRule,
    cone_coloring,
    halfspace_coloring,
    pair_coloring,
    plus0_extension,
    plus1_extension,
    plus2_extension,
    standard_simplex,
    symmetric_pair_scan,
)
from centerpole.geometry import (
    RationalPoint,
    affine_hull_dim,
    matrix_inverse,
    point_to_json,
)
from rational_reference import dot, fraction_rule, minus, scaled

F = Fraction

# --- the rational reference --------------------------------------------


def ref_barycentric(simplex, point):
    d = len(simplex) - 1
    matrix = [[v.coords[r] for v in simplex] for r in range(d)]
    matrix.append([Fraction(1)] * (d + 1))
    inverse = matrix_inverse(matrix)
    rhs = tuple(Fraction(v) for v in point) + (Fraction(1),)
    return [
        sum(inverse[i][j] * rhs[j] for j in range(d + 1)) for i in range(d + 1)
    ]


def ref_cone_color(simplex, point):
    if all(v == 0 for v in point):
        return 0
    bary = ref_barycentric(simplex, point)
    low = min(bary)
    return next(i for i, v in enumerate(bary) if v == low)


def ref_cone_coloring(simplex):
    d = len(simplex) - 1
    return fraction_rule(
        d,
        d + 1,
        lambda point: ref_cone_color(simplex, point),
        f"cone(d={d})",
    )


def ref_pair_coloring(a, b):
    pa = RationalPoint(tuple(a))
    u = minus(b, pa.coords)
    uu = dot(u, u)

    def evaluate(point):
        diff = minus(point, pa.coords)
        sigma = dot(diff, u) / uu
        if sigma.denominator != 1:
            return 1 if floor(sigma) % 2 == 0 else 0
        y = tuple(v - sigma * w for v, w in zip(diff, u))
        for value in y:
            if value != 0:
                return 1 if value > 0 else 0
        return 1 if sigma >= 1 else 0

    return fraction_rule(pa.dim, 2, evaluate, "pair")


def ref_halfspace_coloring(center):
    c = RationalPoint(tuple(center))

    def evaluate(point):
        for value, base in zip(point, c.coords):
            if value != base:
                return 1 if value > base else 0
        return 0

    return fraction_rule(c.dim, 2, evaluate, "halfspace")


def ref_scan_coordinate(rng):
    numerator = rng.randint(-100, 100)
    if rng.random() < 0.5:
        return Fraction(numerator)
    return Fraction(numerator, rng.randint(1, 10))


def ref_scan(rule, centers, inner_radius, samples, seed):
    cpts = [RationalPoint(tuple(p)) for p in centers]
    radius = Fraction(inner_radius)
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        for _attempt in range(10_000):
            x = tuple(ref_scan_coordinate(rng) for _ in range(rule.dim))
            if all(
                max(abs(v - c.coords[i]) for i, v in enumerate(x)) > radius for c in cpts
            ):
                break
        else:
            raise ValueError("inner radius leaves no room to sample")
        color = rule(x)
        for c in cpts:
            mirrored = tuple(2 * c.coords[i] - v for i, v in enumerate(x))
            if rule(mirrored) == color:
                violations.append(
                    {
                        "x": point_to_json(RationalPoint(x)),
                        "mirror": point_to_json(RationalPoint(mirrored)),
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


# --- inputs --------------------------------------------------------------


def rationals(bound, max_denominator=12):
    return st.builds(
        Fraction, st.integers(-bound, bound), st.integers(1, max_denominator)
    )


def _mixed(values):
    """Integral values as ints, the rest as Fractions, as a caller may
    pass them to the checked entry."""
    return tuple(v.numerator if v.denominator == 1 else v for v in values)


@st.composite
def simplices(draw, dim):
    if draw(st.booleans()):
        return standard_simplex(dim)
    rows = [tuple(draw(rationals(6)) for _ in range(dim)) for _ in range(dim)]
    last = tuple(-sum(column) for column in zip(*rows))
    simplex = tuple(RationalPoint(v) for v in rows + [last])
    assume(affine_hull_dim(simplex) == dim)
    return simplex


@st.composite
def simplex_and_point(draw):
    """A simplex of dim 1-4 and a point, half the time a general rational
    point and half the time a point whose barycentric weights repeat,
    so that it sits on a boundary between cones."""
    dim = draw(st.integers(1, 4))
    simplex = draw(simplices(dim))
    if draw(st.booleans()):
        point = tuple(draw(rationals(30)) for _ in range(dim))
    else:
        # x = t * sum(mu_i v_i); since the vertices sum to zero, the
        # barycentric coordinates are mu shifted by a constant, so equal
        # weights are ties
        mu = [draw(st.integers(-2, 2)) for _ in range(dim + 1)]
        t = draw(rationals(5).filter(lambda v: v != 0))
        point = tuple(
            t * sum(m * v.coords[r] for m, v in zip(mu, simplex)) for r in range(dim)
        )
    if draw(st.booleans()):
        point = _mixed(point)
    return simplex, point


@st.composite
def pair_and_point(draw):
    """Two distinct points a, b of dim 1-4 and a point x.  Half the time
    x is a general rational point; otherwise it is a + sigma*(b - a) + y
    with sigma integral or half-integral and y orthogonal to b - a, zero
    half the time, so that the integral-sigma and y = 0 branches run."""
    dim = draw(st.integers(1, 4))
    a = tuple(draw(rationals(6)) for _ in range(dim))
    b = tuple(draw(rationals(6)) for _ in range(dim))
    assume(a != b)
    if draw(st.booleans()):
        point = tuple(draw(rationals(30)) for _ in range(dim))
    else:
        u = [q - p for p, q in zip(a, b)]
        sigma = F(draw(st.integers(-8, 8)), draw(st.sampled_from([1, 2])))
        y = [F(0)] * dim
        if dim > 1 and draw(st.booleans()):
            # u_j e_i - u_i e_j is orthogonal to u and nonzero when u_j is
            j = next(k for k, v in enumerate(u) if v)
            i = draw(st.integers(0, dim - 1).filter(lambda k: k != j))
            t = draw(rationals(5).filter(lambda v: v != 0))
            y[i], y[j] = t * u[j], -t * u[i]
        point = tuple(p + sigma * v + e for p, v, e in zip(a, u, y))
    if draw(st.booleans()):
        point = _mixed(point)
    return a, b, point


FRACTIONAL_SIMPLICES = [
    tuple(
        RationalPoint(v)
        for v in ((F(1, 2), F(1, 3)), (F(-3, 4), F(2, 5)), (F(1, 4), F(-11, 15)))
    ),
    tuple(
        RationalPoint(v)
        for v in (
            (F(2, 3), 0, F(1, 5)),
            (0, F(-1, 2), F(3, 7)),
            (F(-5, 6), F(1, 4), 0),
            (F(1, 6), F(1, 4), F(-22, 35)),
        )
    ),
]


# --- the checks ----------------------------------------------------------


class TestConeColors:
    @settings(max_examples=400, deadline=None)
    @given(simplex_and_point())
    def test_same_color_as_the_rational_argmin(self, case):
        simplex, point = case
        rule = cone_coloring(simplex)
        expected = ref_cone_color(simplex, point)
        assert rule.evaluate(*scaled(point)) == expected
        assert rule(RationalPoint(point)) == expected

    def test_every_tie_on_a_small_grid_of_boundary_points(self):
        # all weight vectors mu in {-1, 0, 1}^(d+1), scaled by integral
        # and fractional factors: most of these points have a tied minimum
        given = [standard_simplex(d) for d in (1, 2, 3)] + FRACTIONAL_SIMPLICES
        tied = 0
        for simplex in given:
            rule = cone_coloring(simplex)
            d = len(simplex) - 1
            for mu in product((-1, 0, 1), repeat=d + 1):
                for t in (F(1), F(3), F(1, 3), F(-7, 2)):
                    x = tuple(
                        t * sum(m * v.coords[r] for m, v in zip(mu, simplex))
                        for r in range(d)
                    )
                    if any(x):
                        bary = ref_barycentric(simplex, x)
                        tied += bary.count(min(bary)) > 1
                    assert rule.evaluate(*scaled(x)) == ref_cone_color(simplex, x), (
                        simplex,
                        x,
                    )
        assert tied > 100

    def test_points_with_unequal_denominators(self):
        # q is the lcm of the denominators, not any one of them
        for simplex in [standard_simplex(3), FRACTIONAL_SIMPLICES[1]]:
            rule = cone_coloring(simplex)
            for x in product((F(-1, 2), F(1, 3), F(2, 5), 0, 4), repeat=3):
                assert rule.evaluate(*scaled(x)) == ref_cone_color(simplex, x), x


class TestPairColors:
    @settings(max_examples=400, deadline=None)
    @given(pair_and_point())
    def test_same_color_as_the_rational_projection(self, case):
        a, b, point = case
        rule = pair_coloring(a, b)
        expected = ref_pair_coloring(a, b)(tuple(map(F, point)))
        assert rule.evaluate(*scaled(point)) == expected
        assert rule(RationalPoint(point)) == expected

    def test_every_branch_on_a_grid_about_fractional_centers(self):
        # sigma in steps of 1/2 along b - a, offsets along an orthogonal
        # vector: fractional sigma, integral sigma off the line, and the
        # line itself on both sides of 1
        cases = [
            ((F(1, 2), F(-1, 3)), (F(5, 2), F(2, 3)), (1, -2)),
            ((F(1, 3), 0, F(-3, 4)), (F(-2, 3), F(1, 2), 2), (1, 2, 0)),
        ]
        seen = set()
        for a, b, y in cases:
            rule, ref = pair_coloring(a, b), ref_pair_coloring(a, b)
            u = [q - p for p, q in zip(a, b)]
            assert sum(p * q for p, q in zip(u, y)) == 0
            for sigma in (F(n, 2) for n in range(-6, 7)):
                for t in (0, 1, F(-2, 3)):
                    x = tuple(p + sigma * v + t * e for p, v, e in zip(a, u, y))
                    assert rule.evaluate(*scaled(x)) == ref(x), (a, b, x)
                    seen.add((sigma.denominator, t == 0, sigma >= 1))
        assert {(1, True, False), (1, True, True), (1, False, True), (2, True, False)} <= seen


def _scan_workload_rules():
    """The rules and centers of the coloring_scan benchmark workload, each
    with a reference rule on the ``Fraction`` cone, halfspace and pair."""
    cone = {d: cone_coloring(standard_simplex(d)) for d in (1, 2, 3, 4)}
    ref_cone = {d: ref_cone_coloring(standard_simplex(d)) for d in (1, 2, 3, 4)}
    rules = {f"cone-{d}": (cone[d], ref_cone[d], [(0,) * d]) for d in cone}
    rules["halfspace"] = (
        halfspace_coloring((1, 2)), ref_halfspace_coloring((1, 2)), [(1, 2)]
    )
    pair_centers = [(0, 0), (2, 0)]
    rules["pair"] = (
        pair_coloring(*pair_centers), ref_pair_coloring(*pair_centers), pair_centers
    )
    rules["plus0"] = (plus0_extension(cone[2]), plus0_extension(ref_cone[2]), [(0, 0, 0)])
    rules["plus1"] = (
        plus1_extension(cone[2], halfspace_coloring((0, 0))),
        plus1_extension(ref_cone[2], ref_halfspace_coloring((0, 0))),
        [(0, 0, 0), (0, 0, 1)],
    )
    for v, w in ((1, 1), (1, 2), (2, 3), (3, 4)):
        added = [(1, 0, 0, v), (0, 1, 0, w)]
        a, b = added[0][:-1], added[1][:-1]
        if v == w:
            auxes = {"pair": ref_pair_coloring(a, b)}
        else:
            auxes = {"a": ref_halfspace_coloring(a), "b": ref_halfspace_coloring(b)}
        rules[f"plus2-{v}-{w}"] = (
            plus2_extension(cone[3], added),
            plus2_extension(ref_cone[3], added, auxes),
            [(0, 0, 0, 0)] + added,
        )
    return rules


SCAN_WORKLOAD_RULES = _scan_workload_rules()


class TestScanReports:
    def _assert_same_bytes(self, rule, ref_rule, centers, radius, samples, seed):
        new = symmetric_pair_scan(rule, centers, radius, samples, seed)
        old = ref_scan(ref_rule, centers, radius, samples, seed)
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
        return new

    def test_a_broken_rule_with_fractional_centers(self):
        constant = ColoringRule(dim=3, color_count=2, evaluate=lambda z, q: 1)
        centers = [(F(1, 2), 0, F(-7, 3)), (2, -1, 0)]
        for seed in range(3):
            report = self._assert_same_bytes(
                constant, constant, centers, F(5, 2), 200, seed
            )
            assert len(report["violations"]) == 400
            assert report["innerRadius"] == "5/2"

    def test_cone_scans_about_centers_off_the_origin(self):
        # off the origin the cone coloring has monochromatic mirror pairs,
        # so the violations compare colors as well as points
        cases = [
            (standard_simplex(2), [(3, -1)], 0),
            (standard_simplex(3), [(F(40, 3), F(-25, 2), 30)], F(7, 3)),
            (FRACTIONAL_SIMPLICES[0], [(0, 0), (F(5, 4), -2)], 1),
            (standard_simplex(4), [(0, 0, 0, 0)], F(1, 2)),
        ]
        for seed, (spec, centers, radius) in enumerate(cases):
            report = self._assert_same_bytes(
                cone_coloring(spec), ref_cone_coloring(spec), centers, radius, 400, seed
            )
            assert report["violations"] or centers == [(0, 0, 0, 0)]

    def test_a_lifted_rule_on_the_rational_cone(self):
        added = [(1, 0, 0, 1), (0, 1, 0, 2)]
        centers = [(0, 0, 0, 0)] + added + [(F(1, 2), 0, 1, F(3, 2))]
        self._assert_same_bytes(
            plus2_extension(cone_coloring(standard_simplex(3)), added),
            plus2_extension(ref_cone_coloring(standard_simplex(3)), added),
            centers,
            0,
            300,
            12,
        )

    def test_a_pair_rule_about_fractional_centers(self):
        a, b = (F(1, 2), F(-1, 3)), (F(5, 2), F(2, 3))
        for seed, (centers, radius) in enumerate(
            [([a, b], F(1, 2)), ([a, b, (F(7, 3), F(-5, 4))], F(5, 3))]
        ):
            report = self._assert_same_bytes(
                pair_coloring(a, b), ref_pair_coloring(a, b), centers, radius, 300, seed
            )
            assert report["violations"] or len(centers) == 2

    def test_a_plus2_rule_with_a_fractional_scale(self):
        # levels 3/2 and 9/2: the scale is 1/3 and v = 1/2, the generic case;
        # levels 2 and 4: the scale is 1/2 and v = 1
        for seed, levels in enumerate([(F(3, 2), F(9, 2)), (2, 4)]):
            added = [(F(1, 2), 0, 0, levels[0]), (0, F(-1, 3), 1, levels[1])]
            a, b = added[0][:-1], added[1][:-1]
            auxes = {"a": ref_halfspace_coloring(a), "b": ref_halfspace_coloring(b)}
            # the first center is none of the rule's, so colors are compared
            centers = [(F(1, 4), 0, 0, F(5, 2))] + added
            report = self._assert_same_bytes(
                plus2_extension(cone_coloring(standard_simplex(3)), added),
                plus2_extension(ref_cone_coloring(standard_simplex(3)), added, auxes),
                centers,
                F(3, 4),
                300,
                20 + seed,
            )
            assert report["violations"]

    def test_a_radius_that_leaves_only_the_ends_of_the_sampling_range(self):
        # |x - 1/2| > 197/2 holds for x < -98 or x > 99 only; x = -98 and
        # x = 99 sit on the bound and must be redrawn
        constant = ColoringRule(dim=1, color_count=2, evaluate=lambda z, q: 0)
        report = self._assert_same_bytes(
            constant, constant, [(F(1, 2),)], F(197, 2), 60, 4
        )
        assert {v["x"][0] for v in report["violations"]} >= {"-100", "100"}

    def test_the_draws_are_the_randint_stream(self):
        # with no center every draw is a sample, and in dimension 1 the
        # rule sees each coordinate as it was drawn: (z, q) = (n, d)
        for seed in range(50):
            drawn = []
            record = ColoringRule(
                dim=1, color_count=1, evaluate=lambda z, q: drawn.append((*z, q)) or 0
            )
            symmetric_pair_scan(record, [], 0, 200, seed)
            rng = random.Random(seed)
            expected = []
            for _ in range(200):
                numerator = rng.randint(-100, 100)
                if rng.random() < 0.5:
                    expected.append((numerator, 1))
                else:
                    expected.append((numerator, rng.randint(1, 10)))
            assert drawn == expected, seed

    @pytest.mark.parametrize("kind", sorted(SCAN_WORKLOAD_RULES))
    def test_every_rule_kind_of_the_scan_workload(self, kind):
        # the workload's centers, where the rule has no violation, and one
        # more center off them, where it has some, so the reports compare
        # sampled points and colors and not only the counts
        rule, ref_rule, centers = SCAN_WORKLOAD_RULES[kind]
        off = (F(45, 2), -30, 10, 5)[: rule.dim]
        for seed, radius in enumerate([0, 2, F(7, 3)]):
            report = self._assert_same_bytes(
                rule, ref_rule, centers + [off], radius, 150, 30 + seed
            )
            assert report["violations"], (kind, seed)

    def test_a_fractional_radius_with_violations(self):
        spec = standard_simplex(3)
        centers = [(0, 0, 0), (F(45, 2), F(-91, 3), 10)]
        report = self._assert_same_bytes(
            cone_coloring(spec), ref_cone_coloring(spec), centers, F(41, 6), 400, 7
        )
        assert report["violations"]
        assert report["innerRadius"] == "41/6"


class TestScanRadius:
    """A sampled coordinate is n/d with |n| <= 100, so |x - c| is at most
    100 + |c| in the max norm: a radius at least that about any center is
    refused before anything is drawn."""

    @staticmethod
    def _no_draws(monkeypatch):
        def refuse(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(colorings.random, "Random", refuse)

    def test_radius_one_hundred_about_the_origin_is_refused(self, monkeypatch):
        self._no_draws(monkeypatch)
        for dim in (1, 3):
            rule = cone_coloring(standard_simplex(dim))
            with pytest.raises(ValueError, match="leaves no room to sample"):
                symmetric_pair_scan(rule, [(0,) * dim], 100, 1, 0)

    def test_radius_ninety_nine_about_the_origin_still_scans(self):
        constant = ColoringRule(dim=1, color_count=1, evaluate=lambda z, q: 0)
        report = symmetric_pair_scan(constant, [(0,)], 99, 30, 5)
        assert {v["x"][0] for v in report["violations"]} == {"-100", "100"}
        assert len(report["violations"]) == 30

    def test_a_fractional_center_at_the_bound_is_refused(self, monkeypatch):
        rule = cone_coloring(standard_simplex(2))
        # the bound of (-7/3, 1/2) is 307/3; that of (-9/2, 0) is 209/2
        centers = [(F(-7, 3), F(1, 2)), (F(-9, 2), 0)]
        constant = ColoringRule(dim=2, color_count=1, evaluate=lambda z, q: 0)
        report = symmetric_pair_scan(constant, centers, 102, 5, 1)
        assert [v["x"][0] for v in report["violations"]] == ["100"] * 10
        self._no_draws(monkeypatch)
        # one center at its bound is enough, the other one in range or not
        for centers in (centers, centers[:1], [(F(1, 2),) * 2]):
            radius = 100 + max(abs(v) for v in centers[0])
            with pytest.raises(ValueError, match="leaves no room to sample"):
                symmetric_pair_scan(rule, centers, radius, 5, 1)


def _plus2_case(levels, a=(1, 0, 0), b=(0, 1, 0)):
    """plus2 over the 3D cone with centers a and b at ``levels``, every
    level it pins (0, 1, 2, 3, 4, 6, v, w, 2v and 2w rescaled) and a
    band level on each side of each."""
    low, high = (F(t) for t in levels)
    unit = low if low == high else high - low
    v = low / unit
    pinned = [t * unit for t in (0, 1, 2, 3, 4, 6, v, v + 1, 2 * v, 2 * v + 2)]
    near = [t + d * unit for t in pinned for d in (F(-1, 7), F(1, 3))]
    added = [tuple(a) + (low,), tuple(b) + (high,)]
    rule = plus2_extension(cone_coloring(standard_simplex(3)), added)
    return rule, [*a, *b] + pinned + near


def _contract_rules():
    """Every rule kind with the coordinates worth drawing for it: its
    centers' coordinates and its pinned levels, where colors tie or
    switch."""
    half, third = F(1, 2), F(-1, 3)
    rules = {f"cone-{d}": (cone_coloring(standard_simplex(d)), [0]) for d in (1, 2, 3, 4)}
    for i, simplex in enumerate(FRACTIONAL_SIMPLICES):
        rules[f"cone-fractional-{i}"] = (
            cone_coloring(simplex), [v for p in simplex for v in p.coords]
        )
    rules["halfspace"] = (halfspace_coloring((half, third, 2)), [half, third, 2])
    a, b = (half, third), (F(5, 2), F(2, 3))
    rules["pair"] = (pair_coloring(a, b), [*a, *b, F(3, 2), F(1, 6)])
    cone2 = cone_coloring(standard_simplex(2))
    rules["plus0"] = (plus0_extension(cone2), [0, half])
    rules["plus1"] = (plus1_extension(cone2, halfspace_coloring((half, 0))), [0, 1, 2, half])
    for levels in [(1, 1), (1, 2), (2, 3), (3, 4)]:
        rules[f"plus2-{levels[0]}-{levels[1]}"] = _plus2_case(levels)
    # the scale is 1/3 and v = 1/2; then equal fractional levels
    rules["plus2-3/2-9/2"] = _plus2_case((F(3, 2), F(9, 2)), (half, 0, 0), (0, third, 1))
    rules["plus2-2/3-2/3"] = _plus2_case((F(2, 3), F(2, 3)), (half, 0, 0), (0, third, 1))
    return rules


CONTRACT_RULES = _contract_rules()


class TestOneColorPerPoint:
    """``evaluate(z, q)`` colors the point z/q: scaling z and q by one
    factor m leaves the color alone, and it is the color the checked
    entry gives the point in ``Fraction`` form."""

    @pytest.mark.parametrize("name", sorted(CONTRACT_RULES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_representation_gets_one_color(self, name, data):
        rule, special = CONTRACT_RULES[name]
        coordinate = st.one_of(rationals(12, 8), st.sampled_from(special))
        point = tuple(F(data.draw(coordinate)) for _ in range(rule.dim))
        expected = rule(point)
        z, q = scaled(point)
        assert rule.evaluate(z, q) == expected
        for m in range(2, 8):
            assert rule.evaluate([m * v for v in z], m * q) == expected, (point, m)
