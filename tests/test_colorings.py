"""Witness coloring rules: level semantics, branch coverage, scans."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centerpole import colorings, geometry
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
from centerpole.cube import checked_coordinates

F = Fraction

rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=8
)


def cone(d):
    return cone_coloring(standard_simplex(d))


class TestConeVertices:
    def test_standard_simplex(self):
        simplex = standard_simplex(2)
        assert list(simplex) == [
            (1, 0),
            (0, 1),
            (-1, -1),
        ]
        assert cone_coloring(simplex).dim == 2

    def test_rejects_too_few_vertices(self):
        for vertices in ([], [(0,)]):
            with pytest.raises(ValueError, match="a simplex needs at least two vertices"):
                cone_coloring(vertices)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError, match="vertices must sum to zero"):
            cone_coloring(((1, 0), (0, 1), (0, 0)))

    def test_rejects_dependent_vertices(self):
        with pytest.raises(ValueError, match="vertices must be affinely independent"):
            cone_coloring(((1, 1), (-1, -1), (0, 0)))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="2 vertices must live in dimension 1"):
            cone_coloring(((1,), (-1, 0)))

    def test_one_elimination_builds_the_rule(self, monkeypatch):
        # the inverse the rule needs is also the independence check
        calls = []
        bareiss = geometry._bareiss

        def counted(rows):
            calls.append(len(rows))
            return bareiss(rows)

        monkeypatch.setattr(geometry, "_bareiss", counted)
        fractional = ((F(1, 2), F(1, 3)), (F(-3, 4), F(2, 5)), (F(1, 4), F(-11, 15)))
        for vertices in [standard_simplex(d) for d in (1, 2, 3, 4)] + [fractional]:
            calls.clear()
            cone_coloring(vertices)
            assert calls == [len(vertices)]

    def test_refusals_come_in_order(self):
        # a wrong dimension before a nonzero sum, a nonzero sum before
        # dependence
        with pytest.raises(ValueError, match="must live in dimension"):
            cone_coloring(((1, 0), (1,), (0, 0)))
        with pytest.raises(ValueError, match="must sum to zero"):
            cone_coloring(((1, 1), (2, 2), (0, 0)))


class TestConeColoring:
    def test_line_case(self):
        rule = cone(1)
        assert rule.color_count == 2
        assert rule((0,)) == 0
        assert rule((F(7, 3),)) == 1
        assert rule((-4,)) == 0

    def test_origin_and_range(self):
        rule = cone(3)
        assert rule((0, 0, 0)) == 0
        for x in product((-2, 0, 1), repeat=3):
            assert 0 <= rule(x) < 4

    def test_antipodal_pairs_never_collide_on_a_grid(self):
        rule = cone(2)
        for x in product(range(-3, 4), repeat=2):
            if x == (0, 0):
                continue
            assert rule(x) != rule((-x[0], -x[1]))

    @given(st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_antipodal_pairs_never_collide(self, coords):
        if all(v == 0 for v in coords):
            return
        rule = cone(3)
        assert rule(coords) != rule([-v for v in coords])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_color_depends_only_on_direction(self, data):
        # the evaluate entry reads the ray of z: a positive multiple of
        # z, over any denominator, gets the same color, and z = 0 gets 0
        d = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            simplex = standard_simplex(d)
        else:
            coordinates = st.fractions(min_value=-6, max_value=6, max_denominator=6)
            rows = [tuple(data.draw(coordinates) for _ in range(d)) for _ in range(d)]
            simplex = (*rows, tuple(-sum(column) for column in zip(*rows)))
            assume(geometry.affine_hull_dim([geometry.as_point(v) for v in simplex]) == d)
        rule = cone_coloring(simplex)
        z = data.draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
        m, q, q2 = (data.draw(st.integers(1, 50)) for _ in range(3))
        assert rule.evaluate(z, q) == rule.evaluate([m * v for v in z], q2)
        assert rule.evaluate([0] * d, q) == 0

    def test_label(self):
        assert cone(2).label == "cone(d=2)"

    def test_rejects_wrong_dimension_points(self):
        with pytest.raises(ValueError):
            cone(2)((1, 2, 3))


class TestHalfspaceColoring:
    def test_split(self):
        rule = halfspace_coloring((1, 2))
        assert rule((1, 2)) == 0
        assert rule((2, 0)) == 1
        assert rule((0, 9)) == 0
        assert rule((1, 3)) == 1
        assert rule((1, 1)) == 0

    def test_mirror_pairs_never_collide_on_a_grid(self):
        c = (1, 2)
        rule = halfspace_coloring(c)
        for x in product(range(-2, 5), repeat=2):
            if x == c:
                continue
            mirror = (2 * c[0] - x[0], 2 * c[1] - x[1])
            assert rule(x) != rule(mirror)


class TestPairColoring:
    a, b = (0, 0), (2, 0)

    def rule(self):
        return pair_coloring(self.a, self.b)

    def test_fractional_projection_uses_floor_parity(self):
        rule = self.rule()
        assert rule((1, 5)) == 1
        assert rule((3, 5)) == 0
        assert rule((-1, 0)) == 0

    def test_integral_projection_with_offset_uses_the_halfspace_split(self):
        rule = self.rule()
        assert rule((2, 3)) == 1
        assert rule((2, -3)) == 0

    def test_points_on_the_axis_compare_against_one(self):
        rule = self.rule()
        assert rule((0, 0)) == 0
        assert rule((2, 0)) == 1
        assert rule((4, 0)) == 1
        assert rule((-2, 0)) == 0

    def test_exact_away_from_both_centers(self):
        rule = self.rule()
        grid = [F(n, 2) for n in range(-8, 13)]
        for x in product(grid, repeat=2):
            for c in (self.a, self.b):
                if x == c:
                    continue
                mirror = (2 * c[0] - x[0], 2 * c[1] - x[1])
                assert rule(x) != rule(mirror), (x, c)

    def test_rejects_equal_centers(self):
        with pytest.raises(ValueError):
            pair_coloring((1, 1), (1, 1))

    @pytest.mark.parametrize("a,b", [((1,), (1, 5)), ((0, 0), (1,))])
    def test_rejects_points_of_different_dimensions(self, a, b):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair_coloring(a, b)


class TestPlus0:
    def test_level_semantics(self):
        base = cone(2)
        rule = plus0_extension(base)
        assert rule.dim == 3 and rule.color_count == 3
        assert rule((2, -1, 0)) == base((2, -1))
        assert rule((2, -1, -5)) == 0
        assert rule((2, -1, F(1, 3))) == 1

    def test_needs_two_colors(self):
        constant = ColoringRule(dim=2, color_count=1, evaluate=lambda z, q: 0)
        with pytest.raises(ValueError):
            plus0_extension(constant)


class TestPlus1:
    base = cone(2)
    aux2 = halfspace_coloring((0, 0))

    def rule(self):
        return plus1_extension(self.base, self.aux2)

    def test_pinned_levels(self):
        rule = self.rule()
        x = (3, -2)
        assert rule(x + (0,)) == self.base(x)
        assert rule(x + (1,)) == self.aux2(x)
        assert rule(x + (2,)) == min({0, 1} - {self.base((-3, 2))})

    def test_bands(self):
        rule = self.rule()
        x = (3, -2)
        assert rule(x + (-1,)) == 2
        assert rule(x + (F(1, 2),)) == 1
        assert rule(x + (F(3, 2),)) == 0
        assert rule(x + (9,)) == 0

    def test_needs_three_colors_and_a_matching_witness(self):
        with pytest.raises(ValueError):
            plus1_extension(cone(1), self.aux2)
        with pytest.raises(ValueError):
            plus1_extension(self.base, halfspace_coloring((0, 0, 0)))
        with pytest.raises(ValueError):
            plus1_extension(self.base, self.base)

    def test_the_default_witness_is_the_halfspace_about_the_origin(self):
        default = plus1_extension(self.base)
        assert (default.label, default.color_count) == ("plus1[cone(d=2)]", 3)
        for x in product((-1, 0, F(1, 2), 2), repeat=2):
            for t in (-1, 0, F(1, 2), 1, 2, 3):
                assert default(x + (t,)) == self.rule()(x + (t,))


BASE3 = cone(3)


def psi_expected(t, v, w):
    if t <= 0:
        return 3
    if t <= v:
        return 0
    if t <= w:
        return 1
    return 2


def mirror3(c, x):
    return tuple(2 * p - q for p, q in zip(c, x))


class TestPlus2LevelsEqual:
    a, b = (1, 0, 0), (0, 1, 0)

    def rule(self, level=1):
        return plus2_extension(
            BASE3, [self.a + (level,), self.b + (level,)]
        )

    def test_case_label(self):
        assert self.rule().label == "plus2[cone(d=3);levels-equal]"

    def test_pinned_levels(self):
        rule = self.rule()
        pair = pair_coloring(self.a, self.b)
        for x in [(2, 1, -1), (0, 0, 0), (-3, 2, 2)]:
            assert rule(x + (0,)) == BASE3(x)
            assert rule(x + (1,)) == pair(x)
            assert rule(x + (2,)) == min(
                {0, 1, 2}
                - {BASE3(mirror3(self.a, x)), BASE3(mirror3(self.b, x))}
            )

    def test_bands(self):
        rule = self.rule()
        x = (2, 1, -1)
        assert rule(x + (F(1, 2),)) == 0
        assert rule(x + (F(3, 2),)) == 2
        assert rule(x + (7,)) == 2
        assert rule(x + (-1,)) == 3

    def test_fractional_levels_rescale(self):
        rule = self.rule(level=F(1, 2))
        pair = pair_coloring(self.a, self.b)
        x = (2, 1, -1)
        assert rule(x + (F(1, 4),)) == 0
        assert rule(x + (F(1, 2),)) == pair(x)
        assert rule(x + (1,)) == min(
            {0, 1, 2}
            - {BASE3(mirror3(self.a, x)), BASE3(mirror3(self.b, x))}
        )

    def test_custom_pair_witness_is_used(self):
        flagged = []

        def spy(z, q):
            flagged.append((z, q))
            return 0

        aux = ColoringRule(dim=3, color_count=2, evaluate=spy)
        rule = plus2_extension(
            BASE3,
            [self.a + (1,), self.b + (1,)],
            auxes={"pair": aux},
        )
        assert rule((5, 5, 5, 1)) == 0
        assert flagged


class TestPlus2VEqualsOne:
    """Level pair (1, 2) after rescaling."""

    a, b = (1, 0, 0), (0, 1, 0)

    def rule(self, A=None):
        A = A or [self.a + (1,), self.b + (2,)]
        return plus2_extension(BASE3, A)

    def test_case_label(self):
        assert self.rule().label == "plus2[cone(d=3);v=1,w=2]"

    def test_pinned_levels_against_primitives(self):
        rule = self.rule()
        aux_a = halfspace_coloring(self.a)
        for x in [(2, 1, -1), (0, 1, 0), (-3, 2, 2)]:
            assert rule(x + (0,)) == BASE3(x)
            assert rule(x + (1,)) == aux_a(x)
            assert rule(x + (3,)) == 1 - aux_a(mirror3(self.b, x))
            assert rule(x + (4,)) == min(
                {0, 1} - {BASE3(mirror3(self.b, x))}
            )

    def test_bands(self):
        rule = self.rule()
        x = (2, 1, -1)
        assert rule(x + (F(1, 2),)) == 0
        assert rule(x + (F(3, 2),)) == 1
        assert rule(x + (F(5, 2),)) == 2
        assert rule(x + (9,)) == 2
        assert rule(x + (-2,)) == 3

    def test_middle_level_branches(self):
        # frozen probes, one per branch of the five-way split at the
        # level of the reflected lower center
        rule = self.rule()
        assert rule((-2, 1, -2, 2)) == 0
        assert rule((-2, -1, -2, 2)) == 0
        assert rule((0, 1, 1, 2)) == 2
        assert rule((0, 1, 0, 2)) == 0
        collinear = self.rule(A=[(1, 0, 0, 1), (2, 0, 0, 2)])
        assert collinear((2, 1, 0, 2)) == 0

    def test_every_middle_level_branch_is_hit(self):
        configs = [
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0, 0), (2, 0, 0)),
        ]
        seen = set()
        probes = [
            (-2, 1, -2),
            (-2, -1, -2),
            (0, 1, 1),
            (0, 1, 0),
            (2, 1, 0),
            (1, 1, 0),
            (0, 0, 0),
        ]
        for a, b in configs:
            rule = plus2_extension(BASE3, [a + (1,), b + (2,)])
            aux_a = halfspace_coloring(a)
            aux_b = halfspace_coloring(b)
            for x in probes:
                y = tuple(p - q for p, q in zip(x, b))
                neg = tuple(-p for p in y)
                # recompute the printed table in full
                a_t = tuple(F(p) - q for p, q in zip(a, b))
                behind = BASE3(tuple(2 * p - q + r
                                     for p, q, r in zip(a_t, y, b)))
                ahead = BASE3(tuple(2 * p + q + r
                                    for p, q, r in zip(a_t, y, b)))
                fx = aux_b(tuple(p + q for p, q in zip(y, b)))
                fnx = aux_b(tuple(p + q for p, q in zip(neg, b)))
                if fx == fnx:
                    expected = min({0, 1, 2} - {ahead, behind})
                    seen.add("same-sides")
                elif behind != fx and fnx != ahead:
                    expected = fx
                    seen.add("clear")
                elif behind == fx and fnx != ahead:
                    expected = min({0, 1, 2} - {fnx, behind})
                    seen.add("behind-collides")
                elif behind != fx and fnx == ahead:
                    expected = fx
                    seen.add("ahead-collides")
                else:
                    expected = fnx
                    seen.add("both-collide")
                assert rule(x + (2,)) == expected, (a, b, x)
        assert seen == {
            "same-sides",
            "clear",
            "behind-collides",
            "ahead-collides",
            "both-collide",
        }

    def test_rescaled_levels(self):
        rule = self.rule(A=[self.a + (2,), self.b + (4,)])
        aux_a = halfspace_coloring(self.a)
        x = (2, 1, -1)
        assert rule(x + (2,)) == aux_a(x)
        assert rule(x + (6,)) == 1 - aux_a(mirror3(self.b, x))
        assert rule(x + (8,)) == min({0, 1} - {BASE3(mirror3(self.b, x))})


class TestPlus2VEqualsTwo:
    """Level pair (2, 3) after rescaling."""

    a, b = (1, 0, 0), (0, 1, 0)

    def rule(self, A=None):
        A = A or [self.a + (2,), self.b + (3,)]
        return plus2_extension(BASE3, A)

    def test_case_label(self):
        assert self.rule().label == "plus2[cone(d=3);v=2,w=3]"

    def test_pinned_levels_against_primitives(self):
        rule = self.rule()
        aux_a = halfspace_coloring(self.a)
        aux_b = halfspace_coloring(self.b)
        for x in [(2, 1, -1), (0, 0, 0), (-3, 2, 2)]:
            assert rule(x + (0,)) == BASE3(x)
            assert rule(x + (1,)) == 1 - aux_b(mirror3(self.a, x))
            assert rule(x + (2,)) == aux_a(x)
            assert rule(x + (3,)) == aux_b(x)
            assert rule(x + (4,)) == min(
                {0, 1, 2}
                - {BASE3(mirror3(self.a, x)), aux_a(mirror3(self.b, x))}
            )
            assert rule(x + (6,)) == min(
                {0, 1} - {BASE3(mirror3(self.b, x))}
            )

    def test_bands(self):
        rule = self.rule()
        x = (2, 1, -1)
        assert rule(x + (F(3, 2),)) == 0
        assert rule(x + (F(5, 2),)) == 1
        assert rule(x + (5,)) == 2
        assert rule(x + (7,)) == 2
        assert rule(x + (-1,)) == 3

    def test_rescaled_levels(self):
        rule = self.rule(A=[self.a + (1,), self.b + (F(3, 2),)])
        aux_b = halfspace_coloring(self.b)
        x = (2, 1, -1)
        assert rule(x + (F(1, 2),)) == 1 - aux_b(mirror3(self.a, x))
        assert rule(x + (3,)) == min({0, 1} - {BASE3(mirror3(self.b, x))})


class TestPlus2GenericV:
    """Level pair (3, 4) after rescaling."""

    a, b = (1, 0, 0), (0, 1, 0)

    def rule(self, A=None):
        A = A or [self.a + (3,), self.b + (4,)]
        return plus2_extension(BASE3, A)

    def test_case_label(self):
        assert self.rule().label == "plus2[cone(d=3);generic-v]"

    def test_pinned_levels_against_primitives(self):
        rule = self.rule()
        aux_a = halfspace_coloring(self.a)
        aux_b = halfspace_coloring(self.b)
        for x in [(2, 1, -1), (0, 0, 0), (-3, 2, 2)]:
            assert rule(x + (0,)) == BASE3(x)
            assert rule(x + (3,)) == aux_a(x)
            assert rule(x + (4,)) == 1 + aux_b(x)
            # the band color at twice the lower level is psi(2) = 0
            assert rule(x + (6,)) == min(
                {0, 1, 2} - {BASE3(mirror3(self.a, x)), 0}
            )
            assert rule(x + (8,)) == min(
                {0, 1} - {BASE3(mirror3(self.b, x))}
            )

    def test_bands(self):
        rule = self.rule()
        x = (2, 1, -1)
        assert rule(x + (1,)) == 0
        assert rule(x + (F(7, 2),)) == 1
        assert rule(x + (5,)) == 2
        assert rule(x + (9,)) == 2
        assert rule(x + (-3,)) == 3

    def test_rescaled_levels(self):
        rule = self.rule(A=[self.a + (F(3, 2),), self.b + (2,)])
        aux_a = halfspace_coloring(self.a)
        aux_b = halfspace_coloring(self.b)
        x = (2, 1, -1)
        assert rule(x + (F(3, 2),)) == aux_a(x)
        assert rule(x + (2,)) == 1 + aux_b(x)
        assert rule(x + (1,)) == 0


class TestPlus2Validation:
    def test_needs_four_colors(self):
        with pytest.raises(ValueError):
            plus2_extension(cone(2), [(1, 0, 1), (0, 1, 2)])

    def test_needs_exactly_two_points(self):
        with pytest.raises(ValueError):
            plus2_extension(BASE3, [(1, 0, 0, 1)])

    def test_needs_positive_levels(self):
        with pytest.raises(ValueError):
            plus2_extension(BASE3, [(1, 0, 0, 0), (0, 1, 0, 1)])
        with pytest.raises(ValueError):
            plus2_extension(BASE3, [(1, 0, 0, -1), (0, 1, 0, 1)])

    def test_needs_distinct_points(self):
        with pytest.raises(ValueError):
            plus2_extension(BASE3, [(1, 0, 0, 1), (1, 0, 0, 1)])

    def test_needs_matching_witnesses(self):
        bad = ColoringRule(dim=2, color_count=2, evaluate=lambda z, q: 0)
        with pytest.raises(ValueError):
            plus2_extension(
                BASE3,
                [(1, 0, 0, 1), (0, 1, 0, 2)],
                auxes={"a": bad, "b": bad},
            )
        with pytest.raises(ValueError):
            plus2_extension(
                BASE3,
                [(1, 0, 0, 1), (0, 1, 0, 1)],
                auxes={"pair": bad},
            )

    @pytest.mark.parametrize(
        "levels,scale",
        [((2, 2), F(1, 2)), ((1, 3), F(1, 2)), ((3, 4), 1), ((2, 5), F(1, 3))],
    )
    def test_integer_levels_build_a_fraction_scale(self, monkeypatch, levels, scale):
        # with int levels, 1 / level would be a float
        scales = []
        lift = colorings._lift

        def spy(base, label, scale, *rest):
            scales.append(scale)
            return lift(base, label, scale, *rest)

        monkeypatch.setattr(colorings, "_lift", spy)
        la, lb = levels
        rule = plus2_extension(BASE3, [(1, 0, 0, la), (0, 1, 0, lb)])
        assert scales == [scale] and type(scales[0]) is Fraction
        x = (2, 1, -1)
        assert rule(x + (la,)) == (
            pair_coloring((1, 0, 0), (0, 1, 0))(x)
            if la == lb
            else halfspace_coloring((1, 0, 0))(x)
        )


ORIGIN4 = (0, 0, 0, 0)


class TestScans:
    def test_cone_scan_is_clean(self):
        report = symmetric_pair_scan(
            cone(2), [(0, 0)], inner_radius=0, samples=400, seed=3
        )
        assert report["violations"] == []
        assert report["rule"] == "cone(d=2)"
        assert report["samples"] == 400
        assert report["innerRadius"] == "0"
        assert report["centers"] == [["0", "0"]]

    def test_halfspace_scan_is_clean(self):
        report = symmetric_pair_scan(
            halfspace_coloring((1, 2)),
            [(1, 2)],
            inner_radius=0,
            samples=400,
            seed=5,
        )
        assert report["violations"] == []

    def test_pair_scan_is_clean(self):
        report = symmetric_pair_scan(
            pair_coloring((0, 0), (2, 0)),
            [(0, 0), (2, 0)],
            inner_radius=0,
            samples=400,
            seed=7,
        )
        assert report["violations"] == []

    def test_plus0_scan_is_clean(self):
        report = symmetric_pair_scan(
            plus0_extension(cone(2)),
            [(0, 0, 0)],
            inner_radius=0,
            samples=400,
            seed=9,
        )
        assert report["violations"] == []

    def test_plus1_scan_is_clean(self):
        rule = plus1_extension(cone(2), halfspace_coloring((0, 0)))
        report = symmetric_pair_scan(
            rule,
            [(0, 0, 0), (0, 0, 1)],
            inner_radius=0,
            samples=400,
            seed=11,
        )
        assert report["violations"] == []

    @pytest.mark.parametrize(
        "levels",
        [(1, 1), (1, 2), (2, 3), (3, 4)],
        ids=["levels-equal", "v=1", "v=2", "generic-v"],
    )
    def test_plus2_scans_are_clean(self, levels):
        A = [(1, 0, 0, levels[0]), (0, 1, 0, levels[1])]
        rule = plus2_extension(BASE3, A)
        report = symmetric_pair_scan(
            rule,
            [ORIGIN4] + A,
            inner_radius=0,
            samples=400,
            seed=11,
        )
        assert report["violations"] == []

    def test_scanner_catches_a_broken_rule(self):
        constant = ColoringRule(dim=2, color_count=2, evaluate=lambda z, q: 1)
        report = symmetric_pair_scan(
            constant, [(0, 0)], inner_radius=0, samples=50, seed=1
        )
        assert len(report["violations"]) == 50
        entry = report["violations"][0]
        assert set(entry) == {"x", "mirror", "color"}

    def test_scan_validates_arguments(self):
        with pytest.raises(ValueError):
            symmetric_pair_scan(
                cone(2), [(0, 0)], inner_radius=0, samples=0, seed=0
            )
        with pytest.raises(ValueError):
            symmetric_pair_scan(
                cone(2), [(0, 0, 0)], inner_radius=0, samples=1, seed=0
            )
        with pytest.raises(ValueError):
            symmetric_pair_scan(
                cone(1), [(0,)], inner_radius=10_000, samples=1, seed=0
            )

    @pytest.mark.parametrize("radius,text", [(-1, "-1"), (F(-1, 2), "-1/2")])
    def test_a_negative_radius_is_refused_before_any_draw(
        self, radius, text, monkeypatch
    ):
        # under r < 0 the center counts as far and is its own mirror, so a
        # scan would report it as a monochromatic pair
        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(colorings, "random", SimpleNamespace(Random=no_generator))
        with pytest.raises(
            ValueError, match=f"^inner radius must be non-negative, got {text}$"
        ):
            symmetric_pair_scan(cone(1), [(0,)], radius, 1000, 0)

    def test_a_zero_radius_never_samples_the_center(self):
        def drawn(centers):
            points = []
            record = ColoringRule(
                dim=1, color_count=1, evaluate=lambda z, q: points.append(z[0]) or 0
            )
            symmetric_pair_scan(record, centers, 0, 2000, 4)
            return points

        # the raw stream holds the center; the scan with it draws again
        assert 0 in drawn([])
        assert 0 not in drawn([(0,)])


class TestExactInputs:
    """Every rational entry of colorings reads through geometry: a point
    through ``as_point`` and the scan radius through ``_exact``.  Each
    takes an int, an integral or proper Fraction and a fraction string,
    and refuses a float (exact or not), a bool and None with geometry's
    TypeError."""

    # each entry puts the value under test in one slot of one input and
    # returns what that input decides; ``minus`` is minus the value, for
    # the vertex that makes a simplex sum to zero
    ENTRIES = {
        "rule call": lambda v, minus: cone(2)((v, F(-1, 3))),
        "cone vertices": lambda v, minus: cone_coloring([(v,), (minus,)])((1,)),
        "halfspace center": lambda v, minus: halfspace_coloring((v, 0))((F(7, 8), 0)),
        "pair points": lambda v, minus: pair_coloring((v, 0), (2, 0))((F(1, 2), 1)),
        "plus2 A": lambda v, minus: plus2_extension(
            BASE3, [(1, 0, 0, v), (0, 1, 0, 2)]
        )((1, 1, 1, F(3, 2))),
        "scan centers": lambda v, minus: symmetric_pair_scan(
            cone(2), [(v, 0)], 0, 3, 1
        )["centers"],
        "scan radius": lambda v, minus: symmetric_pair_scan(
            cone(2), [(0, 0)], v, 3, 1
        )["innerRadius"],
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "value,exact", [(1, 1), (F(2, 2), 1), (F(3, 4), F(3, 4)), ("3/4", F(3, 4))]
    )
    def test_exact_values_are_accepted(self, entry, value, exact):
        run = self.ENTRIES[entry]
        assert run(value, -exact) == run(exact, -exact)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "bad,message",
        [
            (0.5, "floats are not allowed"),
            (2.0, "floats are not allowed"),
            (True, "booleans are not allowed"),
            (None, None),
        ],
    )
    def test_non_exact_values_are_refused(self, entry, bad, message):
        with pytest.raises(TypeError, match=message):
            self.ENTRIES[entry](bad, -1)

    def test_a_float_near_a_rational_is_refused(self):
        # Fraction(0.1) is the binary fraction nearest 1/10, not 1/10, so
        # a float is refused rather than colored as some other point
        with pytest.raises(TypeError, match="floats are not allowed"):
            cone(2)((0.1, 0.2))
        assert cone(2)((F(1, 10), F(1, 5))) == 2

    def test_fraction_strings_are_read_as_their_values(self):
        # "1/2" was refused when colorings kept its own exactness test
        assert cone(2)(("1/2", 0)) == cone(2)((F(1, 2), 0))
        # a point is a tuple or a list, as a checked center is
        center = checked_coordinates([1, 0])
        assert cone(2)(center) == cone(2)([1, 0]) == cone(2)((1, 0))
        for radius, text in (("1/2", "1/2"), (F(1, 10), "1/10"), (2, "2")):
            report = symmetric_pair_scan(cone(2), [(0, 0)], radius, 3, 1)
            assert report["innerRadius"] == text

    def test_a_point_is_checked_once(self, monkeypatch):
        # calling a rule reads its point; nested rules and the scan call
        # ``evaluate`` on values already read or built from read ones
        rule = plus0_extension(plus0_extension(cone(2)))
        scanned = plus2_extension(BASE3, [(1, 0, 0, 1), (0, 1, 0, 2)])
        calls = []
        read = colorings.as_point

        def counted(point):
            calls.append(point)
            return read(point)

        monkeypatch.setattr(colorings, "as_point", counted)
        rule((F(1, 3), 2, 0, 0))
        assert calls == [(F(1, 3), 2, 0, 0)]
        calls.clear()
        assert symmetric_pair_scan(scanned, [(0,) * 4], 0, 50, 1)["samples"] == 50
        # the one center is read; no sample and no mirror is
        assert calls == [(0, 0, 0, 0)]
