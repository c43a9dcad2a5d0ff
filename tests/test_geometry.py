"""Exact rational geometry: canonical hyperplanes, ranks, hulls."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole import geometry
from centerpole.geometry import (
    Hyperplane,
    RationalPoint,
    affine_hull_dim,
    as_point,
    clear_denominators,
    containing_hyperplane,
    fraction_from_json,
    hyperplane_to_json,
    in_general_position,
    integer_spanned_hyperplanes,
    matrix_inverse,
    matrix_rank,
    point_from_json,
    point_to_json,
    separates,
    side_of,
)
from rational_reference import dot, hyperplane_key

P = lambda *c: RationalPoint(c)


class TestRationalPoint:
    def test_coercion(self):
        p = P("1/3", 2, Fraction(5, 7))
        assert p.coords == (Fraction(1, 3), Fraction(2), Fraction(5, 7))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            P(0.5, 1)

    def test_dimension_mismatch(self):
        h = Hyperplane((1, 1), 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            side_of(h, P(1, 2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            separates(h, [P(1, 2), P(1, 2, 3)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            affine_hull_dim([P(1, 2), P(0, 0), P(1, 2, 3)])

    def test_as_point(self):
        p = P("1/3", 2)
        assert as_point(p) is p
        assert as_point(("1/3", 2)) == p
        with pytest.raises(TypeError):
            as_point([0.5, 1])

    def test_equal_points_hash_equal(self):
        assert P("2/4", 1) == P("1/2", 1)
        assert hash(P("2/4", 1)) == hash(P("1/2", 1))

    def test_cached_hash_follows_the_coordinates(self):
        a, b, c = P(1, 0), P("2/2", 0), P(Fraction(1), "0/5")
        assert a == b == c
        assert hash(a) == hash(b) == hash(c) == hash(a.coords)
        table = {a: "found"}
        assert table[c] == "found"
        assert P(1, 1) not in table

    def test_cached_hash_is_not_in_repr_or_equality(self):
        p = P(1, "1/2")
        assert repr(p) == "RationalPoint(coords=(Fraction(1, 1), Fraction(1, 2)))"
        # a point with a corrupted cache still equals one built afresh
        q = P(1, "1/2")
        object.__setattr__(q, "_hash", hash(p) + 1)
        assert p == q


class TestHyperplane:
    def test_canonical_form(self):
        # scaling the defining equation does not change the object
        assert Hyperplane((2, 2), 2) == Hyperplane((1, 1), 1)
        assert Hyperplane((-1, 0), 3) == Hyperplane((1, 0), -3)
        assert hash(Hyperplane((4, -2), 6)) == hash(Hyperplane((2, -1), 3))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Hyperplane((0, 0), 1)

    @pytest.mark.parametrize(
        "normal,offset,error",
        [
            ((0.1, 1), "0", TypeError),
            (("1", 1), 0.25, TypeError),
            ((True, 1), "0", TypeError),
            ((1, 1), False, TypeError),
            ((1, "1e400"), "0", ValueError),
            ((1, 1), "-1.5e2", ValueError),
            ((1, 1), "-2/0", ZeroDivisionError),
        ],
    )
    def test_rejects_inexact_coefficients(self, normal, offset, error):
        with pytest.raises(error):
            Hyperplane(normal, offset)

    def test_side_of(self):
        h = Hyperplane((1, 0), 0)
        assert side_of(h, P(2, 5)) == 1
        assert side_of(h, P(-1, 5)) == -1
        assert side_of(h, P(0, 5)) == 0

    @settings(max_examples=300)
    @given(st.data())
    def test_side_of_is_the_sign_of_the_rational_value(self, data):
        # the sign side_of reports, against normal . p - offset summed as
        # Fractions: zero normal entries, large negative numerators, and
        # (when on) an offset that puts the point on the hyperplane
        d = data.draw(st.integers(1, 4))
        numerators = st.one_of(
            st.integers(-9, 9), st.integers(-(10**30), 10**30), st.just(0)
        )
        rationals = st.builds(Fraction, numerators, st.integers(1, 10**12))
        normal = data.draw(
            st.lists(rationals, min_size=d, max_size=d).filter(any)
        )
        point = RationalPoint(data.draw(st.lists(rationals, min_size=d, max_size=d)))
        on = data.draw(st.booleans())
        offset = dot(normal, point.coords) if on else data.draw(rationals)
        h = Hyperplane(tuple(normal), offset)
        value = dot(h.normal, point.coords) - h.offset
        expected = 1 if value > 0 else -1 if value < 0 else 0
        assert side_of(h, point) == expected
        if on:
            assert expected == 0

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        st.integers(-9, 9),
        st.integers(-7, 7).filter(lambda v: v != 0),
    )
    def test_scaled_equations_agree_everywhere(self, normal, offset, factor):
        if all(v == 0 for v in normal):
            return
        h1 = Hyperplane(tuple(normal), offset)
        h2 = Hyperplane(tuple(factor * v for v in normal), factor * offset)
        assert h1 == h2


class TestRanksAndHulls:
    def test_matrix_rank(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([["1/2", 1], [1, 2], [3, 7]]) == 2

    def test_booleans_are_refused_on_the_integer_path(self):
        # ints skip the coercion; a bool is an int subclass and must not
        with pytest.raises(TypeError, match="booleans"):
            matrix_rank([[True, 0], [0, 1]])
        with pytest.raises(TypeError, match="booleans"):
            clear_denominators([[True, 2]])

    def test_matrix_inverse(self):
        m = [[0, 2, 1], ["1/2", 0, 3], [1, 1, 1]]
        inv = matrix_inverse(m)
        assert [
            [sum(Fraction(m[i][t]) * inv[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ] == [[int(i == j) for j in range(3)] for i in range(3)]
        assert matrix_inverse([[4]]) == [[Fraction(1, 4)]]

    @pytest.mark.parametrize(
        "m", [[[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]]
    )
    def test_matrix_inverse_rejects_singular_matrices(self, m):
        with pytest.raises(ValueError, match="singular"):
            matrix_inverse(m)

    def test_affine_hull_dim(self):
        assert affine_hull_dim([]) == -1
        assert affine_hull_dim([P(3, 4)]) == 0
        assert affine_hull_dim([P(0, 0), P(2, 2), P(5, 5)]) == 1
        assert affine_hull_dim([P(0, 0), P(1, 0), P(0, 1)]) == 2

    def test_containing_hyperplane(self):
        def containing(points):
            scale, rows = clear_denominators(p.coords for p in points)
            return containing_hyperplane(rows, scale)

        line = [P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]
        h = containing(line)
        assert h is not None
        assert all(side_of(h, p) == 0 for p in line)
        assert containing([P(0, 0), P(1, 0), P(0, 1)]) is None
        # the offset is read back through the scale of the rows
        assert containing([P("1/2", 0), P(0, "1/2"), P("1/4", "1/4")]) == Hyperplane(
            (1, 1), "1/2"
        )
        with pytest.raises(ValueError):
            containing_hyperplane([], 1)


class TestSeparationPredicates:
    def test_separates_is_strict(self):
        h = Hyperplane((1, 0), 0)
        assert separates(h, [P(1, 0), P(-1, 0)])
        assert not separates(h, [P(1, 0), P(0, 5)])
        assert not separates(h, [P(1, 0), P(2, 0)])
        assert not separates(h, [])

    def test_general_position(self):
        a = Hyperplane((1, 0), 0)
        b = Hyperplane((0, 1), 0)
        parallel = Hyperplane((1, 0), 5)
        assert in_general_position([])
        assert in_general_position([a, b])
        assert not in_general_position([a, a])
        assert not in_general_position([a, parallel])
        # distinctness follows from the rank test: a hyperplane given again,
        # in any form, or a parallel one has a normal dependent on the others
        a, b, c = (Hyperplane(n, 2) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert in_general_position([a, b, c])
        assert not in_general_position([a, b, Hyperplane((-2, 0, 0), -4)])
        assert not in_general_position([a, b, Hyperplane((3, 0, 0), 1)])
        assert not in_general_position([b, a, c, a])


def spanned(points):
    """``integer_spanned_hyperplanes`` of rational points, as Hyperplanes.
    Each ``on`` mask must hold exactly the points that ``side_of`` puts
    on its hyperplane."""
    scale, rows = clear_denominators(p.coords for p in points)
    planes = []
    for normal, offset, on in integer_spanned_hyperplanes(rows):
        h = Hyperplane(normal, Fraction(offset, scale))
        assert on == sum(
            1 << i for i, p in enumerate(points) if side_of(h, p) == 0
        )
        planes.append(h)
    return planes


class TestSpannedHyperplanes:
    def test_square_has_six_lines(self):
        square = [P(0, 0), P(1, 0), P(0, 1), P(1, 1)]
        lines = spanned(square)
        assert len(lines) == 6
        assert lines == sorted(lines, key=hyperplane_key)
        assert Hyperplane((1, -1), 0) in lines

    def test_center_point_adds_no_new_lines(self):
        pts = [P(0, 0), P(1, 0), P(0, 1), P(1, 1), P("1/2", "1/2")]
        assert len(spanned(pts)) == 6

    def test_triangle_has_three_lines(self):
        assert len(spanned([P(0, 0), P(1, 0), P(0, 1)])) == 3
        # a line needs two distinct points
        assert spanned([P(0, 1), P(2, 1)]) == [Hyperplane((0, 1), 1)]
        assert spanned([P(0, 0), P(0, 0)]) == []

    def test_simplex_has_four_planes(self):
        simplex = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
        assert len(spanned(simplex)) == 4

    def test_fewer_points_than_the_dimension_span_nothing(self):
        assert spanned([P(0, 0, 0), P(1, 2, 3)]) == []
        assert spanned([P(5, 5)]) == []

    @pytest.mark.parametrize(
        "rows,planes",
        [
            # 13 points of the moment curve in dim 4
            ([(t, t**2, t**3, t**4) for t in range(1, 14)], 715),
            # 5 points in general position in dim 3
            ([(t, t**2, t**3) for t in range(1, 6)], 10),
        ],
    )
    def test_the_enumeration_runs_no_elimination(self, monkeypatch, rows, planes):
        # each prefix's kernel is updated from its parent's, not eliminated
        calls = []
        bareiss = geometry._bareiss

        def counted(rows):
            calls.append(len(rows))
            return bareiss(rows)

        monkeypatch.setattr(geometry, "_bareiss", counted)
        got = integer_spanned_hyperplanes(rows)
        assert len(got) == planes
        # in general position each hyperplane holds exactly d points
        assert {on.bit_count() for _, _, on in got} == {len(rows[0])}
        assert calls == []


class TestJson:
    def test_point_round_trip(self):
        p = P("1/3", -2, "7/5")
        row = point_to_json(p)
        assert row == ["1/3", "-2", "7/5"]
        assert point_from_json(row) == p

    def test_point_from_json_refuses_floats(self):
        with pytest.raises(ValueError, match="floats"):
            point_from_json([0.1, 0])

    def test_fraction_from_json(self):
        assert fraction_from_json("-3/6") == Fraction(-1, 2)
        assert fraction_from_json(4) == Fraction(4)
        assert fraction_from_json("-7") == Fraction(-7)
        assert fraction_from_json("1.5") == Fraction(3, 2)

    @pytest.mark.parametrize(
        "read,value",
        [
            (fraction_from_json, 0.5),
        ],
    )
    def test_json_readers_refuse_floats(self, read, value):
        with pytest.raises(ValueError, match="floats"):
            read(value)

    @pytest.mark.parametrize(
        "read,value",
        [
            (fraction_from_json, True),
            (point_from_json, [True, 0]),
            (point_from_json, [1, False]),
        ],
    )
    def test_json_readers_refuse_booleans(self, read, value):
        with pytest.raises(ValueError, match="booleans"):
            read(value)

    @pytest.mark.parametrize(
        "read,value",
        [
            (fraction_from_json, "1e3"),
            (fraction_from_json, "2E-1"),
            (point_from_json, ["1e10000000", 0]),
        ],
    )
    def test_json_readers_refuse_exponent_strings(self, read, value):
        with pytest.raises(ValueError, match="exponent"):
            read(value)

    @pytest.mark.parametrize(
        "read,value",
        [
            (fraction_from_json, "1/0"),
            (point_from_json, ["1/0", 1]),
        ],
    )
    def test_json_readers_refuse_zero_denominators(self, read, value):
        with pytest.raises(ValueError, match="bad"):
            read(value)

    def test_hyperplane_round_trip(self):
        h = Hyperplane(("2/3", 4), "1/6")
        doc = hyperplane_to_json(h)
        assert set(doc) == {"normal", "offset"}
        assert Hyperplane(tuple(doc["normal"]), doc["offset"]) == h
