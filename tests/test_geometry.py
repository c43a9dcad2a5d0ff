"""Exact rational geometry: canonical hyperplanes, ranks, hulls."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpole.geometry import (
    DegenerateHullError,
    HalfspaceSide,
    Hyperplane,
    RationalPoint,
    affine_hull_dim,
    containing_hyperplane,
    fraction_from_json,
    hull_frame,
    hyperplane_from_json,
    hyperplane_through,
    hyperplane_to_json,
    in_general_position,
    is_support_hyperplane,
    matrix_inverse,
    matrix_rank,
    point_from_json,
    point_to_json,
    rational_point,
    separates,
    side_of,
    spanned_hyperplanes,
)

P = rational_point


class TestRationalPoint:
    def test_coercion(self):
        p = P("1/3", 2, Fraction(5, 7))
        assert p.coords == (Fraction(1, 3), Fraction(2), Fraction(5, 7))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            P(0.5, 1)

    def test_arithmetic(self):
        a, b = P(1, "1/2"), P("1/3", 1)
        assert (a + b).coords == (Fraction(4, 3), Fraction(3, 2))
        assert (a - b).coords == (Fraction(2, 3), Fraction(-1, 2))
        assert (-a).coords == (Fraction(-1), Fraction(-1, 2))
        assert a.scaled("2/3").coords == (Fraction(2, 3), Fraction(1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P(1, 2) + P(1, 2, 3)

    def test_lex_order_and_hash(self):
        assert P(0, 9) < P(1, 0)
        assert P("2/4", 1) == P("1/2", 1)
        assert hash(P("2/4", 1)) == hash(P("1/2", 1))


class TestHyperplane:
    def test_canonical_form(self):
        # scaling the defining equation does not change the object
        assert Hyperplane((2, 2), 2) == Hyperplane((1, 1), 1)
        assert Hyperplane((-1, 0), 3) == Hyperplane((1, 0), -3)
        assert hash(Hyperplane((4, -2), 6)) == hash(Hyperplane((2, -1), 3))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Hyperplane((0, 0), 1)

    def test_side_of(self):
        h = Hyperplane((1, 0), 0)
        assert side_of(h, P(2, 5)) is HalfspaceSide.POSITIVE
        assert side_of(h, P(-1, 5)) is HalfspaceSide.NEGATIVE
        assert side_of(h, P(0, 5)) is HalfspaceSide.ON

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
        line = [P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]
        h = containing_hyperplane(line)
        assert h is not None
        assert all(side_of(h, p) is HalfspaceSide.ON for p in line)
        assert containing_hyperplane([P(0, 0), P(1, 0), P(0, 1)]) is None
        with pytest.raises(ValueError):
            containing_hyperplane([])

    def test_hull_frame_preserves_ratios(self):
        pts = [P(1, 1, 1), P(2, 3, 5), P(3, 5, 9)]
        frame = hull_frame(pts)
        assert [p.coords for p in frame] == [
            (Fraction(0),),
            (Fraction(1),),
            (Fraction(2),),
        ]

    def test_hull_frame_dimension_matches_hull(self):
        pts = [P(0, 0, 7), P(1, 0, 7), P(0, 1, 7), P(1, 1, 7)]
        frame = hull_frame(pts)
        assert all(p.dim == 2 for p in frame)
        assert affine_hull_dim(frame) == affine_hull_dim(pts) == 2

    def test_hull_frame_of_coincident_points(self):
        frame = hull_frame([P(4, 2), P(4, 2)])
        assert [p.dim for p in frame] == [0, 0]
        assert hull_frame([]) == []


class TestSeparationPredicates:
    def test_separates_is_strict(self):
        h = Hyperplane((1, 0), 0)
        assert separates(h, [P(1, 0), P(-1, 0)])
        assert not separates(h, [P(1, 0), P(0, 5)])
        assert not separates(h, [P(1, 0), P(2, 0)])
        assert not separates(h, [])

    def test_support_needs_contact(self):
        h = Hyperplane((1, 0), 0)
        assert is_support_hyperplane(h, [P(0, 1), P(1, 1)])
        assert not is_support_hyperplane(h, [P(1, 1), P(2, 1)])
        assert not is_support_hyperplane(h, [P(0, 0), P(1, 0), P(-1, 0)])

    def test_general_position(self):
        a = Hyperplane((1, 0), 0)
        b = Hyperplane((0, 1), 0)
        parallel = Hyperplane((1, 0), 5)
        assert in_general_position([])
        assert in_general_position([a, b])
        assert not in_general_position([a, a])
        assert not in_general_position([a, parallel])


class TestSpannedHyperplanes:
    def test_square_has_six_lines(self):
        square = [P(0, 0), P(1, 0), P(0, 1), P(1, 1)]
        lines = spanned_hyperplanes(square)
        assert len(lines) == 6
        assert lines == sorted(lines, key=Hyperplane.sort_key)

    def test_center_point_adds_no_new_lines(self):
        pts = [P(0, 0), P(1, 0), P(0, 1), P(1, 1), P("1/2", "1/2")]
        assert len(spanned_hyperplanes(pts)) == 6

    def test_triangle_has_three_lines(self):
        assert len(spanned_hyperplanes([P(0, 0), P(1, 0), P(0, 1)])) == 3

    def test_simplex_has_four_planes(self):
        simplex = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
        assert len(spanned_hyperplanes(simplex)) == 4

    def test_degenerate_hull_is_rejected(self):
        with pytest.raises(DegenerateHullError):
            spanned_hyperplanes([P(0, 0), P(1, 1), P(2, 2)])
        with pytest.raises(DegenerateHullError):
            spanned_hyperplanes([])

    def test_through_points_requires_exact_count(self):
        with pytest.raises(ValueError):
            hyperplane_through([P(0, 0)])
        assert hyperplane_through([P(0, 0), P(0, 0)]) is None
        h = hyperplane_through([P(0, 1), P(2, 1)])
        assert h == Hyperplane((0, 1), 1)


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

    @pytest.mark.parametrize(
        "read,value",
        [
            (fraction_from_json, 0.5),
            (hyperplane_from_json, {"normal": [0.1, 1], "offset": "0"}),
            (hyperplane_from_json, {"normal": ["1", 1], "offset": 0.25}),
        ],
    )
    def test_json_readers_refuse_floats(self, read, value):
        with pytest.raises(ValueError, match="floats"):
            read(value)

    def test_hyperplane_round_trip(self):
        h = Hyperplane(("2/3", 4), "1/6")
        doc = hyperplane_to_json(h)
        assert set(doc) == {"normal", "offset"}
        assert hyperplane_from_json(doc) == h
