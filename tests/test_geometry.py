"""Exact rational geometry: primitive hyperplanes, ranks, hulls."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole import geometry
from centerpole.cube import checked_coordinates
from centerpole.geometry import (
    affine_hull_dim,
    as_point,
    clear_denominators,
    _exact,
    containing_hyperplane,
    hyperplane_to_json,
    in_general_position,
    integer_inverse,
    integer_spanned_hyperplanes,
    matrix_rank,
    point_from_json,
    point_to_json,
    separates,
    side_of,
)
from rational_reference import dot, primitive_pair

P = lambda *c: as_point(c)


def containing(points):
    """``containing_hyperplane`` of rational points, scaled once, with
    its offset divided back by the scale."""
    scale, rows = clear_denominators(points)
    h = containing_hyperplane(rows)
    return None if h is None else (h[0], _exact(Fraction(h[1], scale)))


class TestAsPoint:
    """A rational point is the tuple of its coordinates, each an ``int``
    for an integer value and a reduced ``Fraction`` otherwise."""

    def test_coercion(self):
        p = P("1/3", 2, Fraction(5, 7))
        assert type(p) is tuple
        assert p == (Fraction(1, 3), 2, Fraction(5, 7))
        assert as_point(["1/3", "4/2", "10/14"]) == p

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            P(0.5, 1)

    def test_dimension_mismatch(self):
        h = ((1, 1), 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            side_of(h, P(1, 2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            separates(h, [P(1, 2), P(1, 2, 3)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            affine_hull_dim([P(1, 2), P(0, 0), P(1, 2, 3)])

    def test_a_canonical_tuple_reads_as_itself(self):
        p = P("1/3", 2)
        assert as_point(p) == p == (Fraction(1, 3), 2)
        assert as_point(list(p)) == p

    def test_a_checked_center_reads_as_itself(self):
        # a certifier center is the tuple checked_coordinates returns, so
        # geometry reads it without importing cube
        center = checked_coordinates([1, -2, 3])
        assert as_point(center) == center == (1, -2, 3)

    @pytest.mark.parametrize("value", ["12", {"a": 1}, 0.5, True, None])
    def test_refuses_anything_but_a_tuple_or_list(self, value):
        with pytest.raises(TypeError):
            as_point(value)

    @pytest.mark.parametrize("value", [0.5, True, False])
    def test_refuses_float_and_bool_coordinates(self, value):
        with pytest.raises(TypeError):
            as_point((value, 1))

    def test_equal_points_hash_equal(self):
        assert P("2/4", 1) == P("1/2", 1)
        assert hash(P("2/4", 1)) == hash(P("1/2", 1))
        table = {P(1, 0): "found"}
        assert table[P(Fraction(1), "0/5")] == "found"
        assert P(1, 1) not in table


class TestCanonicalNumberForm:
    """An integer value is stored as an ``int``, only a non-integer one
    as a ``Fraction``, whatever form it was given in."""

    @pytest.mark.parametrize("value", [1, Fraction(2, 2), "4/4", "-3", Fraction(-6, 2)])
    def test_integer_coordinates_are_ints(self, value):
        (v,) = P(value)
        assert type(v) is int
        assert v == Fraction(value)

    @pytest.mark.parametrize("value", ["1/2", Fraction(3, 6), "-4/6"])
    def test_other_coordinates_are_reduced_fractions(self, value):
        (v,) = P(value)
        assert type(v) is Fraction
        assert v == Fraction(value)

    def test_equality_and_hash_agree_across_input_forms(self):
        forms = [
            P(1, 0, "1/2"),
            P(Fraction(2, 2), Fraction(0), Fraction(1, 2)),
            P("4/4", "0/5", "2/4"),
            as_point([1, 0, "1/2"]),
        ]
        assert len(set(forms)) == 1
        assert len({hash(p) for p in forms}) == 1
        assert {tuple(map(type, p)) for p in forms} == {(int, int, Fraction)}

    def test_hyperplane_entries(self):
        # a normal is a tuple of ints; an offset is an int when it is an
        # integer and a reduced Fraction only when it is not
        normal, offset = containing([P(0, 3), P(2, 2)])  # x + 2y = 6
        assert normal == (1, 2) and offset == 6
        assert all(type(v) is int for v in normal + (offset,))
        normal, offset = containing([P(0, "1/2"), P("1/6", 0)])  # 3x + y = 1/2
        assert normal == (3, 1) and offset == Fraction(1, 2)
        assert [type(v) for v in normal] == [int, int]
        assert type(offset) is Fraction
        # fractional points whose hyperplane has an integer offset
        normal, offset = containing([P("1/2", "5/4"), P("3/2", "3/4")])
        assert (normal, offset) == ((1, 2), 3)
        assert all(type(v) is int for v in normal + (offset,))
        # -2x + 4y = 6 from two spans, and the reference pair of the equation
        assert containing([P(0, "3/2"), P(1, 2)]) == containing([P(-3, 0), P(3, 3)])
        assert containing([P(-3, 0), P(3, 3)]) == primitive_pair((-2, 4), 6)


class TestHyperplane:
    def test_canonical_form(self):
        # one pair for one hyperplane, whichever points span it: the
        # primitive normal (gcd 1, first nonzero entry positive)
        line = containing([P(0, 1), P(1, 0)])
        assert type(line) is tuple
        assert line == containing([P(2, -1), P(-3, 4)]) == ((1, 1), 1)
        assert hash(line) == hash(containing([P(-3, 4), P(2, -1)]))
        assert containing([P(-3, 0), P(-3, 5)]) == ((1, 0), -3)
        assert containing([P(0, "1/2"), P("1/2", 0)]) == ((1, 1), Fraction(1, 2))

    def test_rejects_zero_normal(self):
        # a zero normal is no hyperplane: no family holding one is in
        # general position
        assert not in_general_position([((0, 0), 1)])
        assert not in_general_position([((1, 0), 0), ((0, 0), 0)])

    def test_side_of(self):
        h = ((1, 0), 0)
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
        point = as_point(data.draw(st.lists(rationals, min_size=d, max_size=d)))
        on = data.draw(st.booleans())
        offset = dot(normal, point) if on else data.draw(rationals)
        h_normal, h_offset = h = primitive_pair(normal, offset)
        value = dot(h_normal, point) - h_offset
        expected = 1 if value > 0 else -1 if value < 0 else 0
        assert side_of(h, point) == expected
        # and on the rational pair as drawn
        raw = dot(normal, point) - offset
        assert side_of((tuple(normal), offset), point) == (raw > 0) - (raw < 0)
        if on:
            assert expected == 0

    @settings(max_examples=200)
    @given(st.data())
    def test_the_scaled_points_keep_every_side(self, data):
        # the certificate check's premise: the sign on the points times
        # their common scale, against the offset times that scale, is the
        # sign of normal . p - offset summed as Fractions
        d = data.draw(st.integers(1, 4))
        rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
        integers = st.lists(st.integers(-9, 9), min_size=d, max_size=d)
        normal = data.draw(integers.filter(any))
        rows = st.lists(rationals, min_size=d, max_size=d)
        points = [as_point(r) for r in data.draw(st.lists(rows, min_size=1, max_size=4))]
        offset = data.draw(st.one_of(rationals, st.just(dot(normal, points[0]))))
        scale, scaled = clear_denominators(points)
        h = (tuple(normal), offset * scale)
        for p, row in zip(points, scaled):
            value = dot(normal, p) - offset
            assert side_of(h, row) == (value > 0) - (value < 0)

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        st.integers(-9, 9),
        st.integers(-7, 7).filter(lambda v: v != 0),
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    )
    def test_scaled_equations_agree_everywhere(self, normal, offset, factor, point):
        if all(v == 0 for v in normal):
            return
        point = tuple(point[: len(normal)])
        scaled = (tuple(factor * v for v in normal), factor * offset)
        sign = 1 if factor > 0 else -1
        assert side_of(scaled, point) == sign * side_of((tuple(normal), offset), point)
        assert primitive_pair(*scaled) == primitive_pair(normal, offset)


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

    def test_integer_inverse(self):
        m = [[0, 2, 1], ["1/2", 0, 3], [1, 1, 1]]
        den, rows = integer_inverse(m)
        assert den > 0
        assert all(type(v) is int for row in rows for v in row)
        assert [
            [sum(Fraction(m[i][t]) * rows[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ] == [[den * (i == j) for j in range(3)] for i in range(3)]
        den, rows = integer_inverse([[4]])
        assert Fraction(rows[0][0], den) == Fraction(1, 4)
        # the last pivot is the determinant -7; den and the rows are negated
        assert integer_inverse([[2, 1], [1, -3]]) == (7, [[3, 1], [1, -2]])

    @pytest.mark.parametrize(
        "m", [[[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]]
    )
    def test_integer_inverse_rejects_singular_matrices(self, m):
        with pytest.raises(ValueError, match="singular"):
            integer_inverse(m)

    def test_affine_hull_dim(self):
        assert affine_hull_dim([]) == -1
        assert affine_hull_dim([P(3, 4)]) == 0
        assert affine_hull_dim([P(0, 0), P(2, 2), P(5, 5)]) == 1
        assert affine_hull_dim([P(0, 0), P(1, 0), P(0, 1)]) == 2

    def test_containing_hyperplane(self):
        line = [P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]
        h = containing(line)
        assert h is not None
        assert all(side_of(h, p) == 0 for p in line)
        assert containing([P(0, 0), P(1, 0), P(0, 1)]) is None
        # the offset is read back through the scale of the rows
        assert containing([P("1/2", 0), P(0, "1/2"), P("1/4", "1/4")]) == (
            (1, 1), Fraction(1, 2)
        )
        with pytest.raises(ValueError):
            containing_hyperplane([])


class TestSeparationPredicates:
    def test_separates_is_strict(self):
        h = ((1, 0), 0)
        assert separates(h, [P(1, 0), P(-1, 0)])
        assert not separates(h, [P(1, 0), P(0, 5)])
        assert not separates(h, [P(1, 0), P(2, 0)])
        assert not separates(h, [])

    def test_general_position(self):
        a = ((1, 0), 0)
        b = ((0, 1), 0)
        parallel = ((1, 0), 5)
        assert in_general_position([])
        assert in_general_position([a, b])
        assert not in_general_position([a, a])
        assert not in_general_position([a, parallel])
        # distinctness follows from the rank test: a hyperplane given again
        # or a parallel one has a normal dependent on the others
        a, b, c = ((n, 2) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert in_general_position([a, b, c])
        assert not in_general_position([a, b, primitive_pair((-2, 0, 0), -4)])
        assert not in_general_position([a, b, ((1, 0, 0), Fraction(1, 3))])
        assert not in_general_position([b, a, c, a])


def spanned(points):
    """``integer_spanned_hyperplanes`` of rational points, as primitive
    ``(normal, offset)`` pairs of the points themselves.  Each ``on``
    mask must hold exactly the points that ``side_of`` puts on its
    hyperplane."""
    scale, rows = clear_denominators(points)
    planes = []
    for normal, offset, on in integer_spanned_hyperplanes(rows):
        h = primitive_pair(normal, Fraction(offset, scale))
        assert on == sum(
            1 << i for i, p in enumerate(points) if side_of(h, p) == 0
        )
        planes.append(h)
    return planes


@st.composite
def flat_integer_sets(draw):
    """Integer points in dimensions 2-4 on a flat of dimension 0 to d:
    a base point plus integer combinations of k drawn directions.  The
    directions may be dependent and the combinations may repeat, so the
    hull can be lower still and points can repeat."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(0, d))
    vector = st.tuples(*[st.integers(-3, 3)] * d)
    base = draw(vector)
    directions = draw(st.lists(vector, min_size=k, max_size=k))
    weights = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=d + 4)
    )
    return [
        tuple(b + sum(w * v[i] for w, v in zip(ws, directions)) for i, b in enumerate(base))
        for ws in weights
    ]


class TestSpannedHyperplanes:
    def test_square_has_six_lines(self):
        square = [P(0, 0), P(1, 0), P(0, 1), P(1, 1)]
        lines = spanned(square)
        assert len(lines) == 6
        assert lines == sorted(lines)
        assert ((1, -1), 0) in lines

    def test_order_is_by_primitive_normal_not_by_lead_one_normal(self):
        # divided by its lead, the normal (2, 1) is (1, 1/2), which sorts
        # before (1, 1); the primitive normals keep their own order
        pts = [(0, 0), (1, -2), (1, -1)]
        got = integer_spanned_hyperplanes(pts)
        expected = [((1, 0), 1), ((1, 1), 0), ((2, 1), 0)]
        assert [(normal, offset) for normal, offset, _ in got] == expected
        lines = spanned([P(*p) for p in pts])
        assert lines == sorted(lines) == expected
        assert sorted(tuple(Fraction(v, n[0]) for v in n) for n, _ in lines) == [
            (1, 0), (1, Fraction(1, 2)), (1, 1)
        ]

    def test_center_point_adds_no_new_lines(self):
        pts = [P(0, 0), P(1, 0), P(0, 1), P(1, 1), P("1/2", "1/2")]
        assert len(spanned(pts)) == 6

    def test_triangle_has_three_lines(self):
        assert len(spanned([P(0, 0), P(1, 0), P(0, 1)])) == 3
        # a line needs two distinct points
        assert spanned([P(0, 1), P(2, 1)]) == [((0, 1), 1)]
        assert spanned([P(0, 0), P(0, 0)]) == []

    def test_simplex_has_four_planes(self):
        simplex = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
        assert len(spanned(simplex)) == 4

    @settings(max_examples=150, deadline=None)
    @given(flat_integer_sets())
    def test_the_count_of_hyperplanes_is_the_hull_test(self, rows):
        # the T-shape decision reads its hull test off this count
        d = len(rows[0])
        got = integer_spanned_hyperplanes(rows)
        hull = affine_hull_dim(rows)
        assert (len(got) >= 2, len(got) == 1, not got) == (
            hull == d, hull == d - 1, hull < d - 1
        )
        if len(got) == 1:
            ((normal, offset, on),) = got
            assert (normal, offset) == containing_hyperplane(rows)
            assert on == (1 << len(rows)) - 1

    def test_points_on_the_line_are_refused(self):
        with pytest.raises(ValueError, match="dimension 2 or more, got 1"):
            integer_spanned_hyperplanes([(0,), (1,)])

    def test_no_points_are_refused(self):
        with pytest.raises(ValueError, match="^need at least one point$"):
            integer_spanned_hyperplanes([])

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

    def test_exact_reads_integers_and_fraction_strings(self):
        for value, want in [("-3/6", Fraction(-1, 2)), (4, 4), ("-7", -7), ("1.5", Fraction(3, 2))]:
            got = _exact(value)
            assert (got, type(got)) == (want, type(want))

    @pytest.mark.parametrize(
        "read,value,error",
        [
            (_exact, 0.5, TypeError),
            (point_from_json, [0, 0.5], ValueError),
        ],
    )
    def test_readers_refuse_floats(self, read, value, error):
        with pytest.raises(error, match="floats"):
            read(value)

    @pytest.mark.parametrize(
        "read,value,error",
        [
            (_exact, True, TypeError),
            (point_from_json, [True, 0], ValueError),
            (point_from_json, [1, False], ValueError),
        ],
    )
    def test_readers_refuse_booleans(self, read, value, error):
        with pytest.raises(error, match="booleans"):
            read(value)

    @pytest.mark.parametrize(
        "read,value",
        [
            (_exact, "1e3"),
            (_exact, "2E-1"),
            (point_from_json, ["1e10000000", 0]),
        ],
    )
    def test_readers_refuse_exponent_strings(self, read, value):
        with pytest.raises(ValueError, match="exponent"):
            read(value)

    @pytest.mark.parametrize(
        "read,value,message",
        [
            (_exact, "1/0", "^'1/0' has a zero denominator$"),
            (point_from_json, ["1/0", 1], r"^bad point \['1/0', 1\]: '1/0' has a zero"),
        ],
    )
    def test_readers_refuse_zero_denominators(self, read, value, message):
        with pytest.raises(ValueError, match=message):
            read(value)

    def test_hyperplane_round_trip(self):
        h = primitive_pair(("2/3", 4), "1/6")
        doc = hyperplane_to_json(h)
        assert doc == {"normal": ["1", "6"], "offset": "1/4"}
        assert (tuple(map(int, doc["normal"])), _exact(doc["offset"])) == h


def package_imports(source: str) -> list[int]:
    """Lines that import a module of the package: a relative import, or
    an absolute one of ``centerpole`` or a submodule of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else ["centerpole"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(n == "centerpole" or n.startswith("centerpole.") for n in names):
            lines.append(node.lineno)
    return lines


class TestLeafModule:
    """``geometry`` is the package's leaf: it imports no other module of
    the package and holds no class, so its values are plain tuples."""

    def test_the_detector_sees_each_form(self):
        for source in (
            "from .cube import checked_coordinates",
            "from . import cube",
            "from centerpole.cube import checked_coordinates",
            "import centerpole.cube",
            "import centerpole",
        ):
            assert package_imports(source) == [1], source
        assert package_imports("from fractions import Fraction\nimport math") == []

    def test_geometry_imports_no_package_module_and_holds_no_class(self):
        source = Path(geometry.__file__).read_text(encoding="utf-8")
        assert package_imports(source) == []
        tree = ast.parse(source)
        assert [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []
