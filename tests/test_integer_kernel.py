"""The integer kernel against the rational one it replaced.

``geometry`` does its linear algebra on integers (fraction-free Bareiss
elimination on rows with cleared denominators) and ``tshape`` searches
over primitive integer hyperplanes with precomputed signs.  The code
below, with the row reduction it takes from ``rational_reference``, is
the earlier ``Fraction`` implementation, kept here only as a
reference: Gauss-Jordan elimination that divides by each pivot,
spanned hyperplanes built one subset at a time, and a cover search that
sums ``normal . p - offset`` as a ``Fraction`` for every side test.  The
reference takes its sides and its separation test from that sum alone,
not from ``geometry.side_of`` or ``geometry.separates``, so it shares no
predicate with the code it checks.  Its hyperplanes are put in the
package's form, a primitive integer normal and an exact offset, by
``primitive_pair``.  Every public result must be equal to it, in the
same order, and every certificate must serialize to the same bytes.
"""
import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centerpole.geometry import (
    _spanned_by_walk,
    affine_hull_dim,
    as_point,
    clear_denominators,
    containing_hyperplane,
    integer_inverse,
    integer_spanned_hyperplanes,
    matrix_rank,
)
from centerpole.tshape import (
    TShapeCertificate,
    certificate_to_json,
    is_t_shaped,
    moment_curve_points,
)
from rational_reference import (
    dot,
    minus,
    primitive_pair,
    ref_matrix_inverse,
    ref_row_reduce,
)

# --- the rational reference --------------------------------------------


def ref_matrix_rank(rows):
    return ref_row_reduce([[Fraction(v) for v in row] for row in rows])


def ref_affine_hull_dim(points):
    if not points:
        return -1
    return ref_row_reduce([list(minus(p, points[0])) for p in points[1:]])


@cache
def ref_hyperplane_through(points):
    """The hyperplane through the tuple of points ``points``, or None.
    Cached: grid sets repeat their subsets within and across examples."""
    d = len(points[0])
    base = points[0]
    work = [list(minus(p, base)) for p in points[1:]]
    rank = ref_row_reduce(work)
    if rank != d - 1:
        return None
    pivot_cols = [next(c for c in range(d) if work[r][c] != 0) for r in range(rank)]
    free_col = next(c for c in range(d) if c not in pivot_cols)
    normal = [Fraction(0)] * d
    normal[free_col] = Fraction(1)
    for r, pc in enumerate(pivot_cols):
        normal[pc] = -work[r][free_col]
    return primitive_pair(normal, dot(normal, base))


def ref_containing_hyperplane(points):
    d = len(points[0])
    base = points[0]
    work = [list(minus(p, base)) for p in points[1:]]
    rank = ref_row_reduce(work)
    if rank >= d:
        return None
    pivot_cols = [next(c for c in range(d) if work[r][c] != 0) for r in range(rank)]
    free_col = next(c for c in range(d) if c not in pivot_cols)
    normal = [Fraction(0)] * d
    normal[free_col] = Fraction(1)
    for r, pc in enumerate(pivot_cols):
        normal[pc] = -work[r][free_col]
    return primitive_pair(normal, dot(normal, base))


def ref_spanned_hyperplanes(points):
    d = len(points[0])
    found = set()
    for subset in combinations(points, d):
        h = ref_hyperplane_through(subset)
        if h is not None:
            found.add(h)
    return sorted(found)


def ref_side(h, p):
    """The sign of normal . p - offset, summed as a ``Fraction``."""
    normal, offset = h
    value = dot(normal, p) - offset
    return (value > 0) - (value < 0)


def ref_separates(h, points):
    sides = {ref_side(h, p) for p in points}
    return 1 in sides and -1 in sides


def ref_search_cover(points):
    budget = len(points[0]) - 1
    candidates = []
    for h in ref_spanned_hyperplanes(points):
        covered = frozenset(
            i for i, p in enumerate(points) if ref_side(h, p) == 0
        )
        candidates.append((h, covered))
    max_cover = max(len(c) for _, c in candidates)
    dead = set()

    def extend(residual, chosen):
        if not residual:
            return [h for h, _ in chosen]
        remaining = budget - len(chosen)
        if remaining <= 0 or len(residual) > remaining * max_cover:
            return None
        key = (residual, frozenset(h[0] for h, _ in chosen))
        if key in dead:
            return None
        normals = [h[0] for h, _ in chosen]
        residual_pts = [points[i] for i in residual]
        for h, covered in candidates:
            if not covered & residual:
                continue
            if chosen and ref_matrix_rank(normals + [h[0]]) != len(normals) + 1:
                continue
            if ref_separates(h, residual_pts):
                continue
            got = extend(residual - covered, chosen + [(h, covered)])
            if got is not None:
                return got
        dead.add(key)
        return None

    hyperplanes = extend(frozenset(range(len(points))), [])
    if hyperplanes is None:
        return None
    assignment = {
        p: next(i for i, h in enumerate(hyperplanes) if ref_side(h, p) == 0)
        for p in points
    }
    return TShapeCertificate(tuple(hyperplanes), assignment)


def ref_is_t_shaped(points):
    """(verdict, detail, certificate) as the rational decision gave them."""
    distinct = list(dict.fromkeys(points))
    if not distinct:
        return True, "empty set, trivially T-shaped", TShapeCertificate((), {})
    if len(distinct[0]) == 1:
        return False, "a nonempty subset of the line is never T-shaped", None
    if ref_affine_hull_dim(distinct) < len(distinct[0]):
        cert = TShapeCertificate(
            (ref_containing_hyperplane(distinct),), {p: 0 for p in distinct}
        )
        return True, "one hyperplane carries the whole set", cert
    cert = ref_search_cover(distinct)
    if cert is None:
        return False, "no certificate found under spanned-hyperplane search", None
    return True, f"covered by {len(cert.hyperplanes)} hyperplanes", cert


# --- strategies ----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def point_sets(draw, dims=(2, 3, 4)):
    """Rational point sets with negative coordinates, denominators above
    1, duplicates, and (when ``flat``) a hull inside a hyperplane."""
    d = draw(st.sampled_from(dims))
    pool = draw(
        st.lists(st.tuples(*[rationals] * d), min_size=2, max_size=d + 5, unique=True)
    )
    extra = draw(st.lists(st.sampled_from(pool), max_size=3))
    rows = draw(st.permutations(pool + extra))
    if d > 1 and draw(st.booleans()) and draw(st.booleans()):
        # x_d = 2 x_1 - (x_2 + ... + x_(d-1)) / 3 + 1: all on one hyperplane
        rows = [r[:-1] + (2 * r[0] - sum(r[1:-1], Fraction(0)) / 3 + 1,) for r in rows]
    return [as_point(r) for r in rows]


def cleared(points):
    """A point set times the lcm of its denominators: all integers, with
    the same flats, repeats and order."""
    m = lcm(*(Fraction(v).denominator for p in points for v in p))
    return [as_point([m * v for v in p]) for p in points]


@st.composite
def grid_sets(draw):
    """Up to d+6 integer points of {-1,0,1}^d, repeats allowed, dims 2-5:
    the enumeration takes d >= 2, as ``is_t_shaped`` decides the line
    without it."""
    d = draw(st.integers(2, 5))
    cell = st.tuples(*[st.integers(-1, 1)] * d)
    return draw(st.lists(cell, min_size=1, max_size=d + 6))


def seeded_rows(seed, d, n, bound):
    """``n`` points of [-bound, bound]^d drawn by ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(n)]


def scaled_and_moved(sets):
    """A drawn set with a scale m in 1-5 and an integer shift t."""
    return sets.flatmap(
        lambda rows: st.tuples(
            st.just(rows),
            st.integers(1, 5),
            st.tuples(*[st.integers(-3, 3)] * len(rows[0])),
        )
    )


@st.composite
def matrices(draw, square=False):
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # make the last row a combination of the others: singular
        c = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(m)]
    return rows


def assert_incidence(hyperplanes, points):
    """Each ``on`` mask holds exactly the points on its hyperplane, by
    the reference's own ``Fraction`` sum.  ``points`` are the points
    before scaling; a common positive scale keeps every incidence."""
    scale = clear_denominators(points)[0]
    for normal, offset, on in hyperplanes:
        h = (normal, Fraction(offset, scale))
        assert on == sum(1 << i for i, p in enumerate(points) if ref_side(h, p) == 0)


def assert_same_decision(points):
    verdict, detail, cert = ref_is_t_shaped(points)
    got = is_t_shaped(points)
    assert (got.t_shaped, got.detail) == (verdict, detail)
    if cert is None:
        assert got.certificate is None
    else:
        assert json.dumps(certificate_to_json(got.certificate)) == json.dumps(
            certificate_to_json(cert)
        )


# --- the tests -----------------------------------------------------------


class TestKernelAgainstTheRationalReference:
    @given(matrices())
    def test_matrix_rank(self, rows):
        assert matrix_rank(rows) == ref_matrix_rank(rows)

    @given(matrices(square=True))
    def test_integer_inverse(self, rows):
        try:
            expected = ref_matrix_inverse(rows)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                integer_inverse(rows)
        else:
            den, got = integer_inverse(rows)
            assert den > 0
            assert all(type(v) is int for row in got for v in row)
            assert [[Fraction(v, den) for v in row] for row in got] == expected

    @given(point_sets(dims=(1, 2, 3, 4)))
    def test_hulls_and_hyperplanes(self, points):
        assert affine_hull_dim(points) == ref_affine_hull_dim(points)
        scale, rows = clear_denominators(points)
        got = containing_hyperplane(rows)
        if got is not None:
            # the offset is that of the scaled rows
            got = got[0], Fraction(got[1], scale)
        assert got == ref_containing_hyperplane(points)

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_spanned_hyperplanes_in_the_same_order(self, points):
        # flat hulls included: the search only sees full-dimensional sets
        scale, rows = clear_denominators(points)
        got = integer_spanned_hyperplanes(rows)
        assert [
            (normal, Fraction(offset, scale)) for normal, offset, _ in got
        ] == ref_spanned_hyperplanes(points)
        assert_incidence(got, points)

    @settings(max_examples=200, deadline=None)
    @given(grid_sets())
    def test_spanned_hyperplanes_of_grid_sets(self, rows):
        # collinear and coplanar prefixes, hyperplanes through more than d points
        points = [as_point(r) for r in rows]
        got = integer_spanned_hyperplanes(rows)
        assert [h[:2] for h in got] == ref_spanned_hyperplanes(points)
        assert_incidence(got, points)

    def test_spanned_hyperplanes_in_dimension_ten(self):
        # eleven points on x_10 = 2 x_1 - x_2 + 1 and one off it: a
        # prefix of nine points takes eight kernel updates, seven of
        # them divided by the pivot before
        rng = random.Random(10)
        rows = [tuple(rng.randint(-3, 3) for _ in range(9)) for _ in range(12)]
        rows = [r + (2 * r[0] - r[1] + 1 + (i == 11),) for i, r in enumerate(rows)]
        points = [as_point(r) for r in rows]
        got = integer_spanned_hyperplanes(rows)
        assert [h[:2] for h in got] == ref_spanned_hyperplanes(points)
        assert_incidence(got, points)
        assert sorted(on.bit_count() for _, _, on in got) == [10] * 55 + [11]

    @pytest.mark.parametrize(
        "rows",
        [
            # shaped like the T-shape benchmark's sets: t_3 - 1 points in
            # [-12, 12]^3 and t_4 - 1 points in [-9, 9]^4
            *(seeded_rows(seed, 3, 5, 12) for seed in range(1, 4)),
            *(seeded_rows(seed, 4, 11, 9) for seed in range(1, 4)),
            # the moment-curve witnesses for n = 3 and n = 4
            moment_curve_points(3, 7, range(1, 8)),
            moment_curve_points(4, 13, range(1, 14)),
            # p, q, r collinear at indices 1, 4, 6, and a repeated point
            [(3, -1, 0, 2), (1, 1, 1, 1), (0, 2, -1, 5), (4, 0, 0, -3),
             (3, 5, 7, 9), (-2, 7, 1, 0), (5, 9, 13, 17), (0, 2, -1, 5)],
            # 30 points on one plane of R^3: 4060 triples, one hyperplane
            [(x, y, 2 * x - 3 * y + 5) for x in range(6) for y in range(5)],
            # entries near 2^40, whose minors and normals are far past 2^63
            *(
                [tuple(sign * 2**40 + v for v in row) for row in rows]
                for rows in (seeded_rows(7, 3, 7, 3), seeded_rows(7, 4, 9, 3))
                for sign in (1, -1)
            ),
        ],
    )
    def test_closed_forms_equal_the_kernel_walk(self, rows):
        # dimensions 3 and 4 skip the walk; it stays the route of every
        # other d, and the reference for these point counts and sizes
        assert integer_spanned_hyperplanes(rows) == _spanned_by_walk(rows)

    @settings(max_examples=100, deadline=None)
    @given(grid_sets().flatmap(
        lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))
    ))
    def test_spanned_hyperplanes_ignore_the_input_order(self, pair):
        rows, order = pair
        got = integer_spanned_hyperplanes(rows)
        shuffled = integer_spanned_hyperplanes([rows[i] for i in order])
        assert [h[:2] for h in shuffled] == [h[:2] for h in got]
        # point i of the shuffled rows is point order[i] of the rows
        for (_, _, on), (_, _, moved) in zip(got, shuffled):
            assert moved == sum(1 << i for i, j in enumerate(order) if on >> j & 1)

    @settings(max_examples=100, deadline=None)
    @given(scaled_and_moved(grid_sets()))
    def test_spanned_hyperplanes_ignore_scaling_and_translation(self, case):
        rows, m, t = case
        got = integer_spanned_hyperplanes(rows)
        scaled = integer_spanned_hyperplanes([[m * x for x in r] for r in rows])
        moved = integer_spanned_hyperplanes(
            [[x + y for x, y in zip(r, t)] for r in rows]
        )
        assert [(n, on) for n, _, on in scaled] == [(n, on) for n, _, on in got]
        assert [(n, on) for n, _, on in moved] == [(n, on) for n, _, on in got]
        assert [off for _, off, _ in scaled] == [m * off for _, off, _ in got]
        assert [off for _, off, _ in moved] == [
            off + sum(a * b for a, b in zip(n, t)) for n, off, _ in got
        ]

    @settings(max_examples=100, deadline=None)
    @given(scaled_and_moved(point_sets()))
    def test_decision_ignores_scaling_and_translation(self, case):
        # the search tries its candidates in the same order, so it finds
        # the same cover: its primitive normals do not move
        points, m, t = case

        def decided(pts):
            got = is_t_shaped(pts)
            normals = got.certificate and [n for n, _ in got.certificate.hyperplanes]
            return got.t_shaped, got.detail, normals

        expected = decided(points)
        assert decided([as_point([m * x for x in p]) for p in points]) == expected
        assert decided([as_point([x + y for x, y in zip(p, t)]) for p in points]) == (
            expected
        )

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(point_sets(), point_sets().map(cleared)))
    def test_same_verdict_detail_and_certificate_bytes(self, points):
        # all-integer sets too: they skip clear_denominators' Fraction reader
        assert_same_decision(points)

    @given(grid_sets(), st.data())
    def test_two_enumerated_normals_are_equal_exactly_when_dependent(
        self, rows, data
    ):
        # the search's independence test against one chosen normal
        hyperplanes = integer_spanned_hyperplanes(rows)
        assume(hyperplanes)
        pick = st.sampled_from(hyperplanes)
        (a, _, _), (b, _, _) = data.draw(pick), data.draw(pick)
        assert (a == b) == (matrix_rank([a, b]) == 1)

    @pytest.mark.parametrize(
        "rows",
        [
            # moment curves: "no" in dims 2, 3 and 4
            [(t, t * t) for t in range(1, 4)],
            [(t, t**2, t**3) for t in range(1, 8)],
            [(t, t**2, t**3, t**4) for t in range(1, 14)],
            # sets on two parallel planes, which only the independence
            # test keeps from being a cover
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
            # a cube with a scaled, shifted copy of one face
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
            + [
                (Fraction(1, 2), Fraction(y, 3), Fraction(z, 3))
                for y in (1, 2)
                for z in (1, 2)
            ],
            # two planes in R^4 with fractional offsets
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (Fraction(-1, 2), Fraction(3, 2), 5, Fraction(7, 3)),
             (2, -1, 5, Fraction(7, 3)), (0, 0, 5, Fraction(7, 3))],
        ],
    )
    def test_known_sets(self, rows):
        assert_same_decision([as_point(r) for r in rows])


integer_matrices = st.integers(0, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-50, 50), min_size=m, max_size=m), max_size=4)
)


class TestClearDenominatorsOnIntegers:
    """Rows of exact ints skip the Fraction reader: scale 1 and fresh
    copies of the rows."""

    @given(integer_matrices)
    def test_same_scale_and_rows_as_the_fraction_path(self, rows):
        as_fractions = [[Fraction(v) for v in row] for row in rows]
        got = clear_denominators(rows)
        assert got == clear_denominators(as_fractions) == (1, rows)
        assert all(type(v) is int for row in got[1] for v in row)

    def test_changing_the_result_leaves_the_input_rows(self):
        rows = [[1, 2], [3, 4]]
        _, got = clear_denominators(rows)
        got[0][0] = 9
        got[1].append(5)
        got.append([6, 7])
        assert rows == [[1, 2], [3, 4]]
        # the elimination extends and swaps the rows it is given
        assert integer_inverse(rows) == (2, [[-4, 2], [3, -1]])
        assert matrix_rank(rows) == 2
        assert rows == [[1, 2], [3, 4]]

    def test_rows_mixing_ints_and_fractions(self):
        rows = [[1, Fraction(1, 2)], [Fraction(2, 3), 4]]
        assert clear_denominators(rows) == (6, [[6, 3], [4, 24]])
        assert clear_denominators([[2, 3], [Fraction(-5, 4), 0]]) == (
            4, [[8, 12], [-5, 0]]
        )

    @pytest.mark.parametrize("rows", [[[True, 2]], [[1, 2], [0.5, 1]], [[1.0]]])
    def test_bools_and_floats_still_raise(self, rows):
        with pytest.raises(TypeError):
            clear_denominators(rows)
