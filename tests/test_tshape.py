"""T-shape membership, decisions and certificates."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centerpole import geometry
from centerpole.geometry import (
    affine_hull_dim,
    as_point,
    clear_denominators,
)
from centerpole import tshape
from centerpole.tshape import (
    TShapeCertificate,
    certificate_to_json,
    is_t_shaped,
    moment_curve_points,
)
from rational_reference import dot, is_in_Tn, primitive_pair

P = lambda *c: as_point(c)


class TestMembership:
    def test_base_case_is_the_origin(self):
        assert is_in_Tn((0,), 1)
        assert not is_in_Tn((1,), 1)
        assert not is_in_Tn(("-1/2",), 1)

    def test_plane_with_upward_ray(self):
        assert is_in_Tn((5, 0), 2)
        assert is_in_Tn((-3, 0), 2)
        assert is_in_Tn((0, 7), 2)
        assert not is_in_Tn((0, -1), 2)
        assert not is_in_Tn((3, 1), 2)

    def test_third_level_recursion(self):
        assert is_in_Tn((7, 0, 2), 3)
        assert is_in_Tn((0, 4, 1), 3)
        assert is_in_Tn((9, -6, 0), 3)
        assert not is_in_Tn((1, 2, 3), 3)
        assert not is_in_Tn((1, 0, -2), 3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            is_in_Tn((0, 0), 1)
        with pytest.raises(ValueError):
            is_in_Tn((0,), 0)


class TestDecisions:
    def test_empty_set(self):
        res = is_t_shaped([])
        assert res.t_shaped
        assert res.certificate is not None
        assert res.certificate.hyperplanes == ()

    def test_nonempty_line_subsets_never_qualify(self):
        assert not is_t_shaped([P(0)]).t_shaped
        assert not is_t_shaped([P(2), P(-5)]).t_shaped

    def test_two_points_in_the_plane(self):
        res = is_t_shaped([P(0, 0), P(3, 1)])
        assert res.t_shaped
        assert len(res.certificate.hyperplanes) == 1

    def test_collinear_points_in_the_plane(self):
        res = is_t_shaped([P(0, 0), P(1, 1), P(7, 7)])
        assert res.t_shaped

    def test_triangle_is_not_t_shaped(self):
        res = is_t_shaped([P(0, 0), P(1, 0), P(0, 1)])
        assert not res.t_shaped
        assert res.certificate is None

    def test_duplicates_are_ignored(self):
        res = is_t_shaped([P(0, 0), P(0, 0), P(3, 1), P(3, 1)])
        assert res.t_shaped

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            is_t_shaped([P(0, 0), P(0, 0, 0)])

    def test_two_plane_cover_in_space(self):
        pts = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)]
        res = is_t_shaped(pts)
        assert res.t_shaped
        assert len(res.certificate.hyperplanes) <= 2
        assert res.certificate.verify([p for p in pts])

    def test_sample_drawn_from_the_model_set_is_t_shaped(self):
        pts = [(1, 2, 0), (-3, 5, 0), (2, 0, 1), (4, 0, 7), (0, 0, 3)]
        assert all(is_in_Tn(p, 3) for p in pts)
        assert is_t_shaped([P(*p) for p in pts]).t_shaped

    def test_accepts_raw_coordinate_rows(self):
        assert is_t_shaped([(0, 0), (3, 1)]).t_shaped


class TestCertificates:
    # x = 0 holds the last three points, z = 0 the first two and the last
    SPLIT = [P(1, 0, 0), P(2, 1, 0), P(0, 0, 1), P(0, 0, -1), P(0, 5, 0)]
    HX = ((1, 0, 0), 0)
    HZ = ((0, 0, 1), 0)

    def test_assignment_must_point_to_an_incident_hyperplane(self):
        pts = [P(0, 0), P(3, 1)]
        cert = is_t_shaped(pts).certificate
        wrong = TShapeCertificate(
            hyperplanes=cert.hyperplanes,
            assignment={p: 5 for p in pts},
        )
        assert cert.verify(pts)
        assert not wrong.verify(pts)

    def test_verify_rejects_a_repeated_or_a_parallel_hyperplane(self):
        # each point is on the first hyperplane, so only general position
        # can refuse these covers
        pts = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0)]
        (h,) = is_t_shaped(pts).certificate.hyperplanes
        normal, offset = h
        parallel = (normal, offset + 1)
        for second in (h, parallel):
            cert = TShapeCertificate((h, second), {p: 0 for p in pts})
            assert not cert.verify(pts)

    def test_verify_rejects_missing_points(self):
        pts = [P(0, 0), P(3, 1)]
        cert = is_t_shaped(pts).certificate
        assert not cert.verify(pts + [P(9, 9)])

    def test_verify_rejects_an_assignment_of_a_point_not_in_the_set(self):
        # (5, 7) does not lie on y = 0, yet the other entries are right
        pts = [P(0, 0), P(1, 0)]
        cert = is_t_shaped(pts).certificate
        extra = TShapeCertificate(cert.hyperplanes, {**cert.assignment, (5, 7): 0})
        assert cert.verify(pts + [P(1, 0)])
        assert not extra.verify(pts)

    def test_an_assignment_value_that_is_not_an_int_is_refused(self):
        pts = [P(0, 0), P(1, 0)]
        cert = is_t_shaped(pts).certificate
        for index in (False, 0.0):
            bad = TShapeCertificate(cert.hyperplanes, {pts[0]: 0, pts[1]: index})
            with pytest.raises(TypeError, match="an assignment value is an int"):
                bad.verify(pts)
        # (0, 1) lies first on x = 0, index 1, and True equals 1
        pts.append(P(0, 1))
        hps = cert.hyperplanes + (((1, 0), 0),)
        assert TShapeCertificate(hps, {pts[0]: 0, pts[1]: 0, pts[2]: 1}).verify(pts)
        bad = TShapeCertificate(hps, {pts[0]: 0, pts[1]: 0, pts[2]: True})
        with pytest.raises(TypeError, match="an assignment value is an int, not bool"):
            bad.verify(pts)

    def test_a_hyperplane_may_not_separate_what_its_predecessors_left(self):
        pts = self.SPLIT
        cover = TShapeCertificate((self.HX, self.HZ), dict(zip(pts, [1, 1, 0, 0, 0])))
        assert cover.verify(pts)
        # every point is covered and assigned its first hyperplane, but
        # z = 0 comes first and separates (0, 0, 1) from (0, 0, -1)
        swapped = TShapeCertificate((self.HZ, self.HX), dict(zip(pts, [0, 0, 1, 1, 0])))
        assert not swapped.verify(pts)

    def test_a_point_on_two_hyperplanes_is_assigned_the_first(self):
        # (0, 5, 0) lies on x = 0 and on z = 0: index 1 is incident, not first
        pts = self.SPLIT
        late = TShapeCertificate((self.HX, self.HZ), dict(zip(pts, [1, 1, 0, 0, 1])))
        assert not late.verify(pts)


class TestCertificateHyperplanes:
    """``verify`` reads each of its own hyperplanes before any predicate
    runs: a normal entry must be exactly an ``int``, and the offset is
    read as ``as_point`` reads a coordinate."""

    POINTS = [P(0, 0), P(1, 0)]

    def test_the_found_certificate_verifies(self):
        cert = is_t_shaped(self.POINTS).certificate
        assert cert.hyperplanes == (((0, 1), 0),)
        assert cert.verify(self.POINTS)

    @pytest.mark.parametrize("offset", [False, 0.0], ids=["False", "0.0"])
    def test_a_bool_or_float_offset_is_refused(self, offset):
        cert = TShapeCertificate((((0, 1), offset),), {p: 0 for p in self.POINTS})
        with pytest.raises(TypeError):
            cert.verify(self.POINTS)

    @pytest.mark.parametrize(
        "entry", [True, 1.0, "1", Fraction(1)], ids=["True", "1.0", "str", "Fraction"]
    )
    def test_a_normal_entry_that_is_not_an_int_is_refused(self, entry):
        cert = TShapeCertificate((((0, entry), 0),), {p: 0 for p in self.POINTS})
        with pytest.raises(TypeError, match="a normal entry is an int"):
            cert.verify(self.POINTS)

    def test_an_exact_offset_in_any_form_is_read(self):
        # "0" and Fraction(0) are the offset 0, as coordinates would be
        for offset in ("0", Fraction(0)):
            cert = TShapeCertificate((((0, 1), offset),), {p: 0 for p in self.POINTS})
            assert cert.verify(self.POINTS)

    def test_json_form(self):
        pts = [P(0, 0), P(3, 1)]
        doc = certificate_to_json(is_t_shaped(pts).certificate)
        assert set(doc) == {"hyperplanes", "assignment"}
        assert len(doc["assignment"]) == 2
        rows = [row for row, _ in doc["assignment"]]
        assert rows == sorted(rows)


def affine_image(points, matrix, shift):
    """Apply x -> Mx + b with exact rational entries."""
    out = []
    for p in points:
        coords = tuple(
            sum((Fraction(matrix[i][j]) * p[j] for j in range(len(p))),
                Fraction(shift[i]))
            for i in range(len(p))
        )
        out.append(as_point(coords))
    return out


small_coord = st.integers(-4, 4)


class TestInvariance:
    @given(
        st.lists(
            st.tuples(small_coord, small_coord, small_coord),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_monotonicity(self, rows):
        pts = [P(*r) for r in rows]
        if not is_t_shaped(pts).t_shaped:
            return
        for drop in range(len(pts)):
            sub = pts[:drop] + pts[drop + 1 :]
            assert is_t_shaped(sub).t_shaped

    @given(
        st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=5),
        st.sampled_from(
            [
                ([[1, 0], [0, 1]], [3, -2]),
                ([[0, 1], [1, 0]], [0, 0]),
                ([[2, 1], [1, 1]], [-1, 5]),
                ([[1, 2], [0, "1/3"]], ["1/2", 0]),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_invertible_affine_maps_preserve_the_verdict(self, rows, map_):
        matrix, shift = map_
        pts = [P(*r) for r in rows]
        image = affine_image(pts, matrix, shift)
        assert is_t_shaped(pts).t_shaped == is_t_shaped(image).t_shaped


class TestMomentCurve:
    def test_construction(self):
        pts = moment_curve_points(3, 2, [2, "1/2"])
        assert pts[0] == (2, 4, 8)
        assert pts[1] == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        )

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_parameters_are_exact(self, bad):
        with pytest.raises(TypeError):
            moment_curve_points(2, 2, [1, bad])

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            moment_curve_points(3, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            moment_curve_points(3, 2, [1, 1])
        with pytest.raises(ValueError):
            moment_curve_points(0, 1, [1])

    def test_no_hyperplane_holds_more_than_n_points(self):
        # any n+1 parameters give affinely independent points
        from itertools import combinations

        pts = moment_curve_points(2, 5, [1, 2, 3, 4, 5])
        for triple in combinations(pts, 3):
            assert affine_hull_dim(list(triple)) == 2

    def test_small_witnesses_are_not_t_shaped(self):
        assert not is_t_shaped(moment_curve_points(2, 3, [1, 2, 3])).t_shaped
        assert not is_t_shaped(
            moment_curve_points(3, 7, [1, 2, 3, 4, 5, 6, 7])
        ).t_shaped

    def test_below_threshold_moment_samples_are_t_shaped(self):
        pts = moment_curve_points(3, 5, [1, 2, 3, 4, 5])
        assert is_t_shaped(pts).t_shaped


class TestSearchWork:
    # 18 distinct points of 19 draws from {-1,0,1}^4.  The search makes
    # 2 705 independence tests (_independent calls) on it, 2 of them rank
    # tests against two chosen normals; the bound leaves about 10 % for a
    # change in candidate order.  Without the last-level cut it made
    # 161 347 of them (158 644 rank tests), so the counter stops the
    # search at the bound.
    INDEPENDENCE_TEST_BOUND = 3000

    def test_the_grid_draw_is_refused_within_the_independence_test_bound(
        self, monkeypatch
    ):
        rng = random.Random(1)
        pts = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(19)]
        assert len(set(pts)) == 18
        calls = 0
        independent = tshape._independent

        def counted(normals, normal):
            nonlocal calls
            calls += 1
            assert calls <= self.INDEPENDENCE_TEST_BOUND, "test bound exceeded"
            return independent(normals, normal)

        monkeypatch.setattr(tshape, "_independent", counted)
        res = is_t_shaped(pts)
        assert not res.t_shaped
        assert res.detail == "no certificate found under spanned-hyperplane search"
        assert calls > 0


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def is_primitive_pair(h):
    """A normal of ints with gcd 1 and first nonzero entry positive, and
    an offset that is an int or a Fraction that is not an integer."""
    normal, offset = h
    return (
        all(type(v) is int for v in normal)
        and gcd(*normal) == 1
        and next(filter(None, normal)) > 0
        and (type(offset) is int or type(offset) is Fraction and offset.denominator > 1)
    )


class TestPrimitiveHyperplanes:
    """Every certificate hyperplane is a primitive integer normal with an
    exact offset, on both routes to a yes, for rational points."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[rationals] * (d - 1)), min_size=1, max_size=d + 3),
                st.lists(rationals, min_size=d, max_size=d).filter(lambda n: n[-1]),
                rationals,
            )
        )
    )
    def test_the_hull_route(self, case):
        rows, normal, offset = case
        # the last coordinate solves normal . x = offset
        points = [r + ((offset - dot(normal[:-1], r)) / normal[-1],) for r in rows]
        got = is_t_shaped(points)
        assert got.detail == "one hyperplane carries the whole set"
        (h,) = got.certificate.hyperplanes
        assert is_primitive_pair(h)
        if affine_hull_dim(points) == len(normal) - 1:
            assert h == primitive_pair(normal, offset)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(3, 4), (3, 5), (4, 5), (4, 6)]).flatmap(
            lambda ds: st.lists(
                st.tuples(*[rationals] * ds[0]), min_size=ds[1], max_size=ds[1]
            )
        )
    )
    def test_the_search_route(self, rows):
        # below the t value every set is T-shaped
        assume(affine_hull_dim(rows) == len(rows[0]))
        got = is_t_shaped(rows)
        assert got.detail.startswith("covered by")
        assert all(is_primitive_pair(h) for h in got.certificate.hyperplanes)


MUTATED_SETS = [
    # the hull route, with a fractional offset
    [(0, 0, "1/2"), (1, 0, "1/2"), (0, "1/3", "1/2"), ("2/5", 1, "1/2")],
    # the search route, on rational points
    [(1, 1, 1), (2, 4, 8), (3, 9, 27), (4, 16, 64), ("1/2", 0, 5)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), ("2/3", "1/3", "1/5")],
    [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
     ("-1/2", "3/2", 5, "7/3"), (2, -1, 5, "7/3"), (0, 0, 5, "7/3")],
]


class TestVerifyMutations:
    """``verify`` refuses a certificate with one hyperplane moved: every
    point assigned to it leaves it."""

    @pytest.mark.parametrize("rows", MUTATED_SETS)
    def test_an_offset_moved_by_one_over_the_scale_is_refused(self, rows):
        points = [P(*r) for r in rows]
        cert = is_t_shaped(points).certificate
        assert cert.verify(points)
        scale = clear_denominators(points)[0]
        for i, (normal, offset) in enumerate(cert.hyperplanes):
            for step in (1, -1):
                moved = list(cert.hyperplanes)
                moved[i] = (normal, offset + Fraction(step, scale))
                assert not TShapeCertificate(tuple(moved), cert.assignment).verify(points)

    @pytest.mark.parametrize("rows", MUTATED_SETS)
    def test_a_normal_with_one_entry_changed_is_refused(self, rows):
        points = [P(*r) for r in rows]
        cert = is_t_shaped(points).certificate
        assert cert.verify(points)
        tried = 0
        for i, (normal, offset) in enumerate(cert.hyperplanes):
            assigned = [p for p in points if cert.assignment[p] == i]
            for j in range(len(normal)):
                if not any(p[j] for p in assigned):
                    continue  # the change moves no assigned point off
                for step in (1, -1):
                    changed = list(normal)
                    changed[j] += step
                    moved = list(cert.hyperplanes)
                    moved[i] = (tuple(changed), offset)
                    cert_moved = TShapeCertificate(tuple(moved), cert.assignment)
                    assert not cert_moved.verify(points)
                    tried += 1
        assert tried >= 2 * len(cert.hyperplanes)


class TestOneScaling:
    @pytest.mark.parametrize(
        "rows, detail",
        [
            # full-dimensional, not T-shaped: two lines are needed, and
            # the plane allows one
            (
                [(0, 0), (1, 0), (2, 0), (0, Fraction(1, 2)), (0, Fraction(3, 2))],
                "no certificate found under spanned-hyperplane search",
            ),
            # full-dimensional, T-shaped with two planes
            (
                [(1, 1, 1), (2, 4, 8), (3, 9, 27), (4, 16, 64), (Fraction(1, 2), 0, 5)],
                "covered by 2 hyperplanes",
            ),
            # on one plane
            (
                [(0, 0, 0), (Fraction(1, 3), 1, 0), (5, 2, 0)],
                "one hyperplane carries the whole set",
            ),
        ],
        ids=["two-lines", "two-planes", "one-plane"],
    )
    def test_the_points_are_scaled_once(self, monkeypatch, rows, detail):
        # the one enumeration, which is both the hull test and the
        # search's candidate list, reads one clear_denominators of the
        # points, and a yes answer's certificate check makes one more of
        # its own; the rank tests scale only their normals
        points = [P(*r) for r in rows]
        calls = []
        clear = geometry.clear_denominators

        def counted(given):
            given = [tuple(row) for row in given]
            calls.append(given)
            return clear(given)

        monkeypatch.setattr(geometry, "clear_denominators", counted)
        monkeypatch.setattr(tshape, "clear_denominators", counted)
        got = is_t_shaped(points)
        assert got.detail == detail
        assert calls.count(points) == 1 + got.t_shaped


class TestOneEnumeration:
    """The count of spanned hyperplanes is the hull test: a set with two
    or more is searched over them, a set with one is certified by it,
    and only a set spanning less than a hyperplane asks
    ``containing_hyperplane`` for one."""

    @pytest.mark.parametrize(
        "rows, detail, hulls",
        [
            (
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 0)],
                "covered by 2 hyperplanes",
                0,
            ),
            (
                [(0, 0, "1/2"), (1, 0, "1/2"), (0, 1, "1/2"), (3, 5, "1/2")],
                "one hyperplane carries the whole set",
                0,
            ),
            (
                [(0, 0, 0), (1, 1, 1), (3, 3, 3), (-2, -2, -2)],
                "one hyperplane carries the whole set",
                1,
            ),
        ],
        ids=["full-dimensional", "one-plane", "collinear"],
    )
    def test_one_enumeration_and_a_hull_elimination_only_below_a_hyperplane(
        self, monkeypatch, rows, detail, hulls
    ):
        calls = {"spanned": 0, "hull": 0}
        spanned = tshape.spanned_hyperplanes
        containing = tshape.containing_hyperplane

        def counted_spanned(scaled):
            calls["spanned"] += 1
            return spanned(scaled)

        def counted_containing(scaled):
            calls["hull"] += 1
            return containing(scaled)

        monkeypatch.setattr(tshape, "spanned_hyperplanes", counted_spanned)
        monkeypatch.setattr(tshape, "containing_hyperplane", counted_containing)
        got = is_t_shaped(rows)
        assert got.detail == detail
        assert calls == {"spanned": 1, "hull": hulls}
        if detail.startswith("one hyperplane"):
            # the same pair either way: primitive normal, offset divided back
            scale, scaled = clear_denominators([P(*r) for r in rows])
            normal, offset = containing(scaled)
            assert got.certificate.hyperplanes == ((normal, Fraction(offset, scale)),)


# sha256 of verdict, detail and certificate JSON over the corpus below,
# one JSON line a set, computed at 0fb4130, where the decision still ran
# a hull elimination before its search: a change to any output byte of
# the decision changes it
CONTRACT_DIGEST = "d762a811e4e2f2e030b0656599112c6dda652f570e2e89aec06ecea48fe14bc7"


def contract_corpus():
    """A fixed, seeded corpus of 2 000 point sets in dimensions 2-4, each kind
    in turn: grid points, rational points (mostly full-dimensional),
    points on one hyperplane, points on a flat of dimension 0 to d-2,
    and repeated points of a small integer set.  Coordinates are
    strings, as a points file gives them."""
    rng = random.Random(0)

    def small():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    sets = []
    for i in range(2000):
        kind = i % 5
        d = rng.randint(2, 4)
        if kind == 0:
            r = rng.choice((1, 2))
            pts = [
                tuple(rng.randint(-r, r) for _ in range(d))
                for _ in range(rng.randint(1, d + 4))
            ]
        elif kind == 1:
            pts = [tuple(small() for _ in range(d)) for _ in range(rng.randint(1, d + 3))]
        elif kind == 2:
            # on the hyperplane normal . x = c, solved for the last coordinate
            normal = [rng.randint(-3, 3) for _ in range(d - 1)]
            normal.append(rng.choice((-3, -2, -1, 1, 2, 3)))
            c = small()
            pts = []
            for _ in range(rng.randint(1, d + 4)):
                x = [small() for _ in range(d - 1)]
                last = (c - sum(a * b for a, b in zip(normal, x))) / normal[-1]
                pts.append(tuple(x) + (last,))
        elif kind == 3:
            base = [small() for _ in range(d)]
            dirs = [
                [rng.randint(-2, 2) for _ in range(d)]
                for _ in range(rng.randint(0, d - 2))
            ]
            pts = [
                tuple(b + sum(small() * v[k] for v in dirs) for k, b in enumerate(base))
                for _ in range(rng.randint(1, d + 4))
            ]
        else:
            pool = [
                tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(1, d + 2))
            ]
            pts = pool + [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            rng.shuffle(pts)
        sets.append([[str(v) for v in p] for p in pts])
    return sets


class TestResultContract:
    def test_verdicts_details_and_certificates_keep_their_bytes(self):
        digest = hashlib.sha256()
        details = set()
        for rows in contract_corpus():
            got = is_t_shaped(rows)
            cert = certificate_to_json(got.certificate) if got.certificate else None
            digest.update(json.dumps([got.t_shaped, got.detail, cert]).encode() + b"\n")
            details.add(got.detail)
        # every route is in the corpus
        assert details == {
            "one hyperplane carries the whole set",
            "covered by 2 hyperplanes",
            "covered by 3 hyperplanes",
            "no certificate found under spanned-hyperplane search",
        }
        assert digest.hexdigest() == CONTRACT_DIGEST


class TestInputForms:
    """A set decides and certifies the same whether its integer
    coordinates come as ints, ``Fraction``s or strings."""

    def test_a_certificate_from_fractions_verifies_the_ints(self):
        rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 0)]
        fractions = [P(*map(Fraction, r)) for r in rows]
        cert = is_t_shaped(fractions).certificate
        assert cert is not None
        ints = [P(*r) for r in rows]
        assert cert.verify(ints)
        assert [cert.assignment[p] for p in ints] == [cert.assignment[q] for q in fractions]

    def test_the_assignment_is_keyed_by_plain_tuples(self):
        rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 0)]
        cert = is_t_shaped([[str(v) for v in r] for r in rows]).certificate
        assert set(cert.assignment) == set(rows)
        assert cert.assignment[(0, 0, 0)] == 0
        flat = is_t_shaped([(0, 0, "1/2"), (1, 0, "2/4")]).certificate
        assert flat.assignment[(1, 0, Fraction(1, 2))] == 0


class TestOneCertificateCheck:
    """Both yes branches of ``is_t_shaped`` end in the same check: a
    certificate that fails it raises with the branch's detail."""

    @pytest.mark.parametrize(
        "rows, detail",
        [
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], "one hyperplane carries the whole set"),
            (
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 0)],
                "covered by 2 hyperplanes",
            ),
        ],
    )
    def test_a_failing_certificate_raises_with_the_detail(self, monkeypatch, rows, detail):
        assert is_t_shaped(rows).detail == detail
        monkeypatch.setattr(TShapeCertificate, "verify", lambda self, points: False)
        with pytest.raises(RuntimeError, match=f"fails verification: {detail}"):
            is_t_shaped(rows)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=6
            )
        ),
        st.integers(1, 4),
    )
    def test_the_same_bytes_for_every_form(self, rows, k):
        forms = [
            rows,
            [tuple(Fraction(k * v, k) for v in r) for r in rows],
            [tuple(f"{k * v}/{k}" for v in r) for r in rows],
        ]
        outputs = set()
        for form in forms:
            got = is_t_shaped(form)
            cert = got.certificate
            outputs.add(
                (
                    got.t_shaped,
                    got.detail,
                    json.dumps(certificate_to_json(cert)) if cert else None,
                )
            )
        assert len(outputs) == 1

